"""The benchmark's own tests: each correctness gate must trip.

Run from the root of a checkout with ``python -m pytest perfbench``. Each
test sabotages sealkit in-process and checks that the benchmark counts the
failure and exits non-zero.
"""

from __future__ import annotations

import json

import run

run.locate_sources()

import sealkit.cli  # noqa: E402
import sealkit.escrow  # noqa: E402
import sealkit.machine  # noqa: E402
import sealkit.manifest  # noqa: E402
import sealkit.scenarios  # noqa: E402
import sealkit.services  # noqa: E402
import sealkit.verifier  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(capsys, workload: str) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def assert_tripped(code: int, result: dict) -> None:
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_clean_cycle_passes(capsys):
    code, result = bench(capsys, "cycle-default")
    assert code == 0 and result["correct"] and result["failed"] == 0


def test_verify_fail_is_counted(capsys, monkeypatch):
    def failing_verify(*args, **kwargs):
        return sealkit.verifier.Verdict(status="FAIL")

    monkeypatch.setattr(sealkit.cli, "verify_seal", failing_verify)
    assert_tripped(*bench(capsys, "cycle-default"))


def test_removed_keyslot_dump_check_is_caught(capsys, monkeypatch):
    monkeypatch.setattr(sealkit.verifier, "_check_dump_evidence", lambda *args: None)
    code, result = bench(capsys, "cycle-default")
    assert_tripped(code, result)


def test_attack_mismatch_is_counted(capsys, monkeypatch):
    def broken(seed, config):
        return sealkit.scenarios.ScenarioReport(
            "theft-reboot", seed, sealkit.scenarios.ATTACK_FAILS,
            sealkit.scenarios.ATTACK_SUCCEEDS)

    monkeypatch.setitem(sealkit.scenarios._RUNNERS, "theft-reboot", broken)
    assert_tripped(*bench(capsys, "cycle-default"))


def test_oracle_mismatch_is_counted(capsys, monkeypatch):
    original = sealkit.services.millionaires_publish

    def reversed_ranking(state, descending=True):
        return original(state, not descending)

    monkeypatch.setattr(sealkit.services, "millionaires_publish", reversed_ranking)
    assert_tripped(*bench(capsys, "serve-mixed"))


def test_lost_escrow_record_fails_durability(tmp_path, monkeypatch):
    monkeypatch.setattr(sealkit.escrow, "apply_wrapped_key_record", lambda volume, record: None)
    tally = workloads.Tally()
    workload = workloads.ServeWorkload(3, tmp_path, tally)
    session = workload.setup()
    oracle = workload.serve(session, workload.base)
    assert tally.failed == 0
    workload.durability_gate(session, oracle)
    assert tally.failed == 1


def test_tracer_rebinds_every_binding_site_and_restores():
    original = sealkit.machine.full_tree_from_images
    original_hash_lines = sealkit.manifest.hash_lines
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = sealkit.machine.full_tree_from_images
        assert wrapped is not original
        assert sealkit.verifier.full_tree_from_images is wrapped
        assert sealkit.cli.full_tree_from_images is wrapped
        assert sealkit.machine.hash_lines is sealkit.manifest.hash_lines
        assert sealkit.machine.hash_lines is not original_hash_lines
    finally:
        tracer.uninstall()
    assert sealkit.verifier.full_tree_from_images is original
    assert sealkit.machine.full_tree_from_images is original


def test_traced_run_passes_its_own_checks(tmp_path):
    tally = workloads.Tally()
    values, _ = workloads.per_layer("cycle-default", 3, tmp_path, tally)
    assert tally.failed == 0, tally.problems
    assert values["trace.spans"] > 0
