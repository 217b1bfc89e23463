from __future__ import annotations

from itertools import takewhile
from pathlib import Path

import pytest

from conftest import SMALL

from sealkit import volume as vol
from sealkit.machine import HOST, VM, format_tree_volume
from sealkit.scenarios import SCENARIOS, _probe_volume, drop_step, run_scenario
from sealkit.sealing import default_plan
from sealkit.tree import FileTree
from sealkit.util import make_rng


def test_scenario_registry_is_complete():
    assert set(SCENARIOS) == {
        "theft-reboot",
        "header-restore-single",
        "header-restore-dual",
        "tamper-binary",
        "skip-erase",
        "leftover-user",
        "blank-account-listing",
        "tampered-ldap",
        "leftover-ssh-rule",
    }


def test_readme_attack_table_matches_the_scenarios():
    """Each row of README's "Attack scenarios" table: a scenario's name, and an
    outcome whose first word is that scenario's expected outcome."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    after = readme.split("\n### Attack scenarios\n", 1)[1].lstrip("\n").splitlines()
    header, rule, *rows = takewhile(lambda line: line.startswith("|"), after)
    assert header == "| name | expected outcome |"
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    table = sorted((name.strip("`"), outcome.split()[0]) for name, outcome in cells)
    assert table == sorted((name, s.expected) for name, s in SCENARIOS.items())


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        run_scenario("no-such-attack", 0, SMALL)


def test_drop_step_removes_the_first_step_of_its_kind_from_one_stage():
    plan = default_plan(SMALL)
    dropped = drop_step(plan, VM, "chown_webroot")
    assert dropped[HOST] == plan[HOST]
    assert len(dropped[VM]) == len(plan[VM]) - 1
    [kept] = [step for step in dropped[VM] if step.kind == "chown_webroot"]
    assert kept.command == "chown -R www-data:www-data /var/www"


@pytest.mark.parametrize("stage, kind", [
    (HOST, "remove_hosts_allow"),  # a vm-stage step the host stage lacks
    (VM, "no_such_step"),
], ids=["host-remove_hosts_allow", "vm-no_such_step"])
def test_drop_step_rejects_a_stage_or_kind_not_in_the_plan(stage, kind):
    with pytest.raises(ValueError):
        drop_step(default_plan(SMALL), stage, kind)


def test_probe_reads_a_volume_with_one_corrupted_record_as_partially_readable():
    tree = FileTree()
    tree.write_file("/secret", b"s" * 3 * vol.SECTOR_BYTES)
    volume, keyfile = format_tree_volume(tree, 8, make_rng(3))
    state, probed = _probe_volume(volume, keyfile)
    assert state == "readable" and probed.read_file("/secret") == b"s" * 3 * vol.SECTOR_BYTES
    record = bytearray(volume.sectors[2])
    record[-1] ^= 1  # one tag bit
    volume.sectors[2] = bytes(record)
    assert _probe_volume(volume, keyfile) == ("partially-readable", None)


def test_scenario_reports_are_deterministic_per_seed():
    a = run_scenario("theft-reboot", 17, SMALL)
    b = run_scenario("theft-reboot", 17, SMALL)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_matches_expected_over_20_seeds(name):
    expected = SCENARIOS[name].expected
    for seed in range(20):
        report = run_scenario(name, seed, SMALL)
        assert report.observed == expected, (
            f"{name} seed {seed}: observed {report.observed}, "
            f"expected {expected}: {report.details}"
        )
