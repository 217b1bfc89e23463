from __future__ import annotations

import pytest

from conftest import build_server

from sealkit import volume as vol
from sealkit.escrow import (
    CommitmentMismatch,
    EscrowError,
    KeyShare,
    MissingShares,
    apply_wrapped_key_record,
    deserialize_share,
    load_share,
    reconstruct,
    save_share,
    serialize_share,
    split_key,
    verify_shares,
    wrapped_key_record,
)
from sealkit.sealing import seal_all_with_escrow
from sealkit.util import make_rng
from sealkit.volume import Keyfile


def xor_all(parts):
    out = bytes(len(parts[0]))
    for p in parts:
        out = bytes(a ^ b for a, b in zip(out, p))
    return out


# -- split_key ------------------------------------------------------------------


def test_xor_of_all_payloads_is_the_secret(rng):
    secret = rng.randbytes(64)
    shares = split_key(secret, 4, rng)
    assert xor_all([s.payload for s in shares]) == secret


def test_zero_secret_two_parties_shares_equal(rng):
    shares = split_key(b"\x00" * 32, 2, rng)
    assert shares[0].payload == shares[1].payload


def test_two_splits_of_same_secret_share_nothing(rng):
    secret = rng.randbytes(48)
    for _ in range(100):
        a = split_key(secret, 3, rng)
        b = split_key(secret, 3, rng)
        assert all(x.payload != y.payload for x, y in zip(a, b))


def test_split_rejects_fewer_than_two_parties(rng):
    with pytest.raises(EscrowError):
        split_key(b"secret", 1, rng)
    with pytest.raises(EscrowError):
        split_key(b"", 2, rng)


# -- reconstruct -----------------------------------------------------------------


def test_reconstruct_round_trip(rng):
    secret = rng.randbytes(80)
    assert reconstruct(split_key(secret, 5, rng)) == secret


def test_any_partial_subset_is_refused(rng):
    secret = rng.randbytes(32)
    shares = split_key(secret, 4, rng)
    for drop in range(4):
        subset = [s for i, s in enumerate(shares) if i != drop]
        with pytest.raises(MissingShares):
            reconstruct(subset)


def test_flipped_payload_bit_is_detected(rng):
    secret = rng.randbytes(32)
    shares = split_key(secret, 3, rng)
    tampered = KeyShare(
        index=shares[1].index,
        total=shares[1].total,
        payload=bytes([shares[1].payload[0] ^ 0x01]) + shares[1].payload[1:],
        commitment=shares[1].commitment,
    )
    with pytest.raises(CommitmentMismatch):
        reconstruct([shares[0], tampered, shares[2]])


def test_roundtrip_for_all_party_counts():
    rng = make_rng(4242)
    for n in range(2, 9):
        secret = rng.randbytes(rng.randint(1, 200))
        assert reconstruct(split_key(secret, n, rng)) == secret


# -- verify_shares ----------------------------------------------------------------


def test_complete_set_is_consistent(rng):
    report = verify_shares(split_key(rng.randbytes(16), 3, rng))
    assert report.consistent and report.problems == ()


def test_duplicate_index_is_inconsistent(rng):
    shares = split_key(rng.randbytes(16), 3, rng)
    report = verify_shares([shares[0], shares[0], shares[2]])
    assert not report.consistent
    assert any("duplicate" in p for p in report.problems)


def test_mixed_commitments_are_inconsistent(rng):
    a = split_key(rng.randbytes(16), 2, rng)
    b = split_key(rng.randbytes(16), 2, rng)
    report = verify_shares([a[0], b[1]])
    assert not report.consistent
    assert any("commitment" in p for p in report.problems)


# -- statistical hiding --------------------------------------------------------------


def test_single_share_byte_frequencies_look_uniform():
    """Chi-square smoke test over 1000 splits of a fixed secret.

    Statistic compared against the df=255 critical value at p=0.999
    (~330.5, Wilson-Hilferty approximation), so a seeded run never flakes.
    """
    rng = make_rng(31337)
    secret = rng.randbytes(64)
    counts = [0] * 256
    runs = 1000
    for _ in range(runs):
        share = split_key(secret, 3, rng)[0]
        for byte in share.payload:
            counts[byte] += 1
    total = runs * len(secret)
    expected = total / 256
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 331.0, f"chi-square statistic {chi2:.1f} exceeds the 0.999 quantile"


# -- share files -----------------------------------------------------------------------


def test_share_file_round_trip(rng, tmp_path):
    shares = split_key(rng.randbytes(40), 3, rng)
    blob = serialize_share(shares[1])
    assert blob.startswith(b"TSSHARE1\n")
    assert deserialize_share(blob) == shares[1]
    save_share(shares[2], tmp_path / "s.tsshare")
    assert load_share(tmp_path / "s.tsshare") == shares[2]


def test_share_deserialize_rejects_garbage():
    with pytest.raises(EscrowError):
        deserialize_share(b"nope")


# -- the emergency backdoor end to end ---------------------------------------------------


def test_escrowed_record_reopens_sealed_vm_disk():
    host = build_server(70)
    vm = host.nested_vm
    bundle, shares = seal_all_with_escrow(host, 3)
    assert len(shares) == 3
    # the sealed VM disk is unreachable with its keyfile alone
    keyfile = Keyfile(vm.boot_partition.read_file("/keyfile"))
    with pytest.raises(vol.KeyslotsEmpty):
        vol.unlock(vm.root_volume, keyfile)
    # all parties together rebuild the wrapped-key record and reopen it
    record = reconstruct(shares)
    apply_wrapped_key_record(vm.root_volume, record)
    handle = vol.unlock(vm.root_volume, keyfile)
    assert vol.read_sector(handle, 0)  # decryptable again


def test_escrow_record_rejects_foreign_volume(rng):
    fast = vol.CipherSpec(kdf_iterations=10)
    a = vol.format_volume(2, Keyfile.generate(rng), fast, rng).volume
    b = vol.format_volume(2, Keyfile.generate(rng), fast, rng).volume
    record = wrapped_key_record(a)
    with pytest.raises(vol.VolumeError):
        apply_wrapped_key_record(b, record)


def test_bundle_excludes_escrow_material():
    host = build_server(71)
    bundle, shares = seal_all_with_escrow(host, 4)
    for share in shares:
        blob = serialize_share(share)
        for name, data in bundle.artifacts.items():
            assert blob not in data, name
            assert share.payload not in data, name
