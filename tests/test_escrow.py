from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    wrapped_key_record,
)
from sealkit.machine import HOST_LOG_NAME, VM_ROOT_DEVICE_FROM_HOST
from sealkit.sealing import seal_all_with_escrow
from sealkit.util import make_rng
from sealkit.verifier import parse_sealing_log
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


def test_duplicate_index_is_inconsistent(rng):
    shares = split_key(rng.randbytes(16), 3, rng)
    with pytest.raises(MissingShares):
        reconstruct([shares[0], shares[0], shares[2]])


@pytest.mark.parametrize("cut", [0, 1, 2])
def test_a_share_cut_short_is_refused_by_name(rng, tmp_path, cut):
    # Payloads XOR byte by byte, so a cut share must not reconstruct a shorter secret.
    shares = split_key(rng.randbytes(16), 3, rng)
    short = replace(shares[cut], payload=shares[cut].payload[:-4])
    save_share(short, tmp_path / "share")
    shares[cut] = load_share(tmp_path / "share")
    with pytest.raises(EscrowError, match=f"share {cut + 1} holds 12") as exc:
        reconstruct(shares)
    assert not isinstance(exc.value, CommitmentMismatch)


def test_mixed_commitments_are_inconsistent(rng):
    a = split_key(rng.randbytes(16), 2, rng)
    b = split_key(rng.randbytes(16), 2, rng)
    with pytest.raises(CommitmentMismatch):
        reconstruct([a[0], b[1]])


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


SAMPLE_SHARE = serialize_share(split_key(bytes(range(40)), 3, make_rng(5))[0])


@settings(max_examples=1000)
@given(st.integers(0, len(SAMPLE_SHARE) - 1), st.integers(1, 255))
def test_one_byte_mutation_decodes_canonically_or_raises_escrow_error(index, flip):
    blob = bytearray(SAMPLE_SHARE)
    blob[index] ^= flip
    try:
        share = deserialize_share(bytes(blob))
    except EscrowError:
        return
    assert serialize_share(share) == blob


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
    a = vol.format_volume(2, Keyfile.generate(rng), rng, kdf_iterations=10).volume
    b = vol.format_volume(2, Keyfile.generate(rng), rng, kdf_iterations=10).volume
    record = wrapped_key_record(a)
    with pytest.raises(vol.VolumeError):
        apply_wrapped_key_record(b, record)


KEY_RECORD_KEYFILE = Keyfile(bytes(range(256)) * 2)
KEY_RECORD_VOLUME = vol.format_volume(1, KEY_RECORD_KEYFILE, make_rng(6),
                                      kdf_iterations=10).volume
KEY_RECORD = wrapped_key_record(KEY_RECORD_VOLUME)


def edited_key_record(edit) -> bytes:
    doc = json.loads(KEY_RECORD)
    edit(doc)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def edit_slot_0(**fields):
    return edited_key_record(lambda doc: doc["slots"][0].update(fields))


@pytest.mark.parametrize("record", [
    b"\xff" + KEY_RECORD,
    edited_key_record(lambda doc: doc.pop("mk_digest")),
    edit_slot_0(salt="zz"),
    b"[]",
    edit_slot_0(wrapped_key="00"),
    edit_slot_0(kdf_iterations="10"),
    edit_slot_0(kdf_iterations=2**31),
    edited_key_record(lambda doc: doc.update(slots=[{"state": "empty"}] * 8)),
], ids=["not-utf8", "missing-mk-digest", "bad-hex-salt", "json-list", "short-wrapped-key",
        "string-iterations", "iterations-past-the-limit", "no-active-slot"])
def test_malformed_key_record_raises_escrow_error_and_keeps_the_header(record):
    volume = KEY_RECORD_VOLUME.copy()
    before = volume.header
    with pytest.raises(EscrowError):
        apply_wrapped_key_record(volume, record)
    assert volume.header is before


def test_key_record_of_another_sector_count_raises_geometry_mismatch_and_keeps_the_header():
    record = edited_key_record(lambda doc: doc.update(sector_count=2))
    volume = KEY_RECORD_VOLUME.copy()
    before = volume.header
    with pytest.raises(vol.GeometryMismatch):
        apply_wrapped_key_record(volume, record)
    assert volume.header is before


@settings(max_examples=1000)
@given(st.integers(0, len(KEY_RECORD) - 1), st.integers(1, 255))
def test_one_byte_key_record_mutation_applies_cleanly_or_raises_escrow_error(index, flip):
    record = bytearray(KEY_RECORD)
    record[index] ^= flip
    volume = KEY_RECORD_VOLUME.copy()
    before = volume.header
    try:
        apply_wrapped_key_record(volume, bytes(record))
    except EscrowError:
        assert volume.header is before
        return
    except vol.VolumeError:  # a well-formed record of another volume or geometry
        doc = json.loads(record)
        assert (doc["uuid"], doc["sector_count"]) != (before.uuid.hex(), before.sector_count)
        assert volume.header is before
        return
    try:
        vol.unlock(volume, KEY_RECORD_KEYFILE)
    except vol.VolumeError:
        pass


def test_recovery_installs_the_header_the_host_stage_dumped_last():
    host = build_server(72)
    vm = host.nested_vm
    bundle, shares = seal_all_with_escrow(host, 2)
    apply_wrapped_key_record(vm.root_volume, reconstruct(shares))
    log = parse_sealing_log(bundle.artifacts[HOST_LOG_NAME].decode())
    dumps = [record.output for record in log
             if record.command == f"cryptsetup luksDump {VM_ROOT_DEVICE_FROM_HOST}"]
    assert vol.dump(vm.root_volume) == dumps[-1] + "\n"


def test_bundle_excludes_escrow_material():
    host = build_server(71)
    bundle, shares = seal_all_with_escrow(host, 4)
    for share in shares:
        blob = serialize_share(share)
        for name, data in bundle.artifacts.items():
            assert blob not in data, name
            assert share.payload not in data, name
