from __future__ import annotations

import pytest

from sealkit import volume as vol
from sealkit.util import make_rng
from sealkit.volume import (
    AuthFailure,
    CipherSpec,
    DiskFull,
    GeometryMismatch,
    InvalidSpec,
    Keyfile,
    KeyslotsEmpty,
    NoMatchingSlot,
    OutOfRange,
    SECTOR_BYTES,
    StaleHandle,
    VolumeError,
)

# Low-iteration spec for loops that hammer the KDF; contractually valid
# (kdf_iterations >= 1) and cryptographically irrelevant to what is tested.
FAST = CipherSpec(kdf_iterations=10)


def make_volume(rng, sectors=4, spec=None):
    keyfile = Keyfile.generate(rng)
    return vol.format_volume(sectors, keyfile, spec or FAST, rng).volume, keyfile


def window_in(haystack: bytes, needle: bytes, width: int = 16) -> bool:
    return any(
        needle[i : i + width] in haystack
        for i in range(len(needle) - width + 1)
    )


# -- format ------------------------------------------------------------------


def test_format_slot0_active_rest_empty(rng):
    volume, _ = make_volume(rng)
    states = vol.dump(volume).slot_states
    assert states[0] == "ACTIVE"
    assert states[1:] == ("EMPTY",) * 7
    assert len(states) == 8


def test_format_twice_differs_in_uuid_and_key(rng):
    keyfile = Keyfile.generate(rng)
    a = vol.format_volume(4, keyfile, FAST, rng).volume
    b = vol.format_volume(4, keyfile, FAST, rng).volume
    assert a.header.uuid != b.header.uuid
    assert a.header.slots[0].wrapped_key != b.header.slots[0].wrapped_key
    assert a.header.mk_digest != b.header.mk_digest


def test_format_fresh_volume_reads_zero_sectors(rng):
    # oracle: sectors are defined to hold zero plaintext after format
    volume, keyfile = make_volume(rng, sectors=1)
    handle = vol.unlock(volume, keyfile)
    assert vol.read_sector(handle, 0) == b"\x00" * SECTOR_BYTES


def test_format_returns_live_handle_on_new_volume(rng):
    keyfile = Keyfile.generate(rng)
    handle = vol.format_volume(2, keyfile, FAST, rng)
    assert handle.valid
    assert handle.key.data == vol.unlock(handle.volume, keyfile).key.data
    assert vol.read_sector(handle, 1) == b"\x00" * SECTOR_BYTES


def test_format_rejects_bad_spec():
    with pytest.raises(InvalidSpec):
        CipherSpec(master_key_bits=256)
    with pytest.raises(InvalidSpec):
        CipherSpec(sector_bytes=4096)
    with pytest.raises(InvalidSpec):
        CipherSpec(kdf_iterations=0)


def test_format_rejects_zero_sectors(rng):
    with pytest.raises(InvalidSpec):
        vol.format_volume(0, Keyfile.generate(rng), FAST, rng)


# -- unlock ------------------------------------------------------------------


def test_unlock_round_trip(rng):
    volume, keyfile = make_volume(rng)
    handle = vol.unlock(volume, keyfile)
    assert handle.valid


def test_unlock_wrong_keyfile(rng):
    volume, _ = make_volume(rng)
    with pytest.raises(NoMatchingSlot):
        vol.unlock(volume, Keyfile.generate(rng))


def test_unlock_after_erase_reports_empty_slots(rng):
    volume, keyfile = make_volume(rng)
    vol.erase_keyslots(volume)
    with pytest.raises(KeyslotsEmpty):
        vol.unlock(volume, keyfile)


def test_unlock_rejects_1000_random_wrong_keyfiles(rng):
    volume, keyfile = make_volume(rng, spec=CipherSpec(kdf_iterations=1))
    for _ in range(1000):
        with pytest.raises(NoMatchingSlot):
            vol.unlock(volume, Keyfile.generate(rng))
    assert vol.unlock(volume, keyfile).valid


# -- read/write sectors -------------------------------------------------------


def test_sector_round_trip(rng):
    volume, keyfile = make_volume(rng)
    handle = vol.unlock(volume, keyfile)
    plaintext = rng.randbytes(SECTOR_BYTES)
    vol.write_sector(handle, 0, plaintext)
    assert vol.read_sector(handle, 0) == plaintext


def test_stale_handle_after_invalidate(rng):
    volume, keyfile = make_volume(rng)
    handle = vol.unlock(volume, keyfile)
    handle.invalidate()  # what power loss does to RAM
    with pytest.raises(StaleHandle):
        vol.read_sector(handle, 0)
    with pytest.raises(StaleHandle):
        vol.write_sector(handle, 0, b"\x00" * SECTOR_BYTES)


def test_out_of_range_reads_and_writes(rng):
    volume, keyfile = make_volume(rng, sectors=4)
    handle = vol.unlock(volume, keyfile)
    with pytest.raises(OutOfRange):
        vol.read_sector(handle, 4)
    with pytest.raises(OutOfRange):
        vol.write_sector(handle, 4, b"\x00" * SECTOR_BYTES)


def test_write_requires_exact_sector_size(rng):
    volume, keyfile = make_volume(rng)
    handle = vol.unlock(volume, keyfile)
    with pytest.raises(VolumeError):
        vol.write_sector(handle, 0, b"short")


def test_ciphertext_contains_no_plaintext_window(rng):
    # oracle: scan the raw sector record for any 16-byte window of plaintext
    volume, keyfile = make_volume(rng)
    handle = vol.unlock(volume, keyfile)
    for _ in range(20):
        plaintext = rng.randbytes(SECTOR_BYTES)
        vol.write_sector(handle, 0, plaintext)
        assert not window_in(volume.sectors[0], plaintext)


def test_same_plaintext_twice_distinct_ciphertexts(rng):
    volume, keyfile = make_volume(rng)
    handle = vol.unlock(volume, keyfile)
    plaintext = rng.randbytes(SECTOR_BYTES)
    vol.write_sector(handle, 0, plaintext)
    first = volume.sectors[0]
    vol.write_sector(handle, 0, plaintext)
    assert volume.sectors[0] != first


# -- read/write images --------------------------------------------------------


def test_image_round_trip_is_zero_padded_to_capacity(rng):
    volume, keyfile = make_volume(rng, sectors=4)
    handle = vol.unlock(volume, keyfile)
    image = rng.randbytes(3 * SECTOR_BYTES + 7)
    padded = vol.write_image(handle, image)
    assert padded == image + b"\x00" * (SECTOR_BYTES - 7)
    assert vol.read_image(handle) == padded
    assert vol.read_image(vol.unlock(volume, keyfile)) == padded


def test_image_write_replaces_only_changed_sectors(rng):
    volume, keyfile = make_volume(rng, sectors=4)
    handle = vol.unlock(volume, keyfile)
    old = vol.write_image(handle, rng.randbytes(4 * SECTOR_BYTES))
    before = list(volume.sectors)
    changed = bytearray(old)
    changed[SECTOR_BYTES + 3] ^= 0xFF  # one byte in sector 1
    changed[3 * SECTOR_BYTES] ^= 0xFF  # one byte in sector 3
    assert vol.write_image(handle, bytes(changed), old) == bytes(changed)
    assert [a != b for a, b in zip(before, volume.sectors)] == [False, True, False, True]
    assert vol.read_image(handle) == bytes(changed)


def test_oversize_image_raises_disk_full_and_writes_nothing(rng):
    volume, keyfile = make_volume(rng, sectors=2)
    handle = vol.unlock(volume, keyfile)
    before = list(volume.sectors)
    with pytest.raises(DiskFull):
        vol.write_image(handle, b"x" * (2 * SECTOR_BYTES + 1))
    assert volume.sectors == before
    assert vol.write_image(handle, b"x" * (2 * SECTOR_BYTES)) == b"x" * (2 * SECTOR_BYTES)


def test_image_io_through_stale_handle_raises(rng):
    volume, keyfile = make_volume(rng)
    handle = vol.unlock(volume, keyfile)
    handle.invalidate()
    with pytest.raises(StaleHandle):
        vol.read_image(handle)
    with pytest.raises(StaleHandle):
        vol.write_image(handle, b"data")


# -- erase_keyslots -------------------------------------------------------------


def test_erase_empties_all_slots(rng):
    volume, _ = make_volume(rng)
    vol.erase_keyslots(volume)
    assert vol.dump(volume).slot_states == ("EMPTY",) * 8
    for slot in volume.header.slots:
        assert slot.wrapped_key == b"" and slot.salt == b"\x00" * 32


def test_erase_keeps_live_handle_usable(rng):
    volume, keyfile = make_volume(rng)
    handle = vol.unlock(volume, keyfile)
    plaintext = rng.randbytes(SECTOR_BYTES)
    vol.write_sector(handle, 1, plaintext)
    vol.erase_keyslots(volume)
    assert vol.read_sector(handle, 1) == plaintext  # system remains operative


def test_erase_is_idempotent(rng):
    volume, _ = make_volume(rng)
    vol.erase_keyslots(volume)
    before = vol.dump(volume).slot_states
    vol.erase_keyslots(volume)
    assert vol.dump(volume).slot_states == before


def test_erase_retains_mk_digest(rng):
    volume, _ = make_volume(rng)
    digest = volume.header.mk_digest
    vol.erase_keyslots(volume)
    assert volume.header.mk_digest == digest


# -- reencrypt -------------------------------------------------------------------


def test_reencrypt_preserves_content(rng):
    volume, keyfile = make_volume(rng, sectors=6)
    handle = vol.unlock(volume, keyfile)
    written = [rng.randbytes(SECTOR_BYTES) for _ in range(6)]
    for i, data in enumerate(written):
        vol.write_sector(handle, i, data)
    vol.reencrypt(volume, keyfile)
    fresh = vol.unlock(volume, keyfile)
    for i, data in enumerate(written):
        assert vol.read_sector(fresh, i) == data


def test_reencrypt_changes_wrapped_key(rng):
    volume, keyfile = make_volume(rng)
    before = volume.header.slots[0].wrapped_key
    vol.reencrypt(volume, keyfile)
    assert volume.header.slots[0].wrapped_key != before


def test_reencrypt_requires_matching_keyfile(rng):
    volume, _ = make_volume(rng)
    with pytest.raises(NoMatchingSlot):
        vol.reencrypt(volume, Keyfile.generate(rng))


def test_header_restored_after_reencrypt_reads_fail(rng):
    # unlock "succeeds" against the old digest, but sector auth fails
    volume, keyfile = make_volume(rng, sectors=3)
    backup = vol.header_backup(volume)
    vol.reencrypt(volume, keyfile)
    vol.restore_header(volume, backup)
    handle = vol.unlock(volume, keyfile)
    for i in range(3):
        with pytest.raises(AuthFailure):
            vol.read_sector(handle, i)


def test_stale_header_authfailure_100_trials():
    # 100/100 randomized volumes: every sector read under the stale header fails
    rng = make_rng(77)
    for trial in range(100):
        volume, keyfile = make_volume(rng, sectors=2)
        handle = vol.unlock(volume, keyfile)
        vol.write_sector(handle, 0, rng.randbytes(SECTOR_BYTES))
        backup = vol.header_backup(volume)
        vol.reencrypt(volume, keyfile)
        vol.restore_header(volume, backup)
        stale = vol.unlock(volume, keyfile)
        for i in range(2):
            with pytest.raises(AuthFailure):
                vol.read_sector(stale, i)


# -- header backup / restore ------------------------------------------------------


def test_backup_erase_restore_reopens_volume(rng):
    # the single-stage header-restore attack works by construction
    volume, keyfile = make_volume(rng)
    backup = vol.header_backup(volume)
    vol.erase_keyslots(volume)
    with pytest.raises(KeyslotsEmpty):
        vol.unlock(volume, keyfile)
    vol.restore_header(volume, backup)
    assert vol.unlock(volume, keyfile).valid


def test_backup_is_deep_copy_and_byte_identical(rng):
    volume, _ = make_volume(rng)
    backup = vol.header_backup(volume)
    assert vol._header_record(backup) == vol._header_record(volume.header)
    vol.erase_keyslots(volume)
    assert backup.slots[0].state == "active"  # isolated from later mutation


def test_restore_rejects_geometry_mismatch(rng):
    small, _ = make_volume(rng, sectors=2)
    large, _ = make_volume(rng, sectors=8)
    with pytest.raises(GeometryMismatch):
        vol.restore_header(large, vol.header_backup(small))


# -- dump ---------------------------------------------------------------------------


def test_dump_renders_slot_lines(rng):
    volume, _ = make_volume(rng)
    text = vol.dump(volume).render()
    assert "Key Slot 0: ACTIVE" in text
    for i in range(1, 8):
        assert f"Key Slot {i}: EMPTY" in text


def test_dump_never_reveals_key_material():
    # substring-scan oracle over 100 random volumes
    rng = make_rng(555)
    for _ in range(100):
        keyfile = Keyfile.generate(rng)
        volume = vol.format_volume(1, keyfile, FAST, rng).volume
        handle = vol.unlock(volume, keyfile)
        text = vol.dump(volume).render()
        blob = text.encode()
        for secret in (handle.key.data, keyfile.data,
                       volume.header.slots[0].wrapped_key):
            assert not window_in(blob, secret)
            assert not window_in(text.lower().encode(), secret.hex().encode())


# -- serialization --------------------------------------------------------------------


def test_volume_container_round_trip(rng):
    volume, keyfile = make_volume(rng, sectors=5)
    handle = vol.unlock(volume, keyfile)
    payload = rng.randbytes(SECTOR_BYTES)
    vol.write_sector(handle, 3, payload)
    blob = vol.serialize_volume(volume)
    assert blob.startswith(b"TSVOL1\n")
    restored = vol.deserialize_volume(blob, rng)
    again = vol.unlock(restored, keyfile)
    assert vol.read_sector(again, 3) == payload
    assert vol.serialize_volume(restored) == blob


def test_deserialize_rejects_garbage(rng):
    with pytest.raises(VolumeError):
        vol.deserialize_volume(b"not a volume", rng)


# -- sealed-volume inaccessibility fuzz -------------------------------------------------


def test_sealed_volume_call_sequences_never_yield_plaintext():
    """Exhaustive depth-3 operation fuzzing on a sealed volume.

    With all slots empty and no live handle, no operation sequence may
    return sector plaintext (brute force excluded by construction).
    """
    rng = make_rng(99)
    secret = rng.randbytes(SECTOR_BYTES)
    keyfile = Keyfile.generate(rng)
    wrong = Keyfile.generate(rng)

    def sealed_volume():
        volume = vol.format_volume(2, keyfile, FAST, rng).volume
        handle = vol.unlock(volume, keyfile)
        vol.write_sector(handle, 0, secret)
        vol.erase_keyslots(volume)
        handle.invalidate()
        return volume

    sealed_backup = vol.header_backup(sealed_volume())

    ops = {
        "unlock_right": lambda v: vol.unlock(v, keyfile),
        "unlock_wrong": lambda v: vol.unlock(v, wrong),
        "dump": lambda v: vol.dump(v).render(),
        "backup": lambda v: vol.header_backup(v),
        "restore_sealed": lambda v: vol.restore_header(v, sealed_backup),
        "erase": lambda v: vol.erase_keyslots(v),
        "reencrypt": lambda v: vol.reencrypt(v, keyfile),
    }

    names = sorted(ops)
    for a in names:
        for b in names:
            for c in names:
                volume = sealed_volume()
                for name in (a, b, c):
                    try:
                        result = ops[name](volume)
                    except vol.VolumeError:
                        continue
                    if isinstance(result, str):
                        assert not window_in(result.encode(), secret)
                    assert not isinstance(result, vol.UnlockedVolume)
                assert not window_in(vol.serialize_volume(volume), secret)
