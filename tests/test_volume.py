from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import random
import tracemalloc

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_server

from sealkit import volume as vol
from sealkit.config import ServerConfig
from sealkit.sealing import seal_all
from sealkit.util import make_rng, pack_bytes
from sealkit.volume import (
    AuthFailure,
    DiskFull,
    GeometryMismatch,
    InvalidSpec,
    Keyfile,
    KeyslotsEmpty,
    NONCE_BYTES,
    NoMatchingSlot,
    OutOfRange,
    SALT_BYTES,
    SECTOR_BYTES,
    StaleHandle,
    VolumeError,
)

# Low iteration count for loops that hammer the KDF; contractually valid
# (kdf_iterations >= 1) and cryptographically irrelevant to what is tested.
FAST = 10


def make_volume(rng, sectors=4, kdf_iterations=FAST):
    keyfile = Keyfile.generate(rng)
    return vol.format_volume(sectors, keyfile, rng,
                             kdf_iterations=kdf_iterations).volume, keyfile


def read_padded(handle) -> bytes:
    """``read_image`` zero-padded to capacity, once it is checked to end at its
    last non-zero sector."""
    image = vol.read_image(handle)
    assert len(image) % SECTOR_BYTES == 0
    assert not image or image[-SECTOR_BYTES:] != bytes(SECTOR_BYTES)
    return bytes(image).ljust(handle.volume.sector_count * SECTOR_BYTES, b"\x00")


def serialized(volume) -> bytes:
    return b"".join(vol.serialize_volume(volume))


def window_in(haystack: bytes, needle: bytes, width: int = 16) -> bool:
    return any(
        needle[i : i + width] in haystack
        for i in range(len(needle) - width + 1)
    )


class EncryptionRecorder:
    """A sector cipher that appends to ``indices`` the sector index named by the
    AAD of each sector encryption it makes, in call order."""

    def __init__(self, cipher, indices: list[int]):
        self.cipher, self.indices = cipher, indices

    def encrypt(self, nonce, data, aad):
        if aad.startswith(vol._AAD_PREFIX):
            self.indices.append(int.from_bytes(aad[len(vol._AAD_PREFIX):], "big"))
        return self.cipher.encrypt(nonce, data, aad)

    def decrypt(self, nonce, data, aad):
        return self.cipher.decrypt(nonce, data, aad)


def record_encryptions(handle) -> list[int]:
    """The sector indices that ``handle``'s encryptions name from now on."""
    handle.cipher = EncryptionRecorder(handle.cipher, [])
    return handle.cipher.indices


# -- format ------------------------------------------------------------------


def test_format_slot0_active_rest_empty(rng):
    volume, _ = make_volume(rng)
    assert volume.header.active_slots() == [0]
    assert len(volume.header.slots) == 8


def test_format_twice_differs_in_uuid_and_key(rng):
    keyfile = Keyfile.generate(rng)
    a = vol.format_volume(4, keyfile, rng, kdf_iterations=FAST).volume
    b = vol.format_volume(4, keyfile, rng, kdf_iterations=FAST).volume
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
    handle = vol.format_volume(2, keyfile, rng, kdf_iterations=FAST)
    assert handle.cipher is not None
    assert handle.key.data == vol.unlock(handle.volume, keyfile).key.data
    assert vol.read_sector(handle, 1) == b"\x00" * SECTOR_BYTES


def test_format_installs_image_with_one_write_per_sector(rng, monkeypatch):
    written = []
    real_cipher = vol.AESGCM
    monkeypatch.setattr(vol, "AESGCM", lambda key: EncryptionRecorder(real_cipher(key), written))
    keyfile = Keyfile.generate(rng)
    image = rng.randbytes(2 * SECTOR_BYTES + 100)
    handle = vol.format_volume(6, keyfile, rng, image=image, kdf_iterations=FAST)
    assert written == list(range(6))
    padded = image.ljust(6 * SECTOR_BYTES, b"\x00")
    assert read_padded(handle) == padded
    assert read_padded(vol.unlock(handle.volume, keyfile)) == padded


def test_one_nonce_draw_equals_per_sector_draws():
    # format_volume and reencrypt draw n sector nonces in one call, and
    # write_sector draws through getrandbits: the same bytes, and the same
    # generator state after, as n separate randbytes(12) calls.
    n = 1000
    a, b = make_rng(5), make_rng(5)
    assert a.randbytes(NONCE_BYTES * n) == b"".join(b.randbytes(NONCE_BYTES) for _ in range(n))
    assert a.getstate() == b.getstate()
    nonce = a.getrandbits(NONCE_BYTES * 8).to_bytes(NONCE_BYTES, "little")
    assert nonce == b.randbytes(NONCE_BYTES)
    assert a.random() == b.random()


def test_format_rejects_bad_spec(rng):
    with pytest.raises(InvalidSpec):
        vol.format_volume(1, Keyfile.generate(rng), rng, kdf_iterations=0)


def test_format_rejects_a_kdf_count_past_the_limit(rng):
    with pytest.raises(InvalidSpec):
        vol.format_volume(1, Keyfile.generate(rng), rng,
                          kdf_iterations=vol.MAX_KDF_ITERATIONS + 1)


def test_format_rejects_zero_sectors(rng):
    with pytest.raises(InvalidSpec):
        vol.format_volume(0, Keyfile.generate(rng), rng, kdf_iterations=FAST)


# -- unlock ------------------------------------------------------------------


def test_unlock_round_trip(rng):
    volume, keyfile = make_volume(rng)
    handle = vol.unlock(volume, keyfile)
    assert handle.cipher is not None


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
    volume, keyfile = make_volume(rng, kdf_iterations=1)
    for _ in range(1000):
        with pytest.raises(NoMatchingSlot):
            vol.unlock(volume, Keyfile.generate(rng))
    assert vol.unlock(volume, keyfile).cipher is not None


# -- slot KDF ----------------------------------------------------------------
# ``hashlib.pbkdf2_hmac`` is the reference: the slot KDF must derive its bytes.


def reference_kdf(passphrase: bytes, salt: bytes, iterations: int) -> bytes:
    return hashlib.pbkdf2_hmac("sha512", passphrase, salt, iterations, dklen=32)


def sized_binary(max_size: int):
    """Bytes whose length is drawn uniformly, so long inputs are as likely as short ones."""
    return st.integers(0, max_size).flatmap(lambda n: st.binary(min_size=n, max_size=n))


@settings(max_examples=200)
@given(sized_binary(600), sized_binary(64), st.integers(1, 64))
def test_slot_kdf_equals_hashlib_pbkdf2(passphrase, salt, iterations):
    """Passphrases up to 600 bytes cover keys longer than SHA-512's 128-byte block."""
    assert vol._kdf(passphrase, salt, iterations) == reference_kdf(passphrase, salt, iterations)


def test_slot_kdf_equals_hashlib_pbkdf2_for_a_keyfile_at_the_default_count():
    keyfile = Keyfile.generate(make_rng(15)).data
    salt = make_rng(16).randbytes(SALT_BYTES)
    iterations = vol.DEFAULT_KDF_ITERATIONS
    assert vol._kdf(keyfile, salt, iterations) == reference_kdf(keyfile, salt, iterations)


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
    assert handle.cipher is not None
    assert "cipher" not in repr(handle) and "AESGCM" not in repr(handle)
    handle.invalidate()  # what power loss does to RAM
    assert handle.cipher is None  # the data-key object goes with the handle
    assert handle.key is None  # and so does the master key
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


def reference_open(master_key: vol.MasterKey, index: int, record: bytes) -> bytes:
    """Sector ``index``'s record decrypted under a bare AES-GCM of the data key,
    with the AAD spelled out."""
    return AESGCM(vol._data_key(master_key.data)).decrypt(
        record[:NONCE_BYTES], record[NONCE_BYTES:],
        b"TSVOL1 sector " + index.to_bytes(8, "big"))


def test_every_sector_record_binds_its_index_as_aad(rng):
    # 8, then 256, then 16 sectors: the last volume opens after a larger one.
    for sectors in (8, 256, 16):
        keyfile = Keyfile.generate(rng)
        image = rng.randbytes(sectors * SECTOR_BYTES)
        handle = vol.format_volume(sectors, keyfile, rng, image=image, kdf_iterations=FAST)
        volume, ends = handle.volume, (0, sectors - 1)
        for i in ends:  # written by format_volume
            assert reference_open(handle.key, i, volume.sectors[i]) == \
                image[i * SECTOR_BYTES:(i + 1) * SECTOR_BYTES]
        for i in ends:
            vol.write_sector(handle, i, bytes([i % 256]) * SECTOR_BYTES)
            assert reference_open(handle.key, i, volume.sectors[i]) == \
                bytes([i % 256]) * SECTOR_BYTES
        vol.reencrypt(volume, keyfile)
        handle = vol.unlock(volume, keyfile)
        for i in ends:
            assert reference_open(handle.key, i, volume.sectors[i]) == \
                bytes([i % 256]) * SECTOR_BYTES
        volume.sectors[sectors - 1] = volume.sectors[0]  # a record moved to another index
        with pytest.raises(AuthFailure, match=f"^sector {sectors - 1} "):
            vol.read_sector(handle, sectors - 1)
        with pytest.raises(AuthFailure, match=f"^sector {sectors - 1} "):
            vol.read_image(handle)


# -- read/write images --------------------------------------------------------


def test_image_round_trip_is_zero_padded_to_capacity(rng):
    volume, keyfile = make_volume(rng, sectors=4)
    handle = vol.unlock(volume, keyfile)
    image = rng.randbytes(3 * SECTOR_BYTES + 7)
    assert vol.write_image(handle, image) is None
    padded = image + b"\x00" * (SECTOR_BYTES - 7)
    assert read_padded(handle) == padded
    assert read_padded(vol.unlock(volume, keyfile)) == padded


def traced_read_image(handle) -> tuple[bytearray, int]:
    """``read_image``'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        image = vol.read_image(handle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return image, peak


def test_read_image_allocates_the_image_once(rng):
    """A full volume: one buffer grown in place, no second full copy."""
    volume, keyfile = make_volume(rng, sectors=2048)
    handle = vol.unlock(volume, keyfile)
    full = rng.randbytes(2048 * SECTOR_BYTES)
    vol.write_image(handle, full)
    image, peak = traced_read_image(handle)
    assert image == full
    assert peak < 1.1 * len(image)


@pytest.mark.parametrize("content, expected", [
    (b"", b""),
    (b"\x01" * 100, b"\x01" * 100 + bytes(SECTOR_BYTES - 100)),
], ids=["all-zero", "one-sector"])
def test_read_image_stores_no_zero_tail(rng, content, expected):
    volume, keyfile = make_volume(rng, sectors=2048)
    handle = vol.unlock(volume, keyfile)
    vol.write_image(handle, content)
    image, peak = traced_read_image(handle)
    assert image == expected
    assert peak < 8 * 1024


def test_read_image_reads_each_sector_once_in_order_through_read_sector(rng, monkeypatch):
    volume, keyfile = make_volume(rng, sectors=12)
    handle = vol.unlock(volume, keyfile)
    # Sector 0, a zero run over sectors 1-3, sectors 4 and 5, then a zero tail.
    content = b"\x01" * SECTOR_BYTES + bytes(3 * SECTOR_BYTES) + b"\x02" * 700
    vol.write_image(handle, content)
    real_read_sector, read = vol.read_sector, []
    monkeypatch.setattr(vol, "read_sector",
                        lambda h, i: read.append(i) or real_read_sector(h, i))
    assert vol.read_image(handle) == content.ljust(6 * SECTOR_BYTES, b"\x00")
    assert read == list(range(12))


def test_image_write_replaces_only_changed_sectors(rng):
    volume, keyfile = make_volume(rng, sectors=4)
    handle = vol.unlock(volume, keyfile)
    old = rng.randbytes(4 * SECTOR_BYTES)
    vol.write_image(handle, old)
    before = list(volume.sectors)
    changed = bytearray(old)
    changed[SECTOR_BYTES + 3] ^= 0xFF  # one byte in sector 1
    changed[3 * SECTOR_BYTES] ^= 0xFF  # one byte in sector 3
    vol.write_image(handle, bytes(changed), old)
    assert [a != b for a, b in zip(before, volume.sectors)] == [False, True, False, True]
    assert vol.read_image(handle) == bytes(changed)


@pytest.mark.parametrize("sectors, old_len, new_len, zeros", [
    (4, 3 * SECTOR_BYTES + 7, 600, None),  # content shrinks: freed sectors go back to zero
    (4, 2 * SECTOR_BYTES + 1, 2 * SECTOR_BYTES, None),  # shrink across a sector boundary
    (4096, 5000, 5001, None),  # one byte appended
    (4, 2 * SECTOR_BYTES, 1000, (1000, 2 * SECTOR_BYTES)),  # old content ends in zeros
    (4, 1000, 2 * SECTOR_BYTES + 5, (1000, 2 * SECTOR_BYTES + 5)),  # new content does
    (4, SECTOR_BYTES + 1, SECTOR_BYTES, None),  # content exactly one sector long
    (4, 0, SECTOR_BYTES, None),
    (12, 5000, 12 * SECTOR_BYTES, None),  # the image fills the volume exactly
    (4, None, 0, None),  # old=None: the disk is unknown, every sector is rewritten
    (4, None, 4 * SECTOR_BYTES, None),
], ids=["shrink", "shrink-boundary", "append-byte", "zero-end-old", "zero-end-new",
        "one-sector", "one-sector-grow", "fill", "fresh-empty", "fresh-full"])
def test_image_write_rewrites_exactly_the_differing_sectors(rng, sectors, old_len, new_len,
                                                            zeros):
    volume, keyfile = make_volume(rng, sectors=sectors)
    handle = vol.unlock(volume, keyfile)
    content = bytearray(rng.randbytes(max(old_len or 0, new_len)))
    if zeros:
        content[zeros[0]:zeros[1]] = bytes(zeros[1] - zeros[0])
    content = bytes(content)
    old = None if old_len is None else content[:old_len]
    if old is not None:
        vol.write_image(handle, old)
    written = record_encryptions(handle)
    vol.write_image(handle, content[:new_len], old)
    assert written == differing_sectors(content[:new_len], old, sectors)
    if zeros:
        assert written == []  # only zero bytes moved between content and tail
    assert read_padded(vol.unlock(volume, keyfile)) == content[:new_len].ljust(
        sectors * SECTOR_BYTES, b"\x00")


def differing_sectors(image, old, sectors) -> list[int]:
    """Oracle: both disks in full, zero-padded to capacity, compared sector by sector."""
    capacity = sectors * SECTOR_BYTES
    padded_new = bytes(image).ljust(capacity, b"\x00")
    padded_old = None if old is None else bytes(old).ljust(capacity, b"\x00")
    return [i for i in range(sectors)
            if padded_old is None or padded_new[i * SECTOR_BYTES:(i + 1) * SECTOR_BYTES]
            != padded_old[i * SECTOR_BYTES:(i + 1) * SECTOR_BYTES]]


def reference_write_image(handle, image, old) -> None:
    """``write_image`` as one loop over zero-padded sector copies."""
    capacity = handle.volume.sector_count * SECTOR_BYTES
    last = capacity if old is None else max(len(image), len(old))
    for i in range(-(-last // SECTOR_BYTES)):
        lo = i * SECTOR_BYTES
        sector = image[lo:lo + SECTOR_BYTES].ljust(SECTOR_BYTES, b"\x00")
        if old is None or old[lo:lo + SECTOR_BYTES].ljust(SECTOR_BYTES, b"\x00") != sector:
            vol.write_sector(handle, i, sector)


PROPERTY_SECTORS = 40  # five prefix-skip blocks


def edge_offsets(limit: int):
    """Byte offsets on, just below and just above sector and skip-block edges, or anywhere."""
    def near(step):
        return st.builds(lambda k, d: min(max(k * step + d, 0), limit),
                         st.integers(0, limit // step), st.sampled_from([-1, 0, 1]))
    return st.one_of(near(SECTOR_BYTES), near(vol._PREFIX_BLOCK), st.integers(0, limit))


@st.composite
def image_pairs(draw):
    """(old, new): a shared prefix, then differing bytes, zero runs at either end."""
    capacity = PROPERTY_SECTORS * SECTOR_BYTES
    offsets = edge_offsets(capacity)
    old_len, new_len = draw(offsets), draw(offsets)
    prefix = min(draw(offsets), old_len)
    rng = make_rng(draw(st.integers(0, 2**32)))
    old = bytearray(rng.randbytes(old_len))
    new = old[:min(prefix, new_len)] + rng.randbytes(max(new_len - prefix, 0))
    if prefix < min(old_len, new_len):
        new[prefix] = old[prefix] ^ 0xFF  # the first difference is at the prefix's end
    runs = edge_offsets(2 * vol._PREFIX_BLOCK)
    head = draw(runs)  # zero run at the start of both
    old[:head] = bytes(len(old[:head]))
    new[:head] = bytes(len(new[:head]))
    for image in (old, new):  # zero run at the end of each
        tail = min(draw(runs), len(image))
        image[len(image) - tail:] = bytes(tail)
    return (old if draw(st.booleans()) else bytes(old)), bytes(new)


@settings(max_examples=300)
@given(image_pairs(), st.booleans())
def test_image_write_equals_the_padded_copy_loop(pair, fresh):
    """A write over known content (``old``), or over an unknown disk (``None``)."""
    old, new = pair
    known = None if fresh else old
    keyfile = Keyfile(bytes(vol.KEYFILE_BYTES))
    volumes = []
    for write in (vol.write_image, reference_write_image):
        handle = vol.format_volume(PROPERTY_SECTORS, keyfile, make_rng(9), image=old,
                                   kdf_iterations=FAST)
        written = record_encryptions(handle)
        write(handle, new, known)
        assert written == differing_sectors(new, known, PROPERTY_SECTORS)
        volumes.append(handle.volume)
    ours, reference = volumes
    assert ours.sectors == reference.sectors
    assert ours.rng.getstate() == reference.rng.getstate()


@pytest.mark.parametrize("end", [0, 1, 511, 512, 513, 1000, 64 * 512 - 1, 64 * 512,
                                 64 * 512 + 1, 65 * 512, 80 * 512 - 1, 80 * 512])
def test_content_end_finds_the_zero_tail(rng, end):
    """``read_image`` stops at the sector holding the content's last byte."""
    image = bytearray(80 * SECTOR_BYTES)
    image[:end] = rng.randbytes(end)
    image[end // 3:end // 2] = bytes(end // 2 - end // 3)  # a zero run inside the content
    if end:
        image[end - 1] = 0x5A
    volume, keyfile = make_volume(rng, sectors=80)
    handle = vol.unlock(volume, keyfile)
    vol.write_image(handle, bytes(image))
    assert vol.read_image(handle) == image[:-(-end // SECTOR_BYTES) * SECTOR_BYTES]


def test_sector_cipher_built_once_per_key(rng, monkeypatch):
    derived = []
    real_data_key = vol._data_key
    monkeypatch.setattr(vol, "_data_key", lambda key: derived.append(key) or real_data_key(key))
    keyfile = Keyfile.generate(rng)
    handle = vol.format_volume(8, keyfile, rng, kdf_iterations=FAST)
    image = rng.randbytes(8 * SECTOR_BYTES)
    vol.write_image(handle, image)
    assert vol.read_image(handle) == image
    assert len(derived) == 1
    derived.clear()
    vol.reencrypt(handle.volume, keyfile)
    assert len(derived) == 2  # the old key's cipher and the new key's


def test_oversize_image_raises_disk_full_and_writes_nothing(rng):
    volume, keyfile = make_volume(rng, sectors=2)
    handle = vol.unlock(volume, keyfile)
    before, state = list(volume.sectors), volume.rng.getstate()
    with pytest.raises(DiskFull):
        vol.write_image(handle, b"x" * (2 * SECTOR_BYTES + 1))
    assert volume.sectors == before
    assert volume.rng.getstate() == state  # refused before any nonce is drawn
    vol.write_image(handle, b"x" * (2 * SECTOR_BYTES))
    assert vol.read_image(handle) == b"x" * (2 * SECTOR_BYTES)


def test_image_io_through_stale_handle_raises(rng):
    volume, keyfile = make_volume(rng)
    handle = vol.unlock(volume, keyfile)
    handle.invalidate()
    before, state = list(volume.sectors), volume.rng.getstate()
    with pytest.raises(StaleHandle):
        vol.read_image(handle)
    with pytest.raises(StaleHandle):
        vol.write_image(handle, b"data")
    assert volume.sectors == before
    assert volume.rng.getstate() == state  # refused before any nonce is drawn


# -- erase_keyslots -------------------------------------------------------------


def test_erase_empties_all_slots(rng):
    volume, _ = make_volume(rng)
    vol.erase_keyslots(volume)
    assert volume.header.active_slots() == []
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
    before = volume.header.active_slots()
    vol.erase_keyslots(volume)
    assert volume.header.active_slots() == before


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


def test_failed_reencrypt_leaves_the_data_readable(rng):
    volume, keyfile = make_volume(rng, sectors=4)
    handle = vol.unlock(volume, keyfile)
    written = [rng.randbytes(SECTOR_BYTES) for _ in range(4)]
    for i, data in enumerate(written):
        vol.write_sector(handle, i, data)
    corrupt = bytearray(volume.sectors[2])
    corrupt[NONCE_BYTES + 7] ^= 0x01
    volume.sectors[2] = bytes(corrupt)
    before = list(volume.sectors)
    with pytest.raises(AuthFailure, match=r"^sector 2 does not authenticate"):
        vol.reencrypt(volume, keyfile)
    assert volume.sectors[2:] == before[2:]
    assert all(volume.sectors[i] != before[i] for i in (0, 1))  # fresh nonces
    fresh = vol.unlock(volume, keyfile)
    for i in (0, 1, 3):
        assert vol.read_sector(fresh, i) == written[i]
    with pytest.raises(AuthFailure):
        vol.read_sector(fresh, 2)


def reference_reencrypt(volume, keyfile) -> None:
    """``reencrypt`` one sector at a time: ``read_sector`` under the old key, then
    ``write_sector``, with its own nonce draw, under the new one."""
    handle = vol.unlock(volume, keyfile)
    rekeyed = vol.UnlockedVolume(volume=volume, key=vol.MasterKey.generate(volume.rng))
    for i in range(volume.sector_count):
        vol.write_sector(rekeyed, i, vol.read_sector(handle, i))
    volume.header = dataclasses.replace(volume.header, **vol._key_fields(
        rekeyed.key, keyfile, volume.header.kdf_iterations, volume.rng))


@settings(max_examples=60)
@given(st.integers(1, PROPERTY_SECTORS), edge_offsets(PROPERTY_SECTORS * SECTOR_BYTES),
       st.integers(0, 2**32))
def test_reencrypt_equals_the_per_sector_loop(sectors, content, seed):
    keyfile = Keyfile(bytes(vol.KEYFILE_BYTES))
    volumes = []
    for rekey in (vol.reencrypt, reference_reencrypt):
        rng = make_rng(seed)
        image = rng.randbytes(min(content, sectors * SECTOR_BYTES))
        volume = vol.format_volume(sectors, keyfile, rng, image=image,
                                   kdf_iterations=FAST).volume
        rekey(volume, keyfile)
        volumes.append(volume)
    ours, reference = volumes
    assert ours.sectors == reference.sectors
    assert ours.header == reference.header
    assert ours.rng.getstate() == reference.rng.getstate()
    assert read_padded(vol.unlock(ours, keyfile)).startswith(image)


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
    backup = volume.header
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
        backup = volume.header
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
    backup = volume.header
    vol.erase_keyslots(volume)
    with pytest.raises(KeyslotsEmpty):
        vol.unlock(volume, keyfile)
    vol.restore_header(volume, backup)
    assert vol.unlock(volume, keyfile).cipher is not None


def test_backup_is_deep_copy_and_byte_identical(rng):
    volume, _ = make_volume(rng)
    backup = volume.header
    assert vol.header_record(backup) == vol.header_record(volume.header)
    vol.erase_keyslots(volume)
    assert backup.slots[0].active  # isolated from later mutation


def test_volume_headers_are_immutable(rng):
    volume, _ = make_volume(rng)
    with pytest.raises(dataclasses.FrozenInstanceError):
        volume.header.mk_digest = bytes(64)
    with pytest.raises(dataclasses.FrozenInstanceError):
        volume.header.slots[0].active = False


def test_restore_rejects_geometry_mismatch(rng):
    small, _ = make_volume(rng, sectors=2)
    large, _ = make_volume(rng, sectors=8)
    with pytest.raises(GeometryMismatch):
        vol.restore_header(large, small.header)


# -- dump ---------------------------------------------------------------------------


def test_dump_renders_slot_lines(rng):
    volume, _ = make_volume(rng)
    text = vol.dump(volume)
    assert "Key Slot 0: ACTIVE" in text
    for i in range(1, 8):
        assert f"Key Slot {i}: EMPTY" in text


def test_dump_never_reveals_key_material():
    # substring-scan oracle over 100 random volumes
    rng = make_rng(555)
    for _ in range(100):
        keyfile = Keyfile.generate(rng)
        volume = vol.format_volume(1, keyfile, rng, kdf_iterations=FAST).volume
        handle = vol.unlock(volume, keyfile)
        text = vol.dump(volume)
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
    blob = serialized(volume)
    assert blob.startswith(b"TSVOL1\n")
    restored = vol.deserialize_volume(io.BytesIO(blob))
    again = vol.unlock(restored, keyfile)
    assert vol.read_sector(again, 3) == payload
    assert serialized(restored) == blob


def test_deserialize_rejects_garbage(rng):
    with pytest.raises(VolumeError):
        vol.deserialize_volume(io.BytesIO(b"not a volume"))


# Containers that end inside the first chunk, at its end, just past it, and in a third.
CHUNK_COUNTS = [3, vol._CHUNK_RECORDS, vol._CHUNK_RECORDS + 1, 2 * vol._CHUNK_RECORDS + 1]


@functools.cache
def chunked_volume(sectors: int) -> vol.EncryptedVolume:
    return make_volume(make_rng(sectors), sectors=sectors)[0]


@pytest.mark.parametrize("mangle", [
    lambda blob: blob[:-7],
    lambda blob: blob + b"\x00",
    lambda blob: blob[:-vol.SECTOR_RECORD_BYTES],  # the header counts one more record
    lambda blob: blob[:len(vol.VOLUME_MAGIC) + 2],
    lambda blob: blob[:40],
], ids=["truncated-mid-sector", "trailing-byte", "missing-record", "truncated-length-prefix",
        "truncated-header"])
def test_deserialize_rejects_sector_data_of_the_wrong_length(rng, mangle):
    for sectors in CHUNK_COUNTS:
        volume = chunked_volume(sectors)
        blob = serialized(volume)
        restored = vol.deserialize_volume(io.BytesIO(blob))
        assert restored.sectors == volume.sectors
        assert all(type(record) is bytes for record in restored.sectors)
        assert serialized(restored) == blob
        with pytest.raises(VolumeError):
            vol.deserialize_volume(io.BytesIO(mangle(blob)))


def test_a_container_cut_inside_a_record_names_that_record(rng):
    sectors = 2 * vol._CHUNK_RECORDS + 1
    blob = serialized(chunked_volume(sectors))
    record_300 = len(blob) - (sectors - 300) * vol.SECTOR_RECORD_BYTES
    cut = blob[:record_300 + vol.SECTOR_RECORD_BYTES // 2]
    with pytest.raises(VolumeError, match="ends inside record 300;"):
        vol.deserialize_volume(io.BytesIO(cut))


CONTAINER = serialized(make_volume(make_rng(7), sectors=2)[0])
HEADER_END = len(vol.VOLUME_MAGIC) + 4 + int.from_bytes(
    CONTAINER[len(vol.VOLUME_MAGIC):len(vol.VOLUME_MAGIC) + 4], "big")


@settings(max_examples=1000)
@given(st.integers(0, HEADER_END - 1), st.integers(1, 255))
def test_one_byte_header_mutation_loads_canonically_or_raises_volume_error(index, flip):
    blob = bytearray(CONTAINER)
    blob[index] ^= flip
    try:
        volume = vol.deserialize_volume(io.BytesIO(blob))
    except VolumeError:
        return
    assert serialized(volume) == bytes(blob)


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(uuid="ab" * 15),
    lambda doc: doc.update(sector_count=True),
    lambda doc: doc.update(sector_count=0),
    lambda doc: doc["spec"].update(kdf_iterations=10.0),
    lambda doc: doc["spec"].update(kdf_iterations=vol.MAX_KDF_ITERATIONS + 1),
    lambda doc: doc["slots"][0].update(kdf_iterations=2**32 + 1),
    lambda doc: doc["spec"].update(extra=1),
    lambda doc: doc["spec"].update(master_key_bits=256),
    lambda doc: doc["spec"].update(sector_bytes=4096),
    lambda doc: doc["slots"][0].update(salt="AB" * SALT_BYTES),
    lambda doc: doc["slots"][0].update(state="on"),
    lambda doc: doc["slots"].pop(),
    lambda doc: doc.update(slots={}),
], ids=["short-uuid", "bool-count", "zero-sectors", "float-iterations",
        "spec-iterations-past-the-limit", "slot-iterations-past-the-limit", "unknown-spec-key",
        "wrong-key-bits", "wrong-sector-size",
        "uppercase-hex", "unknown-slot-state", "seven-slots", "slots-not-a-list"])
def test_well_formed_json_that_is_not_a_header_raises_volume_error(edit):
    start = len(vol.VOLUME_MAGIC) + 4
    doc = json.loads(CONTAINER[start:HEADER_END])
    edit(doc)
    record = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    blob = vol.VOLUME_MAGIC + pack_bytes(record) + CONTAINER[HEADER_END:]
    with pytest.raises(VolumeError):
        vol.deserialize_volume(io.BytesIO(blob))


def test_header_with_kdf_counts_at_the_limit_loads():
    start = len(vol.VOLUME_MAGIC) + 4
    doc = json.loads(CONTAINER[start:HEADER_END])
    doc["spec"]["kdf_iterations"] = doc["slots"][0]["kdf_iterations"] = vol.MAX_KDF_ITERATIONS
    record = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    volume = vol.deserialize_volume(io.BytesIO(
        vol.VOLUME_MAGIC + pack_bytes(record) + CONTAINER[HEADER_END:]))
    assert volume.header.slots[0].kdf_iterations == vol.MAX_KDF_ITERATIONS


def test_header_length_beyond_the_limit_raises_before_reading():
    blob = vol.VOLUME_MAGIC + (1 << 31).to_bytes(4, "big")
    with pytest.raises(VolumeError, match="header length"):
        vol.deserialize_volume(io.BytesIO(blob))


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
        volume = vol.format_volume(2, keyfile, rng, kdf_iterations=FAST).volume
        handle = vol.unlock(volume, keyfile)
        vol.write_sector(handle, 0, secret)
        vol.erase_keyslots(volume)
        handle.invalidate()
        return volume

    sealed_backup = sealed_volume().header

    ops = {
        "unlock_right": lambda v: vol.unlock(v, keyfile),
        "unlock_wrong": lambda v: vol.unlock(v, wrong),
        "dump": vol.dump,
        "backup": lambda v: v.header,
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
                assert not window_in(serialized(volume), secret)


def untemper(y: int) -> int:
    """The MT19937 state word that the tempering step turns into output ``y``."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):  # each pass fixes seven more low bits
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x
    for _ in range(2):  # each pass fixes eleven more high bits
        x = y ^ (x >> 11)
    return x


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 12: MT19937 draws every sector nonce, "
                           "so the stored nonces predict the generator")
def test_stored_nonces_of_a_sealed_vm_disk_do_not_predict_the_next_ones():
    # An attacker holding only the sealed VM disk: 208 stored nonces are 624
    # consecutive 32-bit generator outputs, enough for MT19937's whole state.
    # The last 215 sectors of a 512-sector VM are not rewritten after reencrypt.
    host = build_server(1, ServerConfig())
    seal_all(host)
    host.power_off()
    volume = vol.deserialize_volume(io.BytesIO(serialized(host.nested_vm.root_volume)))
    assert volume.sector_count == 512
    assert volume.header.active_slots() == []
    words = [int.from_bytes(record[i:i + 4], "little")
             for record in volume.sectors[-215:] for i in range(0, NONCE_BYTES, 4)]
    known, following = words[:624], words[624:]
    assert len(following) == 21
    clone = random.Random()
    clone.setstate((3, tuple(untemper(w) for w in known) + (624,), None))
    assert [clone.getrandbits(32) for _ in following] != following
