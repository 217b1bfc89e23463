"""LUKS-style encrypted block device model.

A volume is a header (8 keyslots, cipher parameters, a salted master-key
digest) plus per-sector authenticated ciphertext. The master key is held
only in RAM via :class:`UnlockedVolume` handles, or wrapped inside an
active keyslot; it is never serialized in the clear.

Deliberate differences from dm-crypt: sectors use a 256-bit-key AEAD
(AES-GCM) derived from the 512-bit master key with the sector index bound
as associated data, so stale-key reads fail authentication instead of
returning garbage. The slot KDF is PBKDF2-HMAC-SHA512.

A volume's plaintext image is ``sector_count * 512`` bytes: the content
zero-padded to capacity. :func:`read_image` and :func:`write_image` are the
one path for whole-image I/O; both go sector by sector through
:func:`read_sector` / :func:`write_sector`, and ``write_image`` rewrites only
the sectors that differ from the previous image it is given. That previous
image is trusted to match the disk, which holds because a volume has a
single writer (below): nothing else changes its sectors between writes.

Volumes are single-writer: dump and header_backup are safe concurrently,
all mutating operations must be serialized by the caller, and a handle may
move between threads but not be used from two at once.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import uuid as uuid_mod
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .util import make_rng, pack_bytes, unpack_bytes

VOLUME_MAGIC = b"TSVOL1\n"

MASTER_KEY_BYTES = 64
KEYFILE_BYTES = 512
SALT_BYTES = 32
NONCE_BYTES = 12
TAG_BYTES = 16
SLOT_COUNT = 8
SECTOR_BYTES = 512
SECTOR_RECORD_BYTES = NONCE_BYTES + SECTOR_BYTES + TAG_BYTES
DEFAULT_KDF_ITERATIONS = 10_000


class VolumeError(Exception):
    pass


class InvalidSpec(VolumeError):
    pass


class NoMatchingSlot(VolumeError):
    pass


class KeyslotsEmpty(VolumeError):
    pass


class StaleHandle(VolumeError):
    pass


class AuthFailure(VolumeError):
    pass


class OutOfRange(VolumeError):
    pass


class GeometryMismatch(VolumeError):
    pass


class DiskFull(VolumeError):
    pass


def _kdf(passphrase: bytes, salt: bytes, iterations: int) -> bytes:
    return hashlib.pbkdf2_hmac("sha512", passphrase, salt, iterations, dklen=32)


def _data_key(master_key: bytes) -> bytes:
    return hashlib.sha3_256(b"TSVOL1 sector key" + master_key).digest()


def _master_digest(salt: bytes, master_key: bytes) -> bytes:
    return hashlib.sha3_512(salt + master_key).digest()


def _sector_aad(index: int) -> bytes:
    return b"TSVOL1 sector " + struct.pack(">Q", index)


@dataclass(frozen=True)
class CipherSpec:
    master_key_bits: int = MASTER_KEY_BYTES * 8
    sector_bytes: int = SECTOR_BYTES
    kdf_iterations: int = DEFAULT_KDF_ITERATIONS

    def __post_init__(self):
        if self.master_key_bits != MASTER_KEY_BYTES * 8:
            raise InvalidSpec(f"master key must be {MASTER_KEY_BYTES * 8} bits")
        if self.sector_bytes != SECTOR_BYTES:
            raise InvalidSpec(f"sector size must be {SECTOR_BYTES} bytes")
        if self.kdf_iterations < 1:
            raise InvalidSpec("kdf_iterations must be >= 1")


@dataclass
class Keyfile:
    """512-byte passphrase material, stored only on unencrypted boot media."""

    data: bytes

    def __post_init__(self):
        if len(self.data) != KEYFILE_BYTES:
            raise VolumeError(f"keyfile must be {KEYFILE_BYTES} bytes")

    @classmethod
    def generate(cls, rng: random.Random | None = None) -> "Keyfile":
        rng = rng or make_rng()
        return cls(rng.randbytes(KEYFILE_BYTES))

    def __repr__(self):  # never leak key material through repr
        return "<Keyfile>"


class MasterKey:
    """64 random bytes; lives in slots (wrapped) or RAM, never on disk."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        if len(data) != MASTER_KEY_BYTES:
            raise VolumeError(f"master key must be {MASTER_KEY_BYTES} bytes")
        self.data = data

    @classmethod
    def generate(cls, rng: random.Random) -> "MasterKey":
        return cls(rng.randbytes(MASTER_KEY_BYTES))

    def __repr__(self):
        return "<MasterKey>"


_EMPTY_SALT = b"\x00" * SALT_BYTES


@dataclass
class KeySlot:
    state: str = "empty"  # "empty" | "active"
    salt: bytes = _EMPTY_SALT
    kdf_iterations: int = 0
    wrapped_key: bytes = b""

    @property
    def active(self) -> bool:
        return self.state == "active"

    def erase(self) -> None:
        self.state = "empty"
        self.salt = _EMPTY_SALT
        self.kdf_iterations = 0
        self.wrapped_key = b""

    def copy(self) -> "KeySlot":
        return KeySlot(self.state, self.salt, self.kdf_iterations, self.wrapped_key)


@dataclass
class VolumeHeader:
    uuid: bytes
    spec: CipherSpec
    slots: list[KeySlot]
    mk_digest_salt: bytes
    mk_digest: bytes
    sector_count: int

    def __post_init__(self):
        if len(self.slots) != SLOT_COUNT:
            raise VolumeError(f"header must hold exactly {SLOT_COUNT} slots")

    @property
    def uuid_str(self) -> str:
        return str(uuid_mod.UUID(bytes=self.uuid))

    def copy(self) -> "VolumeHeader":
        return VolumeHeader(
            uuid=self.uuid,
            spec=self.spec,
            slots=[s.copy() for s in self.slots],
            mk_digest_salt=self.mk_digest_salt,
            mk_digest=self.mk_digest,
            sector_count=self.sector_count,
        )

    def active_slots(self) -> list[int]:
        return [i for i, s in enumerate(self.slots) if s.active]


@dataclass(frozen=True)
class HeaderDump:
    uuid: str
    master_key_bits: int
    sector_bytes: int
    kdf_iterations: int
    mk_digest_salt: str
    mk_digest: str
    slot_states: tuple[str, ...]

    def render(self) -> str:
        lines = [
            "Volume header dump",
            f"UUID:            {self.uuid}",
            f"Master key bits: {self.master_key_bits}",
            f"Sector bytes:    {self.sector_bytes}",
            f"KDF iterations:  {self.kdf_iterations}",
            f"MK digest salt:  {self.mk_digest_salt}",
            f"MK digest:       {self.mk_digest}",
        ]
        lines.extend(
            f"Key Slot {i}: {state}" for i, state in enumerate(self.slot_states)
        )
        return "\n".join(lines) + "\n"

    def __str__(self):
        return self.render()


class EncryptedVolume:
    """Header plus sector-wise AEAD ciphertext. Plaintext never stored."""

    def __init__(self, header: VolumeHeader, sectors: list[bytes], rng: random.Random):
        self.header = header
        self.sectors = sectors
        self.rng = rng

    @property
    def sector_count(self) -> int:
        return self.header.sector_count

    @property
    def spec(self) -> CipherSpec:
        return self.header.spec

    def copy(self) -> "EncryptedVolume":
        return EncryptedVolume(self.header.copy(), list(self.sectors), self.rng)


@dataclass
class UnlockedVolume:
    """Volatile handle: the master key lives here and nowhere persistent."""

    volume: EncryptedVolume
    key: MasterKey = field(repr=False)
    valid: bool = True

    def invalidate(self) -> None:
        self.valid = False


def _wrap_master_key(master_key: MasterKey, keyfile: Keyfile, slot_salt: bytes,
                     iterations: int, rng: random.Random) -> bytes:
    wrap_key = _kdf(keyfile.data, slot_salt, iterations)
    nonce = rng.randbytes(NONCE_BYTES)
    ct = AESGCM(wrap_key).encrypt(nonce, master_key.data, b"TSVOL1 keyslot")
    return nonce + ct


def _unwrap_master_key(slot: KeySlot, keyfile: Keyfile) -> MasterKey | None:
    wrap_key = _kdf(keyfile.data, slot.salt, slot.kdf_iterations)
    nonce, ct = slot.wrapped_key[:NONCE_BYTES], slot.wrapped_key[NONCE_BYTES:]
    try:
        raw = AESGCM(wrap_key).decrypt(nonce, ct, b"TSVOL1 keyslot")
    except InvalidTag:
        return None
    return MasterKey(raw)


def _encrypt_sector(master_key: MasterKey, index: int, plaintext: bytes,
                    rng: random.Random) -> bytes:
    nonce = rng.randbytes(NONCE_BYTES)
    ct = AESGCM(_data_key(master_key.data)).encrypt(nonce, plaintext, _sector_aad(index))
    return nonce + ct


def _decrypt_sector(master_key: MasterKey, index: int, record: bytes) -> bytes:
    nonce, ct = record[:NONCE_BYTES], record[NONCE_BYTES:]
    try:
        return AESGCM(_data_key(master_key.data)).decrypt(nonce, ct, _sector_aad(index))
    except InvalidTag:
        raise AuthFailure(f"sector {index} does not authenticate under this key") from None


# -- operations ---------------------------------------------------------------


def format_volume(sector_count: int, keyfile: Keyfile,
                  spec: CipherSpec | None = None,
                  rng: random.Random | None = None) -> UnlockedVolume:
    """Create a fresh volume: random master key wrapped in slot 0, zeroed data.

    Returns a handle on the new volume; callers that only want the volume
    use ``.volume``.
    """
    if sector_count < 1:
        raise InvalidSpec("sector_count must be >= 1")
    spec = spec or CipherSpec()
    rng = rng or make_rng()

    master_key = MasterKey.generate(rng)
    slot_salt = rng.randbytes(SALT_BYTES)
    slots = [KeySlot() for _ in range(SLOT_COUNT)]
    slots[0] = KeySlot(
        state="active",
        salt=slot_salt,
        kdf_iterations=spec.kdf_iterations,
        wrapped_key=_wrap_master_key(MasterKey(master_key.data), keyfile, slot_salt,
                                     spec.kdf_iterations, rng),
    )
    digest_salt = rng.randbytes(SALT_BYTES)
    header = VolumeHeader(
        uuid=rng.randbytes(16),
        spec=spec,
        slots=slots,
        mk_digest_salt=digest_salt,
        mk_digest=_master_digest(digest_salt, master_key.data),
        sector_count=sector_count,
    )
    zero = b"\x00" * SECTOR_BYTES
    sectors = [_encrypt_sector(master_key, i, zero, rng) for i in range(sector_count)]
    return UnlockedVolume(volume=EncryptedVolume(header, sectors, rng), key=master_key)


def unlock(volume: EncryptedVolume, keyfile: Keyfile) -> UnlockedVolume:
    """Try each active slot; accept a candidate key only if it matches mk_digest."""
    active = volume.header.active_slots()
    if not active:
        raise KeyslotsEmpty("all 8 keyslots are empty")
    for i in active:
        candidate = _unwrap_master_key(volume.header.slots[i], keyfile)
        if candidate is None:
            continue
        digest = _master_digest(volume.header.mk_digest_salt, candidate.data)
        if digest == volume.header.mk_digest:
            return UnlockedVolume(volume=volume, key=candidate)
    raise NoMatchingSlot("no active keyslot opens under this keyfile")


def _check_handle(handle: UnlockedVolume, index: int) -> None:
    if not handle.valid:
        raise StaleHandle("handle invalidated (power loss or reboot)")
    if not 0 <= index < handle.volume.sector_count:
        raise OutOfRange(f"sector {index} outside 0..{handle.volume.sector_count - 1}")


def read_sector(handle: UnlockedVolume, index: int) -> bytes:
    _check_handle(handle, index)
    return _decrypt_sector(handle.key, index, handle.volume.sectors[index])


def write_sector(handle: UnlockedVolume, index: int, plaintext: bytes) -> None:
    _check_handle(handle, index)
    if len(plaintext) != SECTOR_BYTES:
        raise VolumeError(f"plaintext must be exactly {SECTOR_BYTES} bytes")
    handle.volume.sectors[index] = _encrypt_sector(
        handle.key, index, plaintext, handle.volume.rng
    )


def read_image(handle: UnlockedVolume) -> bytes:
    """The volume's whole plaintext image, decrypted sector by sector."""
    return b"".join(read_sector(handle, i) for i in range(handle.volume.sector_count))


def write_image(handle: UnlockedVolume, image: bytes, old: bytes = b"") -> bytes:
    """Store ``image`` zero-padded to capacity and return the padded image.

    Only sectors whose bytes differ from ``old`` (the previous padded image)
    are rewritten; every sector differs from the default ``b""``.
    """
    capacity = handle.volume.sector_count * SECTOR_BYTES
    if len(image) > capacity:
        raise DiskFull(f"image needs {len(image)} bytes, volume holds {capacity}")
    padded = image.ljust(capacity, b"\x00")
    for i in range(handle.volume.sector_count):
        lo, hi = i * SECTOR_BYTES, (i + 1) * SECTOR_BYTES
        if padded[lo:hi] != old[lo:hi]:
            write_sector(handle, i, padded[lo:hi])
    return padded


def erase_keyslots(volume: EncryptedVolume) -> None:
    """Wipe all 8 slots. The digest stays; live handles keep working."""
    for slot in volume.header.slots:
        slot.erase()


def reencrypt(volume: EncryptedVolume, keyfile: Keyfile) -> None:
    """Re-key in place: fresh master key, every sector rewritten, slot 0 rewrapped.

    The keyfile stays the same but the newly generated master key is known to
    nobody, so headers captured before this call can no longer decrypt data.
    """
    handle = unlock(volume, keyfile)
    rng = volume.rng
    new_key = MasterKey.generate(rng)

    for i in range(volume.sector_count):
        plaintext = _decrypt_sector(handle.key, i, volume.sectors[i])
        volume.sectors[i] = _encrypt_sector(new_key, i, plaintext, rng)

    spec = volume.spec
    slot_salt = rng.randbytes(SALT_BYTES)
    for slot in volume.header.slots:
        slot.erase()
    volume.header.slots[0] = KeySlot(
        state="active",
        salt=slot_salt,
        kdf_iterations=spec.kdf_iterations,
        wrapped_key=_wrap_master_key(new_key, keyfile, slot_salt,
                                     spec.kdf_iterations, rng),
    )
    volume.header.mk_digest_salt = rng.randbytes(SALT_BYTES)
    volume.header.mk_digest = _master_digest(volume.header.mk_digest_salt, new_key.data)
    handle.invalidate()


def header_backup(volume: EncryptedVolume) -> VolumeHeader:
    return volume.header.copy()


def restore_header(volume: EncryptedVolume, header: VolumeHeader) -> None:
    if header.sector_count != volume.header.sector_count:
        raise GeometryMismatch(
            f"header geometry {header.sector_count} != volume {volume.header.sector_count}"
        )
    if header.spec.sector_bytes != volume.header.spec.sector_bytes:
        raise GeometryMismatch("sector size mismatch")
    volume.header = header.copy()


def dump(volume: EncryptedVolume) -> HeaderDump:
    """Report slot states and cipher parameters; never key material."""
    h = volume.header
    return HeaderDump(
        uuid=h.uuid_str,
        master_key_bits=h.spec.master_key_bits,
        sector_bytes=h.spec.sector_bytes,
        kdf_iterations=h.spec.kdf_iterations,
        mk_digest_salt=h.mk_digest_salt.hex(),
        mk_digest=h.mk_digest.hex(),
        slot_states=tuple("ACTIVE" if s.active else "EMPTY" for s in h.slots),
    )


# -- container serialization ----------------------------------------------------


def _header_record(header: VolumeHeader) -> bytes:
    slots = []
    for slot in header.slots:
        if slot.active:
            slots.append({
                "state": "active",
                "salt": slot.salt.hex(),
                "kdf_iterations": slot.kdf_iterations,
                "wrapped_key": slot.wrapped_key.hex(),
            })
        else:
            slots.append({"state": "empty"})
    doc = {
        "uuid": header.uuid.hex(),
        "spec": {
            "master_key_bits": header.spec.master_key_bits,
            "sector_bytes": header.spec.sector_bytes,
            "kdf_iterations": header.spec.kdf_iterations,
        },
        "slots": slots,
        "mk_digest_salt": header.mk_digest_salt.hex(),
        "mk_digest": header.mk_digest.hex(),
        "sector_count": header.sector_count,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _header_from_record(raw: bytes) -> VolumeHeader:
    doc = json.loads(raw)
    slots = []
    for entry in doc["slots"]:
        if entry["state"] == "active":
            slots.append(KeySlot(
                state="active",
                salt=bytes.fromhex(entry["salt"]),
                kdf_iterations=entry["kdf_iterations"],
                wrapped_key=bytes.fromhex(entry["wrapped_key"]),
            ))
        else:
            slots.append(KeySlot())
    return VolumeHeader(
        uuid=bytes.fromhex(doc["uuid"]),
        spec=CipherSpec(**doc["spec"]),
        slots=slots,
        mk_digest_salt=bytes.fromhex(doc["mk_digest_salt"]),
        mk_digest=bytes.fromhex(doc["mk_digest"]),
        sector_count=doc["sector_count"],
    )


def serialize_volume(volume: EncryptedVolume) -> bytes:
    parts = [VOLUME_MAGIC, pack_bytes(_header_record(volume.header))]
    parts.extend(volume.sectors)
    return b"".join(parts)


def deserialize_volume(blob: bytes, rng: random.Random | None = None) -> EncryptedVolume:
    if not blob.startswith(VOLUME_MAGIC):
        raise VolumeError("bad volume magic")
    record, offset = unpack_bytes(blob, len(VOLUME_MAGIC))
    header = _header_from_record(record)
    sectors = []
    for _ in range(header.sector_count):
        if offset + SECTOR_RECORD_BYTES > len(blob):
            raise VolumeError("truncated sector data")
        sectors.append(blob[offset : offset + SECTOR_RECORD_BYTES])
        offset += SECTOR_RECORD_BYTES
    if offset != len(blob):
        raise VolumeError("trailing bytes after last sector")
    return EncryptedVolume(header, sectors, rng or make_rng())
