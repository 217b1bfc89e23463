"""n-of-n XOR key escrow: the intentional emergency backdoor.

The escrowed secret is the VM disk's rewrapped master-key record (keyslot
plus header digest salts), captured between the two sealing stages. Shares
1..n-1 are uniformly random; only all n together reveal anything.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from .util import pack_bytes, unpack_bytes
from .volume import (
    MK_DIGEST_BYTES,
    SALT_BYTES,
    WRAPPED_KEY_BYTES,
    EncryptedVolume,
    KeySlot,
    VolumeError,
    VolumeHeader,
    header_bytes,
    kdf_count,
)

SHARE_MAGIC = b"TSSHARE1\n"


class EscrowError(Exception):
    pass


class MissingShares(EscrowError):
    pass


class CommitmentMismatch(EscrowError):
    pass


@dataclass(frozen=True)
class KeyShare:
    index: int  # 1-based
    total: int
    payload: bytes
    commitment: bytes  # sha3-512 of the secret, identical across the set


def _commitment(secret: bytes) -> bytes:
    return hashlib.sha3_512(secret).digest()


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def split_key(secret: bytes, n: int, rng: random.Random) -> list[KeyShare]:
    if n < 2:
        raise EscrowError("need at least 2 parties")
    if not secret:
        raise EscrowError("secret must be nonempty")
    commitment = _commitment(secret)

    payloads = [rng.randbytes(len(secret)) for _ in range(n - 1)]
    last = secret
    for p in payloads:
        last = _xor(last, p)
    payloads.append(last)
    return [
        KeyShare(index=i + 1, total=n, payload=p, commitment=commitment)
        for i, p in enumerate(payloads)
    ]


def reconstruct(shares: list[KeyShare]) -> bytes:
    if not shares:
        raise MissingShares("no shares given")
    total = shares[0].total
    commitment = shares[0].commitment
    for s in shares:
        if s.total != total:
            raise EscrowError(f"share {s.index} claims total {s.total}, expected {total}")
        if s.commitment != commitment:
            raise CommitmentMismatch("shares carry different commitments")
    indices = {s.index for s in shares}
    if len(shares) < total or indices != set(range(1, total + 1)):
        raise MissingShares(
            f"have {len(shares)} of {total} shares; all parties are required"
        )
    secret = shares[0].payload
    for s in shares[1:]:
        secret = _xor(secret, s.payload)
    if _commitment(secret) != commitment:
        raise CommitmentMismatch("reconstructed secret does not match commitment")
    return secret


# -- escrowed payload: the VM's rewrapped key record -----------------------------


def wrapped_key_record(volume: EncryptedVolume) -> bytes:
    """Serialize the active keyslot plus header digest material.

    This is an encrypted copy of the master key: useless without the keyfile,
    but enough to re-enable unlock on a volume whose slots were erased.
    """
    return _key_record(volume.header)


def _key_record(header: VolumeHeader) -> bytes:
    active = header.active_slots()
    if not active:
        raise VolumeError("volume has no active keyslot to escrow")
    slot = header.slots[active[0]]
    doc = {
        "uuid": header.uuid.hex(),
        "slot_salt": slot.salt.hex(),
        "kdf_iterations": slot.kdf_iterations,
        "wrapped_key": slot.wrapped_key.hex(),
        "mk_digest_salt": header.mk_digest_salt.hex(),
        "mk_digest": header.mk_digest.hex(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def apply_wrapped_key_record(volume: EncryptedVolume, record: bytes) -> None:
    """Reinstate an escrowed keyslot so the original keyfile unlocks again.

    Only the canonical record :func:`wrapped_key_record` writes is accepted;
    anything else raises :class:`EscrowError`, and a record of another volume
    raises :class:`VolumeError`. Either way the header is left as it was.
    """
    try:
        doc = json.loads(record)
        slot = KeySlot(state="active", salt=header_bytes(doc["slot_salt"], SALT_BYTES),
                       kdf_iterations=kdf_count(doc["kdf_iterations"]),
                       wrapped_key=header_bytes(doc["wrapped_key"], WRAPPED_KEY_BYTES))
        header = replace(volume.header, slots=(slot,) + volume.header.slots[1:],
                         mk_digest_salt=header_bytes(doc["mk_digest_salt"], SALT_BYTES),
                         mk_digest=header_bytes(doc["mk_digest"], MK_DIGEST_BYTES))
        uuid = header_bytes(doc["uuid"], 16)
    except (ValueError, KeyError, TypeError, RecursionError, VolumeError) as exc:
        raise EscrowError(f"malformed key record ({type(exc).__name__}: {exc})") from None
    if uuid != volume.header.uuid:
        raise VolumeError("escrow record belongs to a different volume")
    if _key_record(header) != record:
        raise EscrowError("key record is not in canonical form")
    volume.header = header


# -- share files -----------------------------------------------------------------


def serialize_share(share: KeyShare) -> bytes:
    return (
        SHARE_MAGIC
        + pack_bytes(share.index.to_bytes(4, "big"))
        + pack_bytes(share.total.to_bytes(4, "big"))
        + pack_bytes(share.commitment)
        + pack_bytes(share.payload)
    )


def deserialize_share(blob: bytes) -> KeyShare:
    if not blob.startswith(SHARE_MAGIC):
        raise EscrowError("bad share magic")
    offset = len(SHARE_MAGIC)
    try:
        index, offset = unpack_bytes(blob, offset)
        total, offset = unpack_bytes(blob, offset)
        commitment, offset = unpack_bytes(blob, offset)
        payload, offset = unpack_bytes(blob, offset)
    except ValueError as exc:
        raise EscrowError(f"corrupt share file: {exc}") from None
    if len(index) != 4 or len(total) != 4:
        raise EscrowError("share index and total must be 4 bytes each")
    if offset != len(blob):
        raise EscrowError("trailing bytes in share file")
    return KeyShare(
        index=int.from_bytes(index, "big"),
        total=int.from_bytes(total, "big"),
        payload=payload,
        commitment=commitment,
    )


def save_share(share: KeyShare, path: str | Path) -> None:
    Path(path).write_bytes(serialize_share(share))


def load_share(path: str | Path) -> KeyShare:
    try:
        return deserialize_share(Path(path).read_bytes())
    except EscrowError as exc:
        raise EscrowError(f"{path}: {exc}") from None
