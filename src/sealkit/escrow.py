"""n-of-n XOR key escrow: the intentional emergency backdoor.

The escrowed secret is the VM disk's header record, in the form TSVOL1 stores
it, captured between the host stage's re-key and the VM's own erase. Shares
1..n-1 are uniformly random; only all n together reveal anything.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from .util import pack_bytes, unpack_bytes
from .volume import EncryptedVolume, VolumeError, header_from_record, header_record, restore_header

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
    first = shares[0]
    total, commitment = first.total, first.commitment
    for s in shares:
        if s.total != total:
            raise EscrowError(f"share {s.index} claims total {s.total}, expected {total}")
        if s.commitment != commitment:
            raise CommitmentMismatch("shares carry different commitments")
        # _xor stops at the shorter payload, so a cut share must be refused here.
        if len(s.payload) != len(first.payload):
            raise EscrowError(f"share {s.index} holds {len(s.payload)} payload bytes, "
                              f"share {first.index} holds {len(first.payload)}")
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


# -- escrowed payload: the VM's header record ------------------------------------


def wrapped_key_record(volume: EncryptedVolume) -> bytes:
    """The volume's header record, the bytes TSVOL1 stores after its magic.

    Its active keyslot is an encrypted copy of the master key: useless without
    the keyfile, but enough to re-enable unlock on a volume whose slots were erased.
    """
    if not volume.header.active_slots():
        raise VolumeError("volume has no active keyslot to escrow")
    return header_record(volume.header)


def apply_wrapped_key_record(volume: EncryptedVolume, record: bytes) -> None:
    """Reinstate an escrowed header so the original keyfile unlocks again.

    Only a canonical header record with an active keyslot is accepted; anything
    else raises :class:`EscrowError`. A record of another volume raises
    :class:`VolumeError`, one of another sector count :class:`GeometryMismatch`.
    On every refusal the header is left as it was.
    """
    try:
        header = header_from_record(record)
    except VolumeError as exc:
        raise EscrowError(f"malformed key record: {exc}") from None
    if not header.active_slots():
        raise EscrowError("key record has no active keyslot")
    if header.uuid != volume.header.uuid:
        raise VolumeError("escrow record belongs to a different volume")
    restore_header(volume, header)


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


def save_shares(shares: list[KeyShare], directory: str | Path) -> list[Path]:
    """Write each share to ``directory/share-<index>.tsshare``; no shares make no directory."""
    paths = [Path(directory) / f"share-{share.index}.tsshare" for share in shares]
    for share, path in zip(shares, paths):
        path.parent.mkdir(parents=True, exist_ok=True)
        save_share(share, path)
    return paths


def load_share(path: str | Path) -> KeyShare:
    try:
        return deserialize_share(Path(path).read_bytes())
    except EscrowError as exc:
        raise EscrowError(f"{path}: {exc}") from None
