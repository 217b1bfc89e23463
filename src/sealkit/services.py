"""Application services of the sealed server.

Everything here operates through the controlled request/response surface:
the millionaires' ranking, the anonymous maildrop, one-way credential
replication with published dumps, post-seal vault key upload, and the DNS
privacy proxy. Mutating requests are handled strictly in arrival order.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from . import volume as vol
from .machine import (
    LDAP_DUMP_NAME,
    LDAP_REPLICA_PATH,
    Machine,
    MailMessage,
    directory_dump,
    directory_record,
    format_tree_volume,
    parse_directory_records,
)
from .tree import FileTree
from .volume import DiskFull, Keyfile, UnlockedVolume


class ServiceError(Exception):
    pass


class NotSealed(ServiceError):
    pass


class AuthRequired(ServiceError):
    pass


class ReplicationUnconfigured(ServiceError):
    pass


class WrongKey(ServiceError):
    pass


class Unresolvable(ServiceError):
    pass


class ReadOnlyDirectory(ServiceError):
    pass


# -- millionaires' ranking ----------------------------------------------------


@dataclass(frozen=True)
class Submission:
    name: str
    assets: int  # minor currency units, non-negative
    sequence: int


MillionairesState = tuple[Submission, ...]  # in arrival order


def _parse_table(text: str) -> MillionairesState:
    """The stored table: one ``name\tassets\tsequence`` line per submission."""
    subs = []
    for line in text.splitlines():
        if not line.strip():
            continue
        name, assets, seq = line.split("\t")
        subs.append(Submission(name=name, assets=int(assets), sequence=int(seq)))
    return tuple(subs)


def millionaires_submit(state: MillionairesState, name: str, assets: int) -> MillionairesState:
    if assets < 0:
        raise ServiceError("assets must be non-negative")
    return state + (Submission(name=name, assets=int(assets), sequence=len(state)),)


def millionaires_publish(state: MillionairesState, descending: bool) -> list[str]:
    """Names ordered by assets (ties keep arrival order); values never leave."""
    key = (lambda s: (-s.assets, s.sequence)) if descending else (lambda s: (s.assets, s.sequence))
    return [s.name for s in sorted(state, key=key)]


# -- credential directory -------------------------------------------------------


def _verifier(password: str, salt: bytes) -> bytes:
    return hashlib.sha3_512(salt + password.encode()).digest()


@dataclass(frozen=True)
class DirectoryEntry:
    """Salt and verifier as bytes: hex exists only in the rendered replica text.

    ``salted`` is a SHA3-512 state that has absorbed the salt, built with the
    entry, never on first use, so it records nothing about who asked.
    """

    user: str
    salt: bytes
    verifier: bytes
    salted: hashlib._Hash = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "salted", hashlib.sha3_512(self.salt))


@dataclass
class CredentialDirectory:
    entries: dict[str, DirectoryEntry] = field(default_factory=dict)
    read_only: bool = False

    def add_user(self, user: str, password: str, rng: random.Random) -> None:
        if self.read_only:
            raise ReadOnlyDirectory(
                "sealed-side directory is a replica; update the primary and sync"
            )
        salt = rng.randbytes(16)
        self.entries[user] = DirectoryEntry(user, salt, _verifier(password, salt))

    def remove_user(self, user: str) -> None:
        if self.read_only:
            raise ReadOnlyDirectory(
                "sealed-side directory is a replica; update the primary and sync"
            )
        self.entries.pop(user, None)

    def check(self, user: str, password: str) -> bool:
        entry = self.entries.get(user)
        if entry is None:
            return False
        state = entry.salted.copy()
        state.update(password.encode())
        return state.digest() == entry.verifier

    def render(self) -> str:
        return "".join(
            directory_record(e.user, e.salt, e.verifier)
            for e in sorted(self.entries.values(), key=lambda e: e.user)
        )

    @classmethod
    def from_users(cls, users: tuple[tuple[str, str], ...],
                   rng: random.Random) -> "CredentialDirectory":
        """A directory of each (user, password) pair, salted from ``rng`` in order."""
        directory = cls()
        for user, password in users:
            directory.add_user(user, password, rng)
        return directory

    @classmethod
    def parse(cls, text: str) -> "CredentialDirectory":
        """The sealed side's read-only replica of a rendered directory."""
        entries = {user: DirectoryEntry(user, salt, verifier)
                   for user, salt, verifier in parse_directory_records(text)}
        return cls(entries=entries, read_only=True)


# -- DNS privacy proxy ------------------------------------------------------------


@dataclass
class UpstreamResolver:
    table: dict[str, str] = field(default_factory=dict)
    query_log: list[tuple[str, str]] = field(default_factory=list)  # (source, domain)

    def query(self, source: str, domain: str) -> str:
        self.query_log.append((source, domain))
        try:
            return self.table[domain]
        except KeyError:
            raise Unresolvable(domain) from None


# -- data vault --------------------------------------------------------------------


def attach_data_vault(machine: Machine, sector_count: int,
                      data_files: dict[str, bytes], rng: random.Random) -> Keyfile:
    """Attach a pre-seal vault disk carrying the data; returns the provider-held key."""
    tree = FileTree()
    for path, data in data_files.items():
        tree.write_file(path, data)
    vault, key = format_tree_volume(tree, sector_count, rng)
    machine.extra_disks.append(vault)
    return key


def vault_attach(machine: Machine, key: bytes) -> UnlockedVolume:
    """Post-seal key upload: unlock the vault into volatile memory only."""
    if not machine.is_on or not machine.is_sealed:
        raise NotSealed("vault keys are only accepted by a sealed, running server")
    if not machine.extra_disks:
        raise ServiceError("no vault disk attached")
    try:  # a key of the wrong length is a wrong key too
        handle = vol.unlock(machine.extra_disks[0], Keyfile(key))
    except vol.VolumeError as exc:
        raise WrongKey(str(exc)) from exc
    machine.ram.vault_handles.append(handle)
    return handle


# -- the sealed server's service frontend ---------------------------------------------


class ServiceFrontend:
    """Line-protocol request surface of a sealed VM.

    ``handle_line`` looks each request's verb up in ``_HANDLERS``; a handler
    checks the request's usage and then does the work. Mutations run in
    arrival order (the caller is the single queue). The ranking table and
    the replica are parsed once per stored content: the file's ``bytes``
    object in the RAM tree, which every write of different bytes replaces
    and a write of the same bytes keeps. A request that only reads resolves
    each path it reads once.
    """

    TABLE_PATH = "/srv/millionaires/table.tsv"

    def __init__(self, machine: Machine, *,
                 primary_directory: CredentialDirectory | None = None,
                 upstream: UpstreamResolver | None = None):
        self.machine = machine
        self.primary_directory = primary_directory
        self.upstream = upstream
        self._parsed: dict[str, tuple[bytes, object]] = {}  # path -> (stored bytes, parse)

    def handle_line(self, line: str) -> str:
        """One request, one response. See the CLI ``serve`` loop."""
        request = line.strip()
        if not request.isascii():  # only a non-ASCII str can hold a lone surrogate
            try:
                request.encode()
            except UnicodeEncodeError:  # a non-UTF-8 stdin's bytes arrive surrogate-escaped
                return "ERR usage: request is not UTF-8"
        if not request:
            return "ERR usage: empty request"
        parts = request.split()
        verb = parts[0].upper()
        handler = self._HANDLERS.get(verb)
        if handler is None:
            return f"ERR usage: unknown command {verb}"
        try:
            return handler(self, request, parts)
        except (ServiceError, DiskFull) as exc:
            return f"ERR {type(exc).__name__}: {exc}"

    # -- helpers -------------------------------------------------------------

    def _require_sealed_web(self) -> None:
        m = self.machine
        if not m.is_on or not m.is_sealed or not m.ram.web_running:
            raise NotSealed("service requires a sealed server with the web service up")

    def _parse_once(self, path: str, parse):
        if self.machine.ram is None:
            raise NotSealed("the server is powered off")
        raw = self.machine.ram.tree.file_bytes(path) or b""
        cached = self._parsed.get(path)
        if cached is None or cached[0] is not raw:
            cached = self._parsed[path] = (raw, parse(raw.decode()))
        return cached[1]

    def _replica(self) -> CredentialDirectory:
        return self._parse_once(LDAP_REPLICA_PATH, CredentialDirectory.parse)

    def _load_state(self) -> MillionairesState:
        return self._parse_once(self.TABLE_PATH, _parse_table)

    # -- one handler per verb: (request, its whitespace-split parts) -> response

    def _submit(self, request: str, parts: list[str]) -> str:
        if len(parts) not in (3, 5):
            return "ERR usage: SUBMIT <name> <assets> [user pass]"
        try:
            assets = int(parts[2])
        except ValueError:
            return "ERR usage: assets must be an integer"
        self._require_sealed_web()
        if self.primary_directory is not None:
            if len(parts) != 5 or not self._replica().check(parts[3], parts[4]):
                raise AuthRequired("submission requires valid directory credentials")
        state = millionaires_submit(self._load_state(), parts[1], assets)
        entry = state[-1]
        line = f"{entry.name}\t{entry.assets}\t{entry.sequence}\n"
        stored = self._parsed[self.TABLE_PATH][0]  # the version just parsed
        if stored and not stored.endswith(b"\n"):  # left unterminated by another writer
            line = "\n" + line
        self.machine.append_text(self.TABLE_PATH, line)
        self._parsed[self.TABLE_PATH] = (self.machine.ram.tree.read_file(self.TABLE_PATH), state)
        return f"OK {entry.sequence}"

    def _publish(self, request: str, parts: list[str]) -> str:
        config = self.machine.config
        names = millionaires_publish(self._load_state(), descending=True)
        self.machine.write_file(
            f"{config.webroot}/ranking.txt",
            ("".join(f"{n}\n" for n in names)).encode(),
        )
        return "OK " + " ".join(names) if names else "OK"

    def _mail(self, request: str, parts: list[str]) -> str:
        fields = [f.strip() for f in request[len("MAIL "):].split("|")]
        if len(fields) < 2 or not fields[0]:
            return "ERR usage: MAIL <nick>|<comment>|[return]"
        self._require_sealed_web()
        nickname, comment = fields[0], fields[1]
        return_address = fields[2] if len(fields) > 2 and fields[2] else None
        body = f"nickname: {nickname}\ncomment: {comment}\n"
        if return_address:
            body += f"return address: {return_address}\n"
        self.machine.ram.mailer.append(MailMessage(
            to=self.machine.config.mail_to,
            subject=f"maildrop message from {nickname}",
            body=body,
            return_address=return_address,
        ))
        return "OK sent"

    def _auth(self, request: str, parts: list[str]) -> str:
        """Verifier comparison only; no record of who asked is kept."""
        if len(parts) != 3:
            return "ERR usage: AUTH <user> <pass>"
        return "OK accept" if self._replica().check(parts[1], parts[2]) else "OK reject"

    def _sync(self, request: str, parts: list[str]) -> str:
        self._require_sealed_web()
        if self.primary_directory is None:
            raise ReplicationUnconfigured("no primary directory was configured at prepare time")
        # one-way: the replica copies the primary, and one commit publishes the dump with it
        m = self.machine
        tree = m.ram.tree
        tree.write_file(LDAP_REPLICA_PATH, self.primary_directory.render().encode())
        tree.append_text(f"{m.config.webroot}/{LDAP_DUMP_NAME}", directory_dump(tree, m.clock))
        m.commit()
        return f"OK {len(self.primary_directory.entries)}"

    def _vaultkey(self, request: str, parts: list[str]) -> str:
        if len(parts) != 2:
            return "ERR usage: VAULTKEY <hex>"
        try:
            key = bytes.fromhex(parts[1])
        except ValueError:
            return "ERR usage: key must be hex"
        vault_attach(self.machine, key)
        return "OK vault unlocked"

    def _resolve(self, request: str, parts: list[str]) -> str:
        """The upstream only ever sees the server's address, never the client's."""
        if len(parts) != 2:
            return "ERR usage: RESOLVE <domain>"
        if self.machine.ram is None:
            raise NotSealed("the server is powered off")
        if self.upstream is None:
            raise Unresolvable("no upstream resolver configured")
        return f"OK {self.upstream.query(self.machine.config.server_address, parts[1])}"

    _HANDLERS = {"SUBMIT": _submit, "PUBLISH": _publish, "MAIL": _mail, "AUTH": _auth,
                 "SYNC": _sync, "VAULTKEY": _vaultkey, "RESOLVE": _resolve}
