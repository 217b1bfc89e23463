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
from .machine import Machine, MailMessage
from .tree import FileTree
from .util import SimClock, make_rng
from .volume import EncryptedVolume, Keyfile, NoMatchingSlot, UnlockedVolume


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


@dataclass(frozen=True)
class MillionairesState:
    submissions: tuple[Submission, ...] = ()


def millionaires_submit(state: MillionairesState, name: str, assets: int) -> MillionairesState:
    if assets < 0:
        raise ServiceError("assets must be non-negative")
    entry = Submission(name=name, assets=int(assets), sequence=len(state.submissions))
    return MillionairesState(submissions=state.submissions + (entry,))


def millionaires_publish(state: MillionairesState, descending: bool = True) -> list[str]:
    """Names ordered by assets (ties keep arrival order); values never leave."""
    key = (lambda s: (-s.assets, s.sequence)) if descending else (lambda s: (s.assets, s.sequence))
    return [s.name for s in sorted(state.submissions, key=key)]


# -- credential directory -------------------------------------------------------


def _verifier(password: str, salt: bytes) -> str:
    return hashlib.sha3_512(salt + password.encode()).hexdigest()


@dataclass(frozen=True)
class DirectoryEntry:
    user: str
    salt: str  # hex
    verifier: str  # hex


@dataclass
class CredentialDirectory:
    entries: dict[str, DirectoryEntry] = field(default_factory=dict)
    read_only: bool = False

    def add_user(self, user: str, password: str, rng: random.Random | None = None) -> None:
        if self.read_only:
            raise ReadOnlyDirectory(
                "sealed-side directory is a replica; update the primary and sync"
            )
        rng = rng or make_rng()
        salt = rng.randbytes(16)
        self.entries[user] = DirectoryEntry(user, salt.hex(), _verifier(password, salt))

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
        return _verifier(password, bytes.fromhex(entry.salt)) == entry.verifier

    def snapshot(self) -> dict[str, DirectoryEntry]:
        return dict(self.entries)

    def render(self) -> str:
        return "".join(
            f"{e.user}:{e.salt}:{e.verifier}\n"
            for e in sorted(self.entries.values(), key=lambda e: e.user)
        )

    @classmethod
    def parse(cls, text: str, read_only: bool = False) -> "CredentialDirectory":
        entries = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            user, salt, verifier = line.split(":")
            entries[user] = DirectoryEntry(user, salt, verifier)
        return cls(entries=entries, read_only=read_only)


def render_directory_file(users: tuple[tuple[str, str], ...],
                          rng: random.Random) -> str:
    directory = CredentialDirectory()
    for user, password in users:
        directory.add_user(user, password, rng)
    return directory.render()


def authenticate(directory: CredentialDirectory, user: str, password: str) -> bool:
    """Verifier comparison only; no record of who asked is kept."""
    return directory.check(user, password)


def credential_sync(replica: CredentialDirectory, primary: CredentialDirectory,
                    clock: SimClock | None = None) -> tuple[CredentialDirectory, str]:
    """One-way: the sealed replica becomes a copy of the primary snapshot."""
    synced = CredentialDirectory(entries=primary.snapshot(), read_only=True)
    stamp = clock.stamp() if clock else ""
    dump = f"{stamp}\n{synced.render()}" if stamp else synced.render()
    return synced, dump


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


def dns_proxy_resolve(domain: str, client: str, upstream: UpstreamResolver,
                      proxy_address: str) -> str:
    """The upstream only ever sees the proxy's address, never the client's."""
    return upstream.query(proxy_address, domain)


# -- data vault --------------------------------------------------------------------


def make_data_vault(sector_count: int, data_files: dict[str, bytes],
                    rng: random.Random) -> tuple[EncryptedVolume, Keyfile]:
    """Provider-side: an encrypted disk carrying the data, key kept by provider."""
    key = Keyfile.generate(rng)
    handle = vol.format_volume(sector_count, key, rng=rng)
    tree = FileTree()
    for path, data in data_files.items():
        tree.write_file(path, data)
    vol.write_image(handle, tree.encode())
    handle.invalidate()
    return handle.volume, key


def attach_data_vault(machine: Machine, sector_count: int,
                      data_files: dict[str, bytes],
                      rng: random.Random | None = None) -> Keyfile:
    """Attach a pre-seal vault disk; returns the provider-held key."""
    vault, key = make_data_vault(sector_count, data_files, rng or machine.rng)
    machine.extra_disks.append(vault)
    return key


def vault_attach(machine: Machine, key: bytes | Keyfile) -> UnlockedVolume:
    """Post-seal key upload: unlock the vault into volatile memory only."""
    if not machine.is_on or not machine.is_sealed:
        raise NotSealed("vault keys are only accepted by a sealed, running server")
    if not machine.extra_disks:
        raise ServiceError("no vault disk attached")
    keyfile = key if isinstance(key, Keyfile) else Keyfile(key)
    vault = machine.extra_disks[0]
    try:
        handle = vol.unlock(vault, keyfile)
    except (NoMatchingSlot, vol.KeyslotsEmpty) as exc:
        raise WrongKey(str(exc)) from exc
    machine.ram.vault_handles.append(handle)
    return handle


def read_vault_tree(handle: UnlockedVolume) -> FileTree:
    return FileTree.decode(vol.read_image(handle))


# -- the sealed server's service frontend ---------------------------------------------


class ServiceFrontend:
    """Typed request surface of a sealed VM, with an audit hook.

    Mutations run in arrival order (the caller is the single queue); reads
    work on immutable snapshots of the stored table.
    """

    TABLE_PATH = "/srv/millionaires/table.tsv"
    REPLICA_PATH = "/etc/ldap/directory.tsv"

    def __init__(self, machine: Machine, *,
                 primary_directory: CredentialDirectory | None = None,
                 upstream: UpstreamResolver | None = None,
                 mail_destination: str | None = None,
                 proxy_address: str | None = None,
                 descending: bool | None = None,
                 audit_hook=None):
        self.machine = machine
        self.primary_directory = primary_directory
        self.upstream = upstream
        config = getattr(machine, "config", None)
        self.mail_destination = mail_destination or (config.mail_to if config else None)
        self.proxy_address = proxy_address or (config.server_address if config else "0.0.0.0")
        self.webroot = config.webroot if config else "/var/www/log"
        if descending is None:
            descending = config.millionaires_descending if config else True
        self.descending = descending
        self.audit_hook = audit_hook

    # -- helpers -------------------------------------------------------------

    def _audit(self, request: str, response: str) -> None:
        if self.audit_hook is not None:
            self.audit_hook(request, response)

    def _require_sealed_web(self) -> None:
        m = self.machine
        if not m.is_on or not m.is_sealed or m.ram.services.web != "running":
            raise NotSealed("service requires a sealed server with the web service up")

    def _auth_configured(self) -> bool:
        return self.primary_directory is not None

    def _replica(self) -> CredentialDirectory:
        tree = self.machine.ram.tree
        text = tree.read_text(self.REPLICA_PATH) if tree.is_file(self.REPLICA_PATH) else ""
        return CredentialDirectory.parse(text, read_only=True)

    def _load_state(self) -> MillionairesState:
        tree = self.machine.ram.tree
        if not tree.is_file(self.TABLE_PATH):
            return MillionairesState()
        subs = []
        for line in tree.read_text(self.TABLE_PATH).splitlines():
            if not line.strip():
                continue
            name, assets, seq = line.split("\t")
            subs.append(Submission(name=name, assets=int(assets), sequence=int(seq)))
        return MillionairesState(submissions=tuple(subs))

    def _store_state(self, state: MillionairesState) -> None:
        text = "".join(
            f"{s.name}\t{s.assets}\t{s.sequence}\n" for s in state.submissions
        )
        self.machine.write_file(self.TABLE_PATH, text.encode())

    # -- operations ------------------------------------------------------------

    def submit_assets(self, name: str, assets: int,
                      credentials: tuple[str, str] | None = None) -> int:
        self._require_sealed_web()
        if self._auth_configured():
            if credentials is None or not self._replica().check(*credentials):
                raise AuthRequired("submission requires valid directory credentials")
        state = millionaires_submit(self._load_state(), name, assets)
        self._store_state(state)
        return state.submissions[-1].sequence

    def publish_ranking(self) -> list[str]:
        names = millionaires_publish(self._load_state(), self.descending)
        if self.machine.is_on:
            self.machine.write_file(
                f"{self.webroot}/ranking.txt",
                ("".join(f"{n}\n" for n in names)).encode(),
            )
        return names

    def submit_mail(self, nickname: str, comment: str,
                    return_address: str | None = None) -> MailMessage:
        self._require_sealed_web()
        if not self.mail_destination:
            raise ServiceError("no destination address configured")
        body = f"nickname: {nickname}\ncomment: {comment}\n"
        if return_address:
            body += f"return address: {return_address}\n"
        message = MailMessage(
            to=self.mail_destination,
            subject=f"maildrop message from {nickname}",
            body=body,
            return_address=return_address,
        )
        self.machine.ram.services.mailer.append(message)
        return message

    def sync_credentials(self) -> str:
        self._require_sealed_web()
        if self.primary_directory is None:
            raise ReplicationUnconfigured("no primary directory was configured at prepare time")
        synced, dump = credential_sync(
            self._replica(), self.primary_directory, self.machine.clock
        )
        self.machine.write_file(self.REPLICA_PATH, synced.render().encode())
        self.machine.append_text(f"{self.webroot}/ldap.txt", dump)
        return dump

    def authenticate(self, user: str, password: str) -> bool:
        return authenticate(self._replica(), user, password)

    def upload_vault_key(self, key: bytes) -> UnlockedVolume:
        return vault_attach(self.machine, key)

    def resolve(self, domain: str, client: str) -> str:
        if self.upstream is None:
            raise Unresolvable("no upstream resolver configured")
        return dns_proxy_resolve(domain, client, self.upstream, self.proxy_address)

    # -- line protocol -----------------------------------------------------------

    def handle_line(self, line: str, client: str = "client") -> str:
        """One request, one response. See the CLI ``serve`` loop."""
        request = line.strip()
        try:
            response = self._dispatch(request, client)
        except ServiceError as exc:
            response = f"ERR {type(exc).__name__}: {exc}"
        self._audit(request, response)
        return response

    def _dispatch(self, request: str, client: str) -> str:
        if not request:
            return "ERR usage: empty request"
        parts = request.split()
        verb = parts[0].upper()
        if verb == "SUBMIT":
            if len(parts) not in (3, 5):
                return "ERR usage: SUBMIT <name> <assets> [user pass]"
            credentials = (parts[3], parts[4]) if len(parts) == 5 else None
            try:
                assets = int(parts[2])
            except ValueError:
                return "ERR usage: assets must be an integer"
            seq = self.submit_assets(parts[1], assets, credentials)
            return f"OK {seq}"
        if verb == "PUBLISH":
            names = self.publish_ranking()
            return "OK " + " ".join(names) if names else "OK"
        if verb == "MAIL":
            payload = request[len("MAIL "):] if len(request) > 5 else ""
            fields = [f.strip() for f in payload.split("|")]
            if len(fields) < 2 or not fields[0]:
                return "ERR usage: MAIL <nick>|<comment>|[return]"
            return_address = fields[2] if len(fields) > 2 and fields[2] else None
            self.submit_mail(fields[0], fields[1], return_address)
            return "OK sent"
        if verb == "AUTH":
            if len(parts) != 3:
                return "ERR usage: AUTH <user> <pass>"
            return "OK accept" if self.authenticate(parts[1], parts[2]) else "OK reject"
        if verb == "SYNC":
            self.sync_credentials()
            return f"OK {len(self.primary_directory.entries)}"
        if verb == "VAULTKEY":
            if len(parts) != 2:
                return "ERR usage: VAULTKEY <hex>"
            try:
                key = bytes.fromhex(parts[1])
            except ValueError:
                return "ERR usage: key must be hex"
            self.upload_vault_key(key)
            return "OK vault unlocked"
        if verb == "RESOLVE":
            if len(parts) != 2:
                return "ERR usage: RESOLVE <domain>"
            return f"OK {self.resolve(parts[1], client)}"
        return f"ERR usage: unknown command {verb}"
