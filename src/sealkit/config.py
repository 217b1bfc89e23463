"""Server configuration: defaults, validation, and the key-value file format."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .manifest import RootSpec
from .tree import normalize

DEFAULT_HASH_ROOTS = (
    "/boot", "/etc", "/home", "/lib", "/root", "/sbin", "/srv", "/tmp",
    "/usr/bin", "/usr/lib", "/usr/local", "/usr/sbin", "/usr/share", "/var",
)

# /usr/bin carries a self-referential symlink in the build; the hash step
# there is non-recursive, mirroring the provisioning scripts.
NON_RECURSIVE_ROOTS = ("/usr/bin",)

# Config-file keys that set the ServerConfig field of the same name.
_INT_KEYS = ("host_sectors", "vm_sectors", "vault_sectors")
_STR_KEYS = ("mail_to", "server_address", "webroot", "vm_name")

# A comment starts at a '#' that opens the line or follows whitespace, so a
# value such as the password ``p#w`` keeps its '#'.
_COMMENT = re.compile(r"(?:^|\s)#")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ServerConfig:
    mail_to: str = "auditor@example.org"
    server_address: str = "203.0.113.80"
    webroot: str = "/var/www/log"
    hash_roots: tuple[str, ...] = DEFAULT_HASH_ROOTS
    host_sectors: int = 512
    vm_sectors: int = 512
    vault_sectors: int = 64
    vm_name: str = "tsvm"
    ldap_users: tuple[tuple[str, str], ...] = ()
    dns_table: tuple[tuple[str, str], ...] = (
        ("example.org", "93.184.216.34"),
        ("dns.example.net", "198.51.100.53"),
    )

    def root_specs(self) -> list[RootSpec]:
        return [
            RootSpec(path, recursive=path not in NON_RECURSIVE_ROOTS)
            for path in self.hash_roots
        ]

    def __post_init__(self) -> None:
        if "@" not in self.mail_to:
            raise ConfigError(f"mail_to does not look like an address: {self.mail_to!r}")
        if not self.webroot.startswith("/"):
            raise ConfigError("webroot must be an absolute path")
        # The bundle is named by stripping the webroot off normalized tree paths.
        if self.webroot == "/" or normalize(self.webroot) != self.webroot:
            raise ConfigError(f"webroot must be a normalized directory below /: {self.webroot!r}")
        if min(self.host_sectors, self.vm_sectors, self.vault_sectors) < 1:
            raise ConfigError("sector counts must be positive")
        # NON_RECURSIVE_ROOTS is matched by string: "/usr/bin/" would hash recursively.
        for root in self.hash_roots:
            if not root.startswith("/") or normalize(root) != root:
                raise ConfigError(f"hash root must be a normalized absolute path: {root!r}")
        # An AUTH line splits on whitespace, and each replica line on ':'.
        for user, password in self.ldap_users:
            if user.split() != [user] or ":" in user:
                raise ConfigError(f"ldap user name must be non-empty, without whitespace "
                                  f"or ':': {user!r}")
            if password.split() != [password]:
                raise ConfigError(f"ldap password of {user} must be non-empty, "
                                  f"without whitespace")
        # A RESOLVE line splits on whitespace too, and answers with the one address.
        for domain, address in self.dns_table:
            if domain.split() != [domain]:
                raise ConfigError(f"dns domain must be non-empty, without whitespace: "
                                  f"{domain!r}")
            if address.split() != [address]:
                raise ConfigError(f"dns address of {domain} must be non-empty, "
                                  f"without whitespace")


def parse_config(text: str) -> ServerConfig:
    """Parse ``key = value`` lines; a '#' at the start of a line or after
    whitespace starts a comment, and any other '#' belongs to the value.

    Recognized keys: mail_to, server_address, webroot, hash_roots (comma
    separated), host_sectors, vm_sectors, vault_sectors, vm_name,
    ldap_user.<name> = <password>, dns.<domain> = <address>. Each stage deletes
    the ssh accept rule at its position in the stage's built-in rule table, so
    no key sets it.
    """
    fields: dict[str, object] = {}
    ldap_users = list(ServerConfig.ldap_users)
    dns_table = list(ServerConfig.dns_table)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key in _INT_KEYS:
                fields[key] = int(value)
            elif key in _STR_KEYS:
                fields[key] = value
            elif key == "hash_roots":
                fields[key] = tuple(r.strip() for r in value.split(",") if r.strip())
            elif key.startswith("ldap_user."):
                ldap_users.append((key.split(".", 1)[1], value))
            elif key.startswith("dns."):
                dns_table.append((key.split(".", 1)[1], value))
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return ServerConfig(**fields, ldap_users=tuple(ldap_users), dns_table=tuple(dns_table))


def load_config(path: str | Path | None) -> ServerConfig:
    return ServerConfig() if path is None else parse_config(Path(path).read_text())
