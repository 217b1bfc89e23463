"""Server configuration: defaults, validation, and the key-value file format."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .manifest import RootSpec

DEFAULT_HASH_ROOTS = (
    "/boot", "/etc", "/home", "/lib", "/root", "/sbin", "/srv", "/tmp",
    "/usr/bin", "/usr/lib", "/usr/local", "/usr/sbin", "/usr/share", "/var",
)

# /usr/bin carries a self-referential symlink in the build; the hash step
# there is non-recursive, mirroring the provisioning scripts.
NON_RECURSIVE_ROOTS = ("/usr/bin",)


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ServerConfig:
    host_ssh_rule_index: int = 4
    vm_ssh_rule_index: int = 5
    mail_to: str = "auditor@example.org"
    server_address: str = "203.0.113.80"
    webroot: str = "/var/www/log"
    hash_roots: tuple[str, ...] = DEFAULT_HASH_ROOTS
    millionaires_descending: bool = True
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

    def validate(self) -> None:
        if self.host_ssh_rule_index < 1 or self.vm_ssh_rule_index < 1:
            raise ConfigError("firewall rule indices are 1-based")
        if "@" not in self.mail_to:
            raise ConfigError(f"mail_to does not look like an address: {self.mail_to!r}")
        if not self.webroot.startswith("/"):
            raise ConfigError("webroot must be an absolute path")
        if self.host_sectors < 1 or self.vm_sectors < 1:
            raise ConfigError("sector counts must be positive")
        for root in self.hash_roots:
            if not root.startswith("/"):
                raise ConfigError(f"hash root must be absolute: {root!r}")


def parse_config(text: str) -> ServerConfig:
    """Parse ``key = value`` lines; '#' starts a comment.

    Recognized keys: host_ssh_rule_index, vm_ssh_rule_index, mail_to,
    server_address, webroot, hash_roots (comma separated), millionaires_order
    (descending|ascending), host_sectors, vm_sectors, vault_sectors, vm_name,
    ldap_user.<name> = <password>, dns.<domain> = <address>.
    """
    cfg = ServerConfig()
    ldap_users = list(cfg.ldap_users)
    dns_table = list(cfg.dns_table)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key == "host_ssh_rule_index":
                cfg = replace(cfg, host_ssh_rule_index=int(value))
            elif key == "vm_ssh_rule_index":
                cfg = replace(cfg, vm_ssh_rule_index=int(value))
            elif key == "mail_to":
                cfg = replace(cfg, mail_to=value)
            elif key == "server_address":
                cfg = replace(cfg, server_address=value)
            elif key == "webroot":
                cfg = replace(cfg, webroot=value)
            elif key == "hash_roots":
                roots = tuple(r.strip() for r in value.split(",") if r.strip())
                cfg = replace(cfg, hash_roots=roots)
            elif key == "millionaires_order":
                if value not in ("descending", "ascending"):
                    raise ConfigError(
                        f"line {lineno}: millionaires_order must be descending|ascending"
                    )
                cfg = replace(cfg, millionaires_descending=value == "descending")
            elif key == "host_sectors":
                cfg = replace(cfg, host_sectors=int(value))
            elif key == "vm_sectors":
                cfg = replace(cfg, vm_sectors=int(value))
            elif key == "vault_sectors":
                cfg = replace(cfg, vault_sectors=int(value))
            elif key == "vm_name":
                cfg = replace(cfg, vm_name=value)
            elif key.startswith("ldap_user."):
                ldap_users.append((key.split(".", 1)[1], value))
            elif key.startswith("dns."):
                dns_table.append((key.split(".", 1)[1], value))
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    cfg = replace(cfg, ldap_users=tuple(ldap_users), dns_table=tuple(dns_table))
    cfg.validate()
    return cfg


def load_config(path: str | Path | None) -> ServerConfig:
    if path is None:
        cfg = ServerConfig()
        cfg.validate()
        return cfg
    return parse_config(Path(path).read_text())
