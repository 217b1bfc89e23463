"""Simulated host and VM machines.

A machine is an unencrypted boot partition (file tree holding the keyfile),
an encrypted root volume whose plaintext is the canonical encoding of the
root file tree, and volatile RAM state (unlocked handles, working tree,
runtime services/firewall). Tree mutations while powered on are written
through to the root volume sector by sector.

Each machine is single-threaded: the simulation advances only through
explicit operation calls, and a machine must never be shared mutably.
"""

from __future__ import annotations

import random
import zipfile
from dataclasses import dataclass, field
from io import BytesIO
from pathlib import Path

from . import volume as vol
from .manifest import hash_lines
from .tree import FileNode, FileTree, SymlinkNode
from .util import SimClock
from .volume import (
    DiskFull,
    EncryptedVolume,
    GeometryMismatch,
    Keyfile,
    KeyslotsEmpty,
    NoMatchingSlot,
    UnlockedVolume,
)

HOST_ROOT_DEVICE = "/dev/sda2"
VM_ROOT_DEVICE_FROM_HOST = "/dev/sdb2"
VM_ROOT_DEVICE = "/dev/vda2"

LOGIN_SHELLS = ("/bin/bash", "/bin/sh")


class MachineError(Exception):
    pass


class MachineRunning(MachineError):
    pass


class MachineNotRunning(MachineError):
    pass


class SealedAndCold(MachineError):
    """Boot impossible: keyslots erased and the master key left RAM."""


@dataclass
class UserAccount:
    name: str
    login_enabled: bool


@dataclass
class MailMessage:
    to: str
    subject: str
    body: str
    return_address: str | None = None


@dataclass
class ServiceState:
    ssh: str = "installed"  # "installed" | "purged"
    ssh_running: bool = True
    web: str = "stopped"  # "stopped" | "running"
    cron_reboot: list[str] = field(default_factory=list)
    mailer: list[MailMessage] = field(default_factory=list)
    webroot_owner: str = "root"


@dataclass
class FirewallPolicy:
    input_rules: list[str] = field(default_factory=list)
    output_policy: str = "ACCEPT"
    hosts_allow_present: bool = True
    hosts_deny: str = ""


@dataclass(frozen=True)
class BootReport:
    machine: str
    unlocked: bool
    cron_commands: tuple[str, ...]


@dataclass
class StepRecord:
    command: str
    output: str
    exit_status: int = 0

    @property
    def ok(self) -> bool:
        return self.exit_status == 0


@dataclass(frozen=True)
class SealingStep:
    kind: str
    command: str
    args: dict = field(default_factory=dict)
    critical: bool = False


@dataclass
class RamState:
    handle: UnlockedVolume
    tree: FileTree
    users: dict[str, UserAccount]
    services: ServiceState
    firewall: FirewallPolicy
    plain_image: bytes
    vault_handles: list[UnlockedVolume] = field(default_factory=list)
    vm_start_requested: bool = False
    publish_log_requested: bool = False


@dataclass
class DiskImagePair:
    """Quiescent deep copy of one machine's disks (boot + root [+ extras])."""

    boot: FileTree
    root: EncryptedVolume
    extras: list[EncryptedVolume] = field(default_factory=list)

    def copy(self) -> "DiskImagePair":
        return DiskImagePair(
            boot=self.boot.copy(),
            root=self.root.copy(),
            extras=[v.copy() for v in self.extras],
        )


# -- passwd / iptables file helpers ---------------------------------------------


def passwd_line(name: str, uid: int, gid: int, gecos: str, home: str, shell: str) -> str:
    return f"{name}:x:{uid}:{gid}:{gecos}:{home}:{shell}\n"


def parse_passwd(text: str) -> dict[str, UserAccount]:
    users: dict[str, UserAccount] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        fields = line.split(":")
        name, shell = fields[0], fields[-1]
        users[name] = UserAccount(name=name, login_enabled=shell in LOGIN_SHELLS)
    return users


def render_iptables_save(fw: FirewallPolicy) -> str:
    lines = [
        "*filter",
        ":INPUT ACCEPT [0:0]",
        ":FORWARD ACCEPT [0:0]",
        f":OUTPUT {fw.output_policy} [0:0]",
    ]
    lines.extend(fw.input_rules)
    lines.append("COMMIT")
    return "\n".join(lines) + "\n"


def parse_iptables_save(text: str) -> tuple[list[str], str]:
    rules, output_policy = [], "ACCEPT"
    for line in text.splitlines():
        if line.startswith(":OUTPUT"):
            output_policy = line.split()[1]
        elif line.startswith("-A INPUT"):
            rules.append(line)
    return rules, output_policy


def render_listing(tree: FileTree) -> str:
    """ls -RlA style recursive listing of a tree view."""
    out = []
    for path in tree.paths():
        if tree.is_dir(path):
            out.append(f"{path}:")
            for child in tree.children(path):
                child_node = tree.node(child)
                name = child.rsplit("/", 1)[-1]
                if isinstance(child_node, FileNode):
                    out.append(f"  -rw-r--r-- {len(child_node.data):>8} {name}")
                elif isinstance(child_node, SymlinkNode):
                    out.append(f"  lrwxrwxrwx        0 {name} -> {child_node.target}")
                else:
                    out.append(f"  drwxr-xr-x        - {name}/")
    return "\n".join(out) + "\n"


def zip_tree_bytes(tree: FileTree, root: str,
                   date_time: tuple[int, int, int, int, int, int]) -> bytes:
    """Deterministic zip of all regular files under root (paths sans leading /)."""
    buf = BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_DEFLATED, compresslevel=6) as zf:
        for path in tree.under(root):
            node = tree.node(path)
            if isinstance(node, FileNode):
                info = zipfile.ZipInfo(filename=path.lstrip("/"), date_time=date_time)
                info.external_attr = 0o644 << 16
                zf.writestr(info, node.data)
    return buf.getvalue()


def unzip_to_map(blob: bytes) -> dict[str, bytes]:
    with zipfile.ZipFile(BytesIO(blob)) as zf:
        return {"/" + name: zf.read(name) for name in zf.namelist()}


# -- the machine -----------------------------------------------------------------


class Machine:
    def __init__(self, *, kind: str, name: str, root_device: str,
                 boot_partition: FileTree, root_volume: EncryptedVolume,
                 rng: random.Random, clock: SimClock,
                 extra_disks: list[EncryptedVolume] | None = None):
        if kind not in ("host", "vm"):
            raise MachineError(f"unknown machine kind {kind!r}")
        self.kind = kind
        self.name = name
        self.root_device = root_device
        self.boot_partition = boot_partition
        self.root_volume = root_volume
        self.extra_disks = extra_disks or []
        self.rng = rng
        self.clock = clock
        self.power = "off"
        self.ram: RamState | None = None
        self.nested_vm: Machine | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def provision(cls, *, kind: str, name: str, root_device: str,
                  root_tree: FileTree, boot_tree: FileTree, sector_count: int,
                  rng: random.Random, clock: SimClock,
                  spec: vol.CipherSpec | None = None) -> "Machine":
        """Format the root volume with a fresh keyfile and install the tree."""
        keyfile = Keyfile.generate(rng)
        boot_tree.write_file("/keyfile", keyfile.data)
        handle = vol.format_volume(sector_count, keyfile, spec, rng)
        vol.write_image(handle, root_tree.encode())
        handle.invalidate()
        return cls(kind=kind, name=name, root_device=root_device,
                   boot_partition=boot_tree, root_volume=handle.volume,
                   rng=rng, clock=clock)

    # -- power --------------------------------------------------------------

    @property
    def is_on(self) -> bool:
        return self.power == "on"

    @property
    def is_sealed(self) -> bool:
        return not self.root_volume.header.active_slots()

    def boot(self) -> BootReport:
        if self.is_on:
            raise MachineRunning(f"{self.name} is already powered on")
        try:
            keyfile = Keyfile(self.boot_partition.read_file("/keyfile"))
            handle = vol.unlock(self.root_volume, keyfile)
        except (KeyslotsEmpty, NoMatchingSlot) as exc:
            raise SealedAndCold(
                f"{self.name}: root volume cannot be unlocked ({exc})"
            ) from exc

        plain = vol.read_image(handle)
        tree = FileTree.decode(plain)
        users = parse_passwd(tree.read_text("/etc/passwd")) if tree.is_file("/etc/passwd") else {}

        services = ServiceState()
        services.ssh = "installed" if tree.is_file("/usr/sbin/sshd") else "purged"
        services.ssh_running = services.ssh == "installed"
        cron_path = self._cron_script_path()
        if tree.is_file(cron_path):
            services.cron_reboot = [
                line for line in tree.read_text(cron_path).splitlines()
                if line.strip() and not line.startswith("#")
            ]

        firewall = FirewallPolicy()
        rules_path = self._iptables_path()
        if tree.is_file(rules_path):
            firewall.input_rules, firewall.output_policy = parse_iptables_save(
                tree.read_text(rules_path)
            )
        firewall.hosts_allow_present = tree.is_file("/etc/hosts.allow")
        firewall.hosts_deny = (
            tree.read_text("/etc/hosts.deny") if tree.is_file("/etc/hosts.deny") else ""
        )

        self.ram = RamState(
            handle=handle, tree=tree, users=users, services=services,
            firewall=firewall, plain_image=plain,
        )
        self.power = "on"
        return BootReport(
            machine=self.name, unlocked=True,
            cron_commands=tuple(services.cron_reboot),
        )

    def power_off(self) -> None:
        """Clear RAM: the master key vanishes, all handles go stale."""
        if self.ram is not None:
            self.ram.handle.invalidate()
            for h in self.ram.vault_handles:
                h.invalidate()
        self.ram = None
        self.power = "off"
        if self.nested_vm is not None:
            self.nested_vm.power_off()

    def _require_on(self) -> RamState:
        if self.ram is None:
            raise MachineNotRunning(f"{self.name} is powered off")
        return self.ram

    def _cron_script_path(self) -> str:
        return "/root/cron-reboot.sh" if self.kind == "host" else "/home/trust/cron-reboot.sh"

    def _iptables_path(self) -> str:
        return "/root/iptables.v4" if self.kind == "host" else "/home/trust/iptables.v4"

    # -- write-through tree mutation ------------------------------------------

    def _sync_volume(self) -> None:
        ram = self._require_on()
        ram.plain_image = vol.write_image(ram.handle, ram.tree.encode(), ram.plain_image)

    def write_file(self, path: str, data: bytes) -> None:
        ram = self._require_on()
        ram.tree.write_file(path, data)
        self._sync_volume()

    def append_text(self, path: str, text: str) -> None:
        ram = self._require_on()
        ram.tree.append_text(path, text)
        self._sync_volume()

    def remove_path(self, path: str) -> None:
        ram = self._require_on()
        ram.tree.remove(path)
        self._sync_volume()

    def full_view(self) -> FileTree:
        """Root tree with the boot partition mounted at /boot."""
        ram = self._require_on()
        return ram.tree.mount("/boot", self.boot_partition)

    # -- snapshot / restore ----------------------------------------------------

    def snapshot_image(self) -> DiskImagePair:
        if self.is_on:
            raise MachineRunning(f"{self.name} must be powered off for imaging")
        return DiskImagePair(
            boot=self.boot_partition.copy(),
            root=self.root_volume.copy(),
            extras=[v.copy() for v in self.extra_disks],
        )

    def restore_image(self, images: DiskImagePair) -> None:
        if self.is_on:
            raise MachineRunning(f"{self.name} must be powered off for restore")
        if images.root.sector_count != self.root_volume.sector_count:
            raise GeometryMismatch(
                f"image has {images.root.sector_count} sectors, "
                f"machine disk has {self.root_volume.sector_count}"
            )
        restored = images.copy()
        self.boot_partition = restored.boot
        self.root_volume = restored.root
        self.root_volume.rng = self.rng
        self.extra_disks = restored.extras
        for disk in self.extra_disks:
            disk.rng = self.rng

    # -- sealing step execution --------------------------------------------------

    def exec_step(self, step: SealingStep) -> StepRecord:
        """Apply one sealing step and record command, output, exit status.

        Failures come back as records with nonzero status, mirroring the
        continue-on-error behavior of a ``set -x`` shell script.
        """
        ram = self._require_on()
        handler = getattr(self, f"_step_{step.kind}", None)
        if handler is None:
            return StepRecord(step.command, f"unknown step kind {step.kind!r}", 127)
        try:
            output, status = handler(ram, step.args)
        except DiskFull as exc:
            return StepRecord(step.command, f"no space left on device: {exc}", 1)
        return StepRecord(command=step.command, output=output, exit_status=status)

    def _resolve_disk(self, target: str) -> EncryptedVolume:
        if target == "self":
            return self.root_volume
        if target == "vm":
            if self.nested_vm is None:
                raise MachineError("no nested VM attached")
            return self.nested_vm.root_volume
        raise MachineError(f"unknown disk target {target!r}")

    def _step_set_output_drop(self, ram, args):
        ram.firewall.output_policy = "DROP"
        return "", 0

    def _step_delete_input_rule(self, ram, args):
        index = args["index"]
        if not 1 <= index <= len(ram.firewall.input_rules):
            return "iptables: Index of deletion too big.", 1
        ram.firewall.input_rules.pop(index - 1)
        return "", 0

    def _step_list_rules_save(self, ram, args):
        return render_iptables_save(ram.firewall), 0

    def _step_list_rules_table(self, ram, args):
        lines = ["Chain INPUT (policy ACCEPT)"]
        lines.extend(ram.firewall.input_rules)
        lines.append(f"Chain OUTPUT (policy {ram.firewall.output_policy})")
        return "\n".join(lines) + "\n", 0

    def _step_show_file(self, ram, args):
        path = args["path"]
        view = self.full_view()
        if not view.is_file(path):
            return f"cat: {path}: No such file or directory", 1
        return view.read_file(path).decode(errors="replace"), 0

    def _step_remove_hosts_allow(self, ram, args):
        if not ram.tree.is_file("/etc/hosts.allow"):
            return "rm: cannot remove '/etc/hosts.allow': No such file or directory", 1
        self.remove_path("/etc/hosts.allow")
        ram.firewall.hosts_allow_present = False
        return "", 0

    def _step_purge_ssh(self, ram, args):
        if ram.services.ssh == "purged":
            return "Package 'openssh-server' is not installed, so not removed.", 0
        if ram.tree.exists("/usr/sbin/sshd"):
            self.remove_path("/usr/sbin/sshd")
        if ram.tree.exists("/etc/ssh"):
            self.remove_path("/etc/ssh")
        ram.services.ssh = "purged"
        ram.services.ssh_running = False
        return (
            "Reading package lists...\n"
            "Removing openssh-server ...\n"
            "Purging configuration files for openssh-server ..."
        ), 0

    def _step_service_status(self, ram, args):
        unit = args.get("unit", "sshd")
        if unit == "sshd":
            if ram.services.ssh == "purged":
                return f"Unit {unit}.service could not be found.", 4
            state = "active (running)" if ram.services.ssh_running else "inactive (dead)"
            return (
                f"* {unit}.service - OpenBSD Secure Shell server\n"
                f"   Active: {state}"
            ), 0 if ram.services.ssh_running else 3
        return f"Unit {unit}.service could not be found.", 4

    def _step_remove_user(self, ram, args):
        name = args["name"]
        if name not in ram.users:
            return f"userdel: user '{name}' does not exist", 1
        for path in ("/etc/passwd", "/etc/shadow", "/etc/group"):
            if ram.tree.is_file(path):
                kept = [
                    line for line in ram.tree.read_text(path).splitlines()
                    if not line.startswith(f"{name}:")
                ]
                ram.tree.write_file(path, ("\n".join(kept) + "\n").encode())
        self._sync_volume()
        del ram.users[name]
        return "", 0

    def _step_luks_erase(self, ram, args):
        disk = self._resolve_disk(args["target"])
        vol.erase_keyslots(disk)
        return "", 0

    def _step_luks_dump(self, ram, args):
        disk = self._resolve_disk(args["target"])
        return vol.dump(disk).render(), 0

    def _step_reencrypt_vm(self, ram, args):
        if self.nested_vm is None:
            return "cryptsetup-reencrypt: no such device", 1
        if self.nested_vm.is_on:
            return "cryptsetup-reencrypt: device is busy", 1
        vm = self.nested_vm
        try:
            keyfile = Keyfile(vm.boot_partition.read_file("/keyfile"))
            vol.reencrypt(vm.root_volume, keyfile)
        except (KeyslotsEmpty, NoMatchingSlot, vol.VolumeError) as exc:
            return f"cryptsetup-reencrypt: {exc}", 1
        return "Finished, reencryption complete.", 0

    def _step_zip_tree(self, ram, args):
        src = args["src"]
        view = self.full_view()
        if not view.exists(src):
            return f"zip error: nothing to do ({src} not found)", 12
        blob = zip_tree_bytes(view, src, self.clock.zip_date_time())
        member_lines = "\n".join(
            f"  adding: {p.lstrip('/')}" for p in view.under(src)
            if isinstance(view.node(p), FileNode)
        )
        dest = args["dest"]
        if dest == "vm_boot":
            if self.nested_vm is None:
                return "zip error: destination not mounted", 15
            self.nested_vm.boot_partition.write_file("/" + args["name"], blob)
        else:
            self.write_file(args["dest_path"], blob)
        return member_lines, 0

    def _step_list_files(self, ram, args):
        return render_listing(self.full_view()), 0

    def _step_hash_tree(self, ram, args):
        view = self.full_view()
        root = args["root"]
        if not view.exists(root):
            return f"rhash: {root}: No such file or directory", 1
        return "".join(hash_lines(view, root, args.get("recursive", True))).rstrip("\n"), 0

    def _step_copy_log_to_vm_boot(self, ram, args):
        if self.nested_vm is None:
            return "cp: cannot create regular file '/mnt': no medium", 1
        ram.publish_log_requested = True
        return "", 0

    def _step_move_from_boot(self, ram, args):
        name = args["name"]
        src = "/" + name
        if not self.boot_partition.is_file(src):
            return f"mv: cannot stat '/boot/{name}': No such file or directory", 1
        data = self.boot_partition.read_file(src)
        self.write_file(args["dest_dir"] + "/" + name, data)
        self.boot_partition.remove(src)
        return "", 0

    def _step_chown_webroot(self, ram, args):
        ram.services.webroot_owner = args.get("owner", "www-data")
        return "", 0

    def _step_ldap_dump(self, ram, args):
        replica_path = "/etc/ldap/directory.tsv"
        listing = ram.tree.read_text(replica_path) if ram.tree.is_file(replica_path) else ""
        text = f"{self.clock.stamp()}\n{listing}"
        self.append_text(args["dest"], text)
        return "", 0

    def _step_append_date(self, ram, args):
        self.append_text(args["path"], self.clock.stamp() + "\n")
        return "", 0

    def _step_send_mail(self, ram, args):
        body_path = args.get("body_path")
        body = ""
        if body_path and ram.tree.is_file(body_path):
            body = ram.tree.read_text(body_path)
        ram.services.mailer.append(
            MailMessage(to=args["to"], subject=args["subject"], body=body)
        )
        return "", 0

    def _step_start_vm(self, ram, args):
        if self.nested_vm is None:
            return f"error: failed to get domain '{args.get('name', '?')}'", 1
        ram.vm_start_requested = True
        return f"Domain '{args.get('name', self.nested_vm.name)}' started", 0

    def _step_start_web(self, ram, args):
        ram.services.web = "running"
        return "", 0


def full_tree_from_images(images: DiskImagePair) -> FileTree:
    """Decrypt and decode an image pair using the keyfile on its boot tree."""
    keyfile = Keyfile(images.boot.read_file("/keyfile"))
    handle = vol.unlock(images.root, keyfile)
    return FileTree.decode(vol.read_image(handle)).mount("/boot", images.boot)


# -- image directory layout -------------------------------------------------------


def save_images(images: DiskImagePair, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "boot.tree").write_bytes(images.boot.encode())
    (directory / "root.tsvol").write_bytes(vol.serialize_volume(images.root))
    for i, disk in enumerate(images.extras):
        (directory / f"extra{i}.tsvol").write_bytes(vol.serialize_volume(disk))


def load_images(directory: str | Path,
                rng: random.Random | None = None) -> DiskImagePair:
    directory = Path(directory)
    boot = FileTree.decode((directory / "boot.tree").read_bytes())
    root = vol.deserialize_volume((directory / "root.tsvol").read_bytes(), rng)
    extras = []
    for path in sorted(directory.glob("extra*.tsvol")):
        extras.append(vol.deserialize_volume(path.read_bytes(), rng))
    return DiskImagePair(boot=boot, root=root, extras=extras)
