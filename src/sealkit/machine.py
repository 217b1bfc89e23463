"""Simulated host and VM machines.

A machine is an unencrypted boot partition (file tree holding the keyfile),
an encrypted root volume whose plaintext is the canonical encoding of the
root file tree, and volatile RAM state (unlocked handles, working tree,
runtime services/firewall). RAM state exists exactly while the machine is on:
powering off drops it, and the master key with it. A request or step that
changes the RAM tree writes it, sector by sector, to the root volume through
:meth:`Machine.commit`, once (``purge_ssh`` still commits twice). A
:class:`Stage` record, ``HOST`` or ``VM``, holds all that sets one machine
apart from the other: where its boot files live, the rules it boots with,
what its seal lists. :data:`STEP_KINDS` gives each sealing step kind its
executor and the paths a clean run of it may leave changed.

Each machine is single-threaded: the simulation advances only through
explicit operation calls, and a machine must never be shared mutably.
"""

from __future__ import annotations

import lzma
import posixpath
import random
import zipfile
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from io import BytesIO
from pathlib import Path
from typing import NamedTuple

from . import volume as vol
from .config import ServerConfig
from .manifest import hash_lines
from .tree import DirNode, FileNode, FileTree, SymlinkNode
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


@dataclass(frozen=True)
class Stage:
    """One sealing stage's machine: the host, or the VM it seals after."""

    kind: str  # "host" | "vm"
    root_device: str  # the root volume, as the stage's own commands name it
    home: str  # holds cron-reboot.sh, iptables.v4 and the sealing script
    script_name: str  # the sealing script, which the cron script runs
    log_name: str  # the file the sealing script logs to
    log_dir: str | None  # None: the config's webroot, which publishes the log
    input_rules: tuple[str, ...]  # the INPUT chain it boots with
    account_files: tuple[str, ...]  # listed once the admin login is gone

    @property
    def cron_script(self) -> str:
        return f"{self.home}/cron-reboot.sh"

    @property
    def rules_file(self) -> str:
        return f"{self.home}/iptables.v4"


def _input_rules(*tcp_ports: int) -> tuple[str, ...]:
    """An INPUT chain open to loopback, ping, established flows and these ports."""
    return ("-A INPUT -m state --state RELATED,ESTABLISHED -j ACCEPT",
            "-A INPUT -i lo -j ACCEPT",
            "-A INPUT -p icmp -j ACCEPT",
            *(f"-A INPUT -p tcp --dport {port} -j ACCEPT" for port in tcp_ports),
            "-A INPUT -j DROP")


HOST = Stage(kind="host", root_device="/dev/sda2", home="/root",
             script_name="init_trusted_mode_reboot.sh",
             log_name="0_init_trusted_mode_host.log", log_dir="/root",
             input_rules=_input_rules(22, 443),
             account_files=("/etc/passwd", "/etc/shadow"))
VM = Stage(kind="vm", root_device="/dev/vda2", home="/home/trust",
           script_name="init_trusted_mode.sh",
           log_name="1_init_trusted_mode.log", log_dir=None,
           input_rules=_input_rules(443, 22),
           account_files=("/etc/passwd", "/etc/group", "/etc/shadow"))
STAGES = (HOST, VM)  # in the order they seal

VM_ROOT_DEVICE_FROM_HOST = "/dev/sdb2"
SSHD = "/usr/sbin/sshd"
SSH_DPORT = "--dport 22"  # the match of the INPUT rule that admits ssh
_USER_DATABASES = ("/etc/passwd", "/etc/shadow", "/etc/group")  # userdel rewrites each
LDAP_REPLICA_PATH = "/etc/ldap/directory.tsv"  # the directory replica the VM serves
LDAP_DUMP_NAME = "ldap.txt"  # the replica's published user names, in the webroot
HOST_LOG_NAME = HOST.log_name
VM_LOG_NAME = VM.log_name


class MachineError(Exception):
    pass


class MachineRunning(MachineError):
    pass


class MachineNotRunning(MachineError):
    pass


class SealedAndCold(MachineError):
    """Boot impossible: keyslots erased and the master key left RAM."""


@dataclass
class MailMessage:
    to: str
    subject: str
    body: str
    return_address: str | None = None


@dataclass
class FirewallPolicy:
    input_rules: list[str] = field(default_factory=list)
    output_policy: str = "ACCEPT"


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


PathRule = Callable[[dict], list[tuple[str, str]]]


def _leaves(rule: PathRule):
    """Give a ``_step_<kind>`` executor its allowlist rule: from the step's args,
    the ``("change" | "add" | "remove", path glob)`` pairs a clean run may leave."""
    def mark(executor):
        executor.leaves = rule
        return executor
    return mark


@dataclass
class RamState:
    handle: UnlockedVolume
    tree: FileTree  # sshd counts as installed while SSHD is a regular file in it
    firewall: FirewallPolicy
    content: bytes  # the root volume's plaintext is this, then zeros to capacity
    web_running: bool = False
    mailer: list[MailMessage] = field(default_factory=list)
    vault_handles: list[UnlockedVolume] = field(default_factory=list)
    vm_start_requested: bool = False
    publish_log_requested: bool = False


@dataclass
class DiskImagePair:
    """One machine's disks (boot + root [+ extras]); a snapshot is a deep copy."""

    boot: FileTree
    root: EncryptedVolume
    extras: list[EncryptedVolume] = field(default_factory=list)

    def copy(self) -> "DiskImagePair":
        return DiskImagePair(
            boot=self.boot.copy(),
            root=self.root.copy(),
            extras=[v.copy() for v in self.extras],
        )


def format_tree_volume(tree: FileTree, sector_count: int,
                       rng: random.Random) -> tuple[EncryptedVolume, Keyfile]:
    """A fresh volume holding the tree, under a fresh keyfile; no handle stays open."""
    keyfile = Keyfile.generate(rng)
    handle = vol.format_volume(sector_count, keyfile, rng=rng, image=tree.encode())
    handle.invalidate()
    return handle.volume, keyfile


KEYFILE_PATH = "/keyfile"  # on the boot tree, which is not encrypted


def boot_keyfile(boot: FileTree) -> Keyfile:
    """The keyfile that unlocks the root volume, as the boot tree holds it."""
    return Keyfile(boot.read_file(KEYFILE_PATH))


def provision(*, root_tree: FileTree, boot_tree: FileTree, sector_count: int,
              rng: random.Random) -> DiskImagePair:
    """Format a root volume holding the tree; the keyfile goes on the boot tree."""
    root, keyfile = format_tree_volume(root_tree, sector_count, rng)
    boot_tree.write_file(KEYFILE_PATH, keyfile.data)
    return DiskImagePair(boot=boot_tree, root=root)


# -- passwd / iptables file helpers ---------------------------------------------


def passwd_line(name: str, uid: int, gid: int, gecos: str, home: str, shell: str) -> str:
    return f"{name}:x:{uid}:{gid}:{gecos}:{home}:{shell}\n"


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


def parse_iptables_save(text: str) -> FirewallPolicy:
    fw = FirewallPolicy()
    for line in text.splitlines():
        if line.startswith(":OUTPUT"):
            fw.output_policy = " ".join(line.split()[1:2])  # "" for a line naming none
        elif line.startswith("-A INPUT"):
            fw.input_rules.append(line)
    return fw


def render_rule_listing(fw: FirewallPolicy) -> str:
    """``iptables -L -n``: the INPUT rules, then the OUTPUT policy."""
    return "\n".join(["Chain INPUT (policy ACCEPT)", *fw.input_rules,
                      f"Chain OUTPUT (policy {fw.output_policy})"]) + "\n"


def directory_record(user: str, salt: bytes, verifier: bytes) -> str:
    """One line of the directory replica: ``user:salt:verifier``, both in hex."""
    return f"{user}:{salt.hex()}:{verifier.hex()}\n"


def parse_directory_records(text: str) -> list[tuple[str, bytes, bytes]]:
    """(user, salt, verifier) of each non-blank line of a directory replica."""
    records = []
    for line in text.splitlines():
        if line.strip():
            user, salt, verifier = line.split(":")
            records.append((user, bytes.fromhex(salt), bytes.fromhex(verifier)))
    return records


def directory_dump(tree: FileTree, clock: SimClock) -> str:
    """A time stamp line, then the replica's user names, one a line: unlike
    slapcat, the dump publishes no salt or verifier."""
    replica = (tree.file_bytes(LDAP_REPLICA_PATH) or b"").decode()
    names = "".join(f"{user}\n" for user, _, _ in parse_directory_records(replica))
    return f"{clock.stamp()}\n{names}"


def render_listing(tree: FileTree) -> str:
    """ls -RlA style recursive listing of a tree view, in one pass: a directory
    sorts before its children, and ``/`` is its own parent, so it lists itself."""
    entries: dict[str, list[str]] = {}
    for path in tree.paths():
        node = tree.node(path)
        if isinstance(node, DirNode):
            entries[path] = [f"{path}:"]
        name = path.rsplit("/", 1)[-1]
        if isinstance(node, FileNode):
            line = f"  -rw-r--r-- {len(node.data):>8} {name}"
        elif isinstance(node, SymlinkNode):
            line = f"  lrwxrwxrwx        0 {name} -> {node.target}"
        else:
            line = f"  drwxr-xr-x        - {name}/"
        siblings = entries.get(posixpath.dirname(path))
        if siblings is not None:  # a decoded tree may hold a path whose parent it lacks
            siblings.append(line)
    return "\n".join(line for lines in entries.values() for line in lines) + "\n"


def zip_tree_bytes(tree: FileTree, root: str,
                   date_time: tuple[int, int, int, int, int, int]) -> tuple[bytes, list[str]]:
    """Deterministic zip of all regular files under root, and its member names (sans leading /)."""
    buf = BytesIO()
    names = []
    with zipfile.ZipFile(buf, "w") as zf:
        for path in tree.under(root):
            node = tree.node(path)
            if isinstance(node, FileNode):
                names.append(path.lstrip("/"))
                info = zipfile.ZipInfo(filename=names[-1], date_time=date_time)
                info.external_attr = 0o644 << 16
                zf.writestr(info, node.data)
    return buf.getvalue(), names


# What reading a corrupt archive raises. zipfile takes each member's compression
# method from the central directory alone, so a rewritten method field hands the
# stored bytes to another decompressor: OSError is bzip2's invalid data stream,
# lzma.LZMAError an LZMA stream whose properties do not parse, zlib.error a bad
# deflate stream, NotImplementedError an unknown method or zip version.
# RuntimeError is a member flagged as encrypted, ValueError a bad seek or a
# member name that is not UTF-8. The set was checked by setting every header
# byte of the four archives of a seal built with the tests' SMALL config to
# each of its 256 values, and the first data bytes under each of the stored,
# deflate, bzip2 and LZMA methods; seeded random mutations alone had missed the
# bzip2 and LZMA cases.
ZIP_READ_ERRORS = (zipfile.BadZipFile, zlib.error, lzma.LZMAError, OSError, EOFError,
                   NotImplementedError, RuntimeError, ValueError)


def unzip_to_map(blob: bytes) -> dict[str, bytes]:
    """Every member of a zip archive by absolute path; a corrupt archive raises
    one of :data:`ZIP_READ_ERRORS`."""
    with zipfile.ZipFile(BytesIO(blob)) as zf:
        return {"/" + name: zf.read(name) for name in zf.namelist()}


# -- the machine -----------------------------------------------------------------


class Machine:
    def __init__(self, *, stage: Stage, name: str, images: DiskImagePair,
                 rng: random.Random, clock: SimClock, config: ServerConfig):
        self.stage = stage
        self.name = name
        self.rng = rng
        self.clock = clock
        self.config = config
        self.ram: RamState | None = None
        self.nested_vm: Machine | None = None
        self._install(images)

    def _install(self, images: DiskImagePair) -> None:
        """Take the disks as they are; their nonces come from this machine's RNG."""
        self.boot_partition = images.boot
        self.root_volume = images.root
        self.extra_disks = images.extras
        for disk in (self.root_volume, *self.extra_disks):
            disk.rng = self.rng

    # -- power --------------------------------------------------------------

    @property
    def is_on(self) -> bool:
        return self.ram is not None

    @property
    def is_sealed(self) -> bool:
        return not self.root_volume.header.active_slots()

    def boot(self) -> None:
        if self.is_on:
            raise MachineRunning(f"{self.name} is already powered on")
        try:
            handle = vol.unlock(self.root_volume, boot_keyfile(self.boot_partition))
        except (KeyslotsEmpty, NoMatchingSlot) as exc:
            raise SealedAndCold(
                f"{self.name}: root volume cannot be unlocked ({exc})"
            ) from exc

        tree, image = read_volume_tree(handle)
        content = bytes(image.rstrip(b"\x00"))

        rules = tree.file_bytes(self.stage.rules_file)
        firewall = FirewallPolicy() if rules is None else parse_iptables_save(rules.decode())

        self.ram = RamState(handle=handle, tree=tree, firewall=firewall, content=content)

    def power_off(self) -> None:
        """Clear RAM: the master key vanishes, all handles go stale."""
        if self.ram is not None:
            self.ram.handle.invalidate()
            for h in self.ram.vault_handles:
                h.invalidate()
        self.ram = None
        if self.nested_vm is not None:
            self.nested_vm.power_off()

    def _require_on(self) -> RamState:
        if self.ram is None:
            raise MachineNotRunning(f"{self.name} is powered off")
        return self.ram

    # -- the commit: the one path from the RAM tree to the root volume ---------

    def commit(self) -> None:
        """Write the RAM tree through to the root volume, once per request or step.
        A tree that does not fit raises ``DiskFull`` before any sector is
        written, and the RAM tree goes back to the last commit."""
        ram = self._require_on()
        content = ram.tree.encode()
        try:
            vol.write_image(ram.handle, content, ram.content)
        except DiskFull:
            capacity = ram.handle.volume.sector_count * vol.SECTOR_BYTES
            ram.tree = FileTree.decode(ram.content, capacity)
            raise
        ram.content = content

    def write_file(self, path: str, data: bytes) -> None:
        self._require_on().tree.write_file(path, data)
        self.commit()

    def append_text(self, path: str, text: str) -> None:
        self._require_on().tree.append_text(path, text)
        self.commit()

    def remove_path(self, path: str) -> None:
        self._require_on().tree.remove(path)
        self.commit()

    def full_view(self) -> FileTree:
        """Root tree with the boot partition mounted at /boot."""
        ram = self._require_on()
        return ram.tree.mount("/boot", self.boot_partition)

    # -- snapshot / restore ----------------------------------------------------

    def snapshot_image(self) -> DiskImagePair:
        if self.is_on:
            raise MachineRunning(f"{self.name} must be powered off for imaging")
        return DiskImagePair(boot=self.boot_partition, root=self.root_volume,
                             extras=self.extra_disks).copy()

    def restore_image(self, images: DiskImagePair) -> None:
        if self.is_on:
            raise MachineRunning(f"{self.name} must be powered off for restore")
        if images.root.sector_count != self.root_volume.sector_count:
            raise GeometryMismatch(
                f"image has {images.root.sector_count} sectors, "
                f"machine disk has {self.root_volume.sector_count}"
            )
        self._install(images.copy())

    # -- sealing step execution --------------------------------------------------

    def exec_step(self, step: SealingStep) -> StepRecord:
        """Apply one sealing step and record command, output, exit status.

        Failures come back as records with nonzero status, mirroring the
        continue-on-error behavior of a ``set -x`` shell script. Plans are
        built in code, so a kind missing from :data:`STEP_KINDS` raises KeyError.
        """
        ram = self._require_on()
        try:
            output, status = STEP_KINDS[step.kind].run(self, ram, step.args)
        except DiskFull as exc:
            return StepRecord(step.command, f"no space left on device: {exc}", 1)
        return StepRecord(command=step.command, output=output, exit_status=status)

    def _resolve_disk(self, target: str) -> EncryptedVolume | None:
        """This machine's root volume (``"self"``) or its VM's (``"vm"``); None with no VM."""
        if target == "self":
            return self.root_volume
        return self.nested_vm and self.nested_vm.root_volume

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
        return render_rule_listing(ram.firewall), 0

    def _step_show_file(self, ram, args):
        path = args["path"]
        data = self.full_view().file_bytes(path)
        if data is None:
            return f"cat: {path}: No such file or directory", 1
        return data.decode(errors="replace"), 0

    @_leaves(lambda args: [("remove", "/etc/hosts.allow")])
    def _step_remove_hosts_allow(self, ram, args):
        if not ram.tree.is_file("/etc/hosts.allow"):
            return "rm: cannot remove '/etc/hosts.allow': No such file or directory", 1
        self.remove_path("/etc/hosts.allow")
        return "", 0

    @_leaves(lambda args: [("remove", SSHD), ("remove", "/etc/ssh/*")])
    def _step_purge_ssh(self, ram, args):
        if not ram.tree.is_file(SSHD):
            return "Package 'openssh-server' is not installed, so not removed.", 0
        self.remove_path(SSHD)
        if ram.tree.exists("/etc/ssh"):
            self.remove_path("/etc/ssh")
        return (
            "Reading package lists...\n"
            "Removing openssh-server ...\n"
            "Purging configuration files for openssh-server ..."
        ), 0

    def _step_service_status(self, ram, args):
        if not ram.tree.is_file(SSHD):
            return "Unit sshd.service could not be found.", 4
        return (
            "* sshd.service - OpenBSD Secure Shell server\n"
            "   Active: active (running)"
        ), 0

    @_leaves(lambda args: [("change", path) for path in _USER_DATABASES])
    def _step_remove_user(self, ram, args):
        name = args["name"]
        passwd = ram.tree.file_bytes("/etc/passwd") or b""
        if not any(line.startswith(f"{name}:") for line in passwd.decode().splitlines()):
            return f"userdel: user '{name}' does not exist", 1
        for path in _USER_DATABASES:
            data = ram.tree.file_bytes(path)
            if data is not None:
                kept = [
                    line for line in data.decode().splitlines()
                    if not line.startswith(f"{name}:")
                ]
                ram.tree.write_file(path, ("\n".join(kept) + "\n").encode())
        self.commit()
        return "", 0

    def _step_luks_erase(self, ram, args):
        disk = self._resolve_disk(args["target"])
        if disk is None:
            return "cryptsetup: no such device", 1
        vol.erase_keyslots(disk)
        return "", 0

    def _step_luks_dump(self, ram, args):
        disk = self._resolve_disk(args["target"])
        if disk is None:
            return "cryptsetup: no such device", 1
        return vol.dump(disk), 0

    def _step_reencrypt_vm(self, ram, args):
        if self.nested_vm is None:
            return "cryptsetup-reencrypt: no such device", 1
        if self.nested_vm.is_on:
            return "cryptsetup-reencrypt: device is busy", 1
        vm = self.nested_vm
        try:
            vol.reencrypt(vm.root_volume, boot_keyfile(vm.boot_partition))
        except (KeyslotsEmpty, NoMatchingSlot, vol.VolumeError) as exc:
            return f"cryptsetup-reencrypt: {exc}", 1
        return "Finished, reencryption complete.", 0

    @_leaves(lambda args: [("add", args["dest_path"])] if args["dest"] == "tree" else [])
    def _step_zip_tree(self, ram, args):
        src = args["src"]
        view = self.full_view()
        if not view.exists(src):
            return f"zip error: nothing to do ({src} not found)", 12
        blob, names = zip_tree_bytes(view, src, self.clock.zip_date_time())
        dest = args["dest"]
        if dest == "vm_boot":
            if self.nested_vm is None:
                return "zip error: destination not mounted", 15
            self.nested_vm.boot_partition.write_file("/" + args["name"], blob)
        else:
            self.write_file(args["dest_path"], blob)
        return "\n".join(f"  adding: {name}" for name in names), 0

    def _step_list_files(self, ram, args):
        return render_listing(self.full_view()), 0

    def _step_hash_tree(self, ram, args):
        view = self.full_view()
        root = args["root"]
        if not view.exists(root):
            return f"rhash: {root}: No such file or directory", 1
        return "".join(hash_lines(view, root, args["recursive"])).rstrip("\n"), 0

    def _step_copy_log_to_vm_boot(self, ram, args):
        if self.nested_vm is None:
            return "cp: cannot create regular file '/mnt': no medium", 1
        ram.publish_log_requested = True
        return "", 0

    @_leaves(lambda args: [("add", args["dest_dir"] + "/*")])
    def _step_move_from_boot(self, ram, args):
        name = args["name"]
        src = "/" + name
        data = self.boot_partition.file_bytes(src)
        if data is None:
            return f"mv: cannot stat '/boot/{name}': No such file or directory", 1
        self.write_file(args["dest_dir"] + "/" + name, data)
        self.boot_partition.remove(src)
        return "", 0

    def _step_chown_webroot(self, ram, args):
        return "", 0

    @_leaves(lambda args: [("add", args["dest"])])
    def _step_ldap_dump(self, ram, args):
        self.append_text(args["dest"], directory_dump(ram.tree, self.clock))
        return "", 0

    @_leaves(lambda args: [("add", args["path"])])
    def _step_append_date(self, ram, args):
        self.append_text(args["path"], self.clock.stamp() + "\n")
        return "", 0

    def _step_send_mail(self, ram, args):
        body = ram.tree.file_bytes(args["body_path"]) or b""
        ram.mailer.append(
            MailMessage(to=args["to"], subject=args["subject"], body=body.decode())
        )
        return "", 0

    def _step_start_vm(self, ram, args):
        if self.nested_vm is None:
            return f"error: failed to get domain '{args['name']}'", 1
        ram.vm_start_requested = True
        return f"Domain '{args['name']}' started", 0

    def _step_start_web(self, ram, args):
        ram.web_running = True
        return "", 0


class StepKind(NamedTuple):
    run: Callable  # (machine, ram, args) -> (output, exit status)
    leaves: PathRule


# Every step kind a plan may use: Machine's ``_step_<kind>`` executor and the
# allowlist rule it carries (a step without one leaves no path changed).
STEP_KINDS: dict[str, StepKind] = {
    name.removeprefix("_step_"): StepKind(run, getattr(run, "leaves", lambda args: []))
    for name, run in vars(Machine).items() if name.startswith("_step_")
}


def read_volume_tree(handle: UnlockedVolume) -> tuple[FileTree, bytearray]:
    """Decrypt every sector of a volume and decode the tree it holds.

    Also returns the image through its last non-zero sector
    (:func:`volume.read_image`); the decoder reads the zeros after it up to
    the volume's capacity.
    """
    image = vol.read_image(handle)
    return FileTree.decode(image, handle.volume.sector_count * vol.SECTOR_BYTES), image


def full_tree_from_images(images: DiskImagePair) -> FileTree:
    """Decrypt and decode an image pair using the keyfile on its boot tree."""
    handle = vol.unlock(images.root, boot_keyfile(images.boot))
    return read_volume_tree(handle)[0].mount("/boot", images.boot)


# -- image directory layout -------------------------------------------------------


def save_images(images: DiskImagePair, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "boot.tree").write_bytes(images.boot.encode())
    disks = {"root": images.root, **{f"extra{i}": d for i, d in enumerate(images.extras)}}
    for name, disk in disks.items():
        with open(directory / f"{name}.tsvol", "wb") as f:
            f.writelines(vol.serialize_volume(disk))
    # load_images reads extras until one is missing: drop those an earlier save left
    stale = len(images.extras)
    while (path := directory / f"extra{stale}.tsvol").exists():
        path.unlink()
        stale += 1


def _load_volume(path: Path) -> EncryptedVolume:
    with open(path, "rb") as f:
        return vol.deserialize_volume(f)


def load_images(directory: str | Path) -> DiskImagePair:
    directory = Path(directory)
    boot = FileTree.decode((directory / "boot.tree").read_bytes())
    root = _load_volume(directory / "root.tsvol")
    extras: list[EncryptedVolume] = []  # extra{i}.tsvol in index order, not glob order
    while (path := directory / f"extra{len(extras)}.tsvol").exists():
        extras.append(_load_volume(path))
    return DiskImagePair(boot=boot, root=root, extras=extras)
