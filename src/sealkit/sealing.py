"""Dual-stage sealing: build the server, run both sealing stages, publish.

The host stage erases the host's own keyslots and reencrypts the VM disk
under a fresh master key nobody knows; the VM stage then erases its own
keyslots. Each stage produces an ordered sealing log; the published bundle
is assembled from the VM webroot.

seal_all is a single sequential driver with no internal parallelism;
independent servers can be sealed in parallel workers.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from . import escrow as escrow_mod
from . import services as services_mod
from .config import ConfigError, ServerConfig
from .machine import (
    HOST,
    HOST_LOG_NAME,
    LDAP_DUMP_NAME,
    LDAP_REPLICA_PATH,
    SSH_DPORT,
    VM,
    VM_LOG_NAME,
    VM_ROOT_DEVICE_FROM_HOST,
    DiskImagePair,
    FirewallPolicy,
    Machine,
    SealingStep,
    Stage,
    StepRecord,
    passwd_line,
    provision,
    render_iptables_save,
)
from .tree import FileTree
from .util import SimClock

SealingPlan = dict[Stage, tuple[SealingStep, ...]]  # every stage of STAGES, in order
SealingLog = list[StepRecord]

REQUIRED_BUNDLE_ARTIFACTS = (
    HOST_LOG_NAME,
    VM_LOG_NAME,
    "etc-host.zip",
    "root-host.zip",
    "etc-vm.zip",
    "trust-vm.zip",
    LDAP_DUMP_NAME,
)


class ProtocolError(Exception):
    pass


class AlreadySealed(ProtocolError):
    pass


class WebrootIncomplete(ProtocolError):
    pass


class CriticalStepFailure(ProtocolError):
    def __init__(self, log: SealingLog, step: SealingStep, record: StepRecord):
        super().__init__(f"critical step failed: {step.command}: {record.output}")
        self.log = log
        self.step = step
        self.record = record


def render_log(log: SealingLog) -> str:
    """set -x style text: '+ <command>' then the raw output lines."""
    parts = []
    for record in log:
        parts.append(f"+ {record.command}\n")
        output = record.output.rstrip("\n")
        if output:
            parts.append(output + "\n")
    return "".join(parts)


# -- plan construction -------------------------------------------------------------


def _step(kind: str, command: str, critical: bool = False, **args) -> SealingStep:
    return SealingStep(kind=kind, command=command, args=args, critical=critical)


def _log_path(stage: Stage, config: ServerConfig) -> str:
    """Where the stage's sealing script writes its log."""
    return f"{stage.log_dir or config.webroot}/{stage.log_name}"


def _lockdown(stage: Stage) -> list[SealingStep]:
    """The steps both stages run before publishing anything: firewall, ssh
    purge, admin login removal and keyslot erase, each with its listing."""
    # iptables -D counts from 1; the rule table is the one the stage boots with
    index = next(i for i, rule in enumerate(stage.input_rules, start=1)
                 if SSH_DPORT in rule)
    return [
        _step("set_output_drop", "iptables -P OUTPUT DROP"),
        _step("delete_input_rule", f"iptables -D INPUT {index}", index=index),
        _step("list_rules_save", "iptables-save"),
        _step("list_rules_table", "iptables -L -n"),
        _step("show_file", "cat /etc/hosts.allow", path="/etc/hosts.allow"),
        _step("show_file", "cat /etc/hosts.deny", path="/etc/hosts.deny"),
        _step("purge_ssh", "apt-get -y purge openssh-server"),
        _step("service_status", "systemctl status sshd"),
        _step("remove_user", "userdel -f trust", name="trust"),
        *(_step("show_file", f"cat {path}", path=path) for path in stage.account_files),
        _step("luks_erase", f"cryptsetup luksErase {stage.root_device}", critical=True,
              target="self"),
        _step("luks_dump", f"cryptsetup luksDump {stage.root_device}", target="self"),
    ]


def _tree_evidence(config: ServerConfig) -> list[SealingStep]:
    """The full listing, then one rhash manifest per configured hash root."""
    steps = [_step("list_files", "ls -RlA /")]
    for spec in config.root_specs():
        if spec.recursive:
            steps.append(_step("hash_tree", f"rhash -r --sha3-512 {spec.path}",
                               root=spec.path, recursive=True))
        else:
            steps.append(_step("hash_tree", f"rhash --sha3-512 {spec.path}/*",
                               root=spec.path, recursive=False))
    return steps


def default_plan(config: ServerConfig) -> SealingPlan:
    w = config.webroot
    dump = f"{w}/{LDAP_DUMP_NAME}"

    host: list[SealingStep] = [
        *_lockdown(HOST),
        _step("luks_dump", f"cryptsetup luksDump {VM_ROOT_DEVICE_FROM_HOST}", target="vm"),
        _step("reencrypt_vm",
              f"cryptsetup-reencrypt -v -d /mnt/keyfile -l 512 {VM_ROOT_DEVICE_FROM_HOST}",
              critical=True),
        _step("luks_dump", f"cryptsetup luksDump {VM_ROOT_DEVICE_FROM_HOST}", target="vm"),
        _step("zip_tree", "zip -r /mnt/etc-host.zip /etc",
              src="/etc", dest="vm_boot", name="etc-host.zip"),
        _step("zip_tree", "zip -r /mnt/root-host.zip /root",
              src="/root", dest="vm_boot", name="root-host.zip"),
        *_tree_evidence(config),
        _step("copy_log_to_vm_boot", f"cp {_log_path(HOST, config)} /mnt"),
        _step("start_vm", f"virsh start {config.vm_name}", name=config.vm_name),
    ]

    vm: list[SealingStep] = [
        _step("remove_hosts_allow", "rm /etc/hosts.allow"),
        *_lockdown(VM),
        _step("move_from_boot", f"mv /boot/{HOST_LOG_NAME} {w}",
              name=HOST_LOG_NAME, dest_dir=w),
        _step("move_from_boot", f"mv /boot/etc-host.zip {w}",
              name="etc-host.zip", dest_dir=w),
        _step("move_from_boot", f"mv /boot/root-host.zip {w}",
              name="root-host.zip", dest_dir=w),
        _step("chown_webroot", "chown www-data:www-data /var/www"),
        _step("zip_tree", f"zip -r {w}/etc-vm.zip /etc",
              src="/etc", dest="tree", dest_path=f"{w}/etc-vm.zip"),
        _step("zip_tree", f"zip -r {w}/trust-vm.zip /home/trust",
              src="/home/trust", dest="tree", dest_path=f"{w}/trust-vm.zip"),
        _step("ldap_dump", f"date >> {dump} && slapcat >> {dump}", dest=dump),
        _step("chown_webroot", "chown -R www-data:www-data /var/www"),
        *_tree_evidence(config),
        _step("append_date", "echo $(date) >> /home/trust/date.txt",
              path="/home/trust/date.txt"),
        _step("start_web", "systemctl start apache2"),
        _step("send_mail",
              f'mail -s "trusted server running@{config.server_address}" '
              f"{config.mail_to} < /home/trust/date.txt",
              to=config.mail_to,
              subject=f"trusted server running@{config.server_address}",
              body_path="/home/trust/date.txt"),
    ]
    return {HOST: tuple(host), VM: tuple(vm)}


def single_stage_host_plan(config: ServerConfig) -> SealingPlan:
    """Host-only seal: keyslot erase without the VM reencryption stage."""
    host = [*_lockdown(HOST), *_tree_evidence(config)]
    return {HOST: tuple(host), VM: ()}


# -- server construction --------------------------------------------------------------


_COMMON_BINARIES = {
    "/bin/bash": b"#!ELF simulated bash binary\n",
    "/bin/ls": b"#!ELF simulated ls binary\n",
    "/bin/cat": b"#!ELF simulated cat binary\n",
    "/sbin/init": b"#!ELF simulated init binary\n",
    "/usr/sbin/cron": b"#!ELF simulated cron binary\n",
    "/usr/sbin/nologin": b"#!ELF simulated nologin binary\n",
    "/usr/sbin/sshd": b"#!ELF simulated sshd binary\n",
    "/usr/bin/env": b"#!ELF simulated env binary\n",
    "/usr/bin/python3": b"#!ELF simulated python3 binary\n",
    "/usr/lib/libc.so.6": b"#!ELF simulated libc\n",
    "/lib/ld-linux.so.2": b"#!ELF simulated loader\n",
    "/usr/share/doc/README": b"simulated documentation\n",
    "/var/log/syslog": b"",
}


def _base_tree(*, users: list[tuple[str, int, str]], rng: random.Random) -> FileTree:
    """Skeleton shared by host and VM: users, hosts files, binaries, hash roots."""
    tree = FileTree()
    for d in ("/etc", "/home", "/lib", "/root", "/sbin", "/srv", "/tmp",
              "/usr/bin", "/usr/lib", "/usr/local", "/usr/sbin", "/usr/share",
              "/var", "/media", "/mnt", "/opt"):
        tree.mkdir(d)

    passwd, shadow, group = [], [], []
    for name, uid, shell in users:
        home = "/root" if name == "root" else f"/home/{name}"
        passwd.append(passwd_line(name, uid, uid, name, home, shell))
        secret = "*" if shell.endswith("nologin") else f"$6${rng.randbytes(6).hex()}${rng.randbytes(16).hex()}"
        shadow.append(f"{name}:{secret}:18000:0:99999:7:::\n")
        group.append(f"{name}:x:{uid}:\n")
    tree.write_file("/etc/passwd", "".join(passwd).encode())
    tree.write_file("/etc/shadow", "".join(shadow).encode())
    tree.write_file("/etc/group", "".join(group).encode())

    tree.write_file("/etc/hosts.allow", b"sshd: 198.51.100.0/24\n")
    tree.write_file("/etc/hosts.deny", b"ALL: ALL\n")
    tree.write_file("/etc/ssh/sshd_config",
                    b"PermitRootLogin no\nPasswordAuthentication no\n")

    for path, data in _COMMON_BINARIES.items():
        tree.write_file(path, data)
    # recursive link as found on stock installs; manifests hash the target string
    tree.symlink("/usr/bin/X11", ".")
    return tree


def _render_script(title: str, commands: list[str]) -> bytes:
    lines = ["#!/bin/bash", "set -x", f"## {title}"]
    lines.extend(commands)
    return ("\n".join(lines) + "\n").encode()


def _boot_tree(stage: Stage) -> FileTree:
    tree = FileTree()
    tree.write_file("/initrd.img", f"initrd image ({stage.kind})\n".encode())
    tree.write_file("/vmlinuz", f"kernel image ({stage.kind})\n".encode())
    return tree


def _write_stage_files(tree: FileTree, stage: Stage, config: ServerConfig, hostname: str,
                       steps: tuple[SealingStep, ...], *setup: str) -> None:
    """Hostname, crontab, cron script (``setup`` first), sealing script and boot rules."""
    script = f"{stage.home}/{stage.script_name}"
    tree.write_file("/etc/hostname", f"{hostname}\n".encode())
    tree.write_file("/etc/crontab", f"@reboot root {stage.cron_script}\n".encode())
    tree.write_file(stage.cron_script, _render_script(f"cron-reboot {stage.kind}", [
        *setup,
        f"iptables-restore {stage.rules_file}",
        f"{script} > {_log_path(stage, config)} 2>&1",
    ]))
    tree.write_file(script, _render_script(f"{stage.kind} sealing", [s.command for s in steps]))
    tree.write_file(stage.rules_file, render_iptables_save(
        FirewallPolicy(input_rules=list(stage.input_rules))).encode())


def prepare_trusted_server(config: ServerConfig, *,
                           rng: random.Random, clock: SimClock) -> Machine:
    """Build the unsealed host+VM pair in its pre-seal production state."""
    plan = default_plan(config)

    host_tree = _base_tree(users=[("root", 0, "/usr/sbin/nologin"),
                                  ("trust", 1000, "/bin/bash")], rng=rng)
    host_tree.mkdir("/home/trust")
    host_tree.write_file("/home/trust/.bashrc", b"# trust shell profile\n")
    _write_stage_files(host_tree, HOST, config, "ts-host", plan[HOST],
                       "mount /dev/sdb1 /mnt")
    host_tree.write_file(
        "/root/host-secret.txt",
        f"host secret payload {rng.randbytes(16).hex()}\n".encode(),
    )

    vm_tree = _base_tree(users=[("root", 0, "/usr/sbin/nologin"),
                                ("www-data", 33, "/usr/sbin/nologin"),
                                ("trust", 1000, "/bin/bash")], rng=rng)
    vm_tree.mkdir(config.webroot)
    _write_stage_files(vm_tree, VM, config, config.vm_name, plan[VM])
    directory = services_mod.CredentialDirectory.from_users(config.ldap_users, rng)
    vm_tree.write_file(LDAP_REPLICA_PATH, directory.render().encode())
    vm_tree.mkdir("/srv/data")
    vm_tree.write_file(
        "/srv/data/vm-secret.txt",
        f"vm secret payload {rng.randbytes(16).hex()}\n".encode(),
    )

    host_images = provision(root_tree=host_tree, boot_tree=_boot_tree(HOST),
                            sector_count=config.host_sectors, rng=rng)
    vm_images = provision(root_tree=vm_tree, boot_tree=_boot_tree(VM),
                          sector_count=config.vm_sectors, rng=rng)
    host = server_from_images(host_images, vm_images, config, rng=rng, clock=clock)
    # Both stages hash every root over their full view; a missing root would
    # only surface as an unparseable rhash record when the bundle is verified.
    for machine, tree in ((host, host_tree), (host.nested_vm, vm_tree)):
        view = tree.mount("/boot", machine.boot_partition)
        for root in config.hash_roots:
            if not view.exists(root):
                raise ConfigError(f"hash root {root} does not exist on {machine.name} "
                                  f"(its root tree plus /boot)")
    # The verifier looks up each published file in the VM's post-seal manifest.
    w = config.webroot
    if not any(spec.path == w or spec.recursive and w.startswith(spec.path.rstrip("/") + "/")
               for spec in config.root_specs()):
        raise ConfigError(f"no hash root covers the webroot {w}, so no published "
                          f"file could be verified")
    return host


def server_from_images(host_images: DiskImagePair, vm_images: DiskImagePair,
                       config: ServerConfig, *, rng: random.Random,
                       clock: SimClock) -> Machine:
    """The host machine with the VM attached as ``nested_vm``, both on config.

    The machines take the disks without copying them.
    """
    host = Machine(stage=HOST, name="ts-host", images=host_images,
                   rng=rng, clock=clock, config=config)
    host.nested_vm = Machine(stage=VM, name=config.vm_name, images=vm_images,
                             rng=rng, clock=clock, config=config)
    return host


# -- stage drivers -----------------------------------------------------------------


def _run_stage(machine: Machine, plan: SealingPlan) -> SealingLog:
    """Run the machine's stage of the plan, then write its log where the
    stage's cron line sends it."""
    if not machine.is_on:
        raise ProtocolError(f"{machine.stage.kind} must be booted before sealing")
    log: SealingLog = []
    for step in plan[machine.stage]:
        record = machine.exec_step(step)
        log.append(record)
        if step.critical and not record.ok:
            raise CriticalStepFailure(log, step, record)
    machine.write_file(_log_path(machine.stage, machine.config), render_log(log).encode())
    return log


def seal_host(host: Machine, plan: SealingPlan) -> SealingLog:
    if host.nested_vm is not None and host.nested_vm.is_on:
        raise ProtocolError("nested VM must be powered off during the host stage")
    log = _run_stage(host, plan)
    if host.ram.publish_log_requested and host.nested_vm is not None:
        host.nested_vm.boot_partition.write_file(f"/{HOST_LOG_NAME}", render_log(log).encode())
    return log


def seal_vm(vm: Machine, plan: SealingPlan) -> SealingLog:
    return _run_stage(vm, plan)


def seal_all_with_escrow(host: Machine, escrow_parties: int,
                         plan: SealingPlan | None = None
                         ) -> tuple["PublishedBundle", list[escrow_mod.KeyShare]]:
    """Full dual-stage seal; split the VM's rewrapped key record into
    ``escrow_parties`` escrow shares, or none for 0.

    The escrow capture must happen between the two stages: after the host
    reencrypted the VM disk, before the VM erases its own keyslots.
    """
    if escrow_parties and escrow_parties < 2:  # refused before any step runs
        raise escrow_mod.EscrowError("need at least 2 parties")
    plan = default_plan(host.config) if plan is None else plan
    vm = host.nested_vm
    if vm is None:
        raise ProtocolError("host has no nested VM; run prepare first")
    if host.is_sealed or vm.is_sealed:
        raise AlreadySealed("server is already sealed")

    if not host.is_on:
        host.boot()
    seal_host(host, plan)

    shares: list[escrow_mod.KeyShare] = []
    if escrow_parties:
        payload = escrow_mod.wrapped_key_record(vm.root_volume)
        shares = escrow_mod.split_key(payload, escrow_parties, rng=host.rng)

    if not host.ram.vm_start_requested:
        raise ProtocolError("host plan finished without starting the VM")
    vm.boot()
    seal_vm(vm, plan)
    return publish_bundle(vm), shares


def seal_all(host: Machine, plan: SealingPlan | None = None) -> "PublishedBundle":
    bundle, _ = seal_all_with_escrow(host, 0, plan)
    return bundle


# -- the published bundle -------------------------------------------------------------


@dataclass
class PublishedBundle:
    """Everything the sealed server publishes for third-party verification."""

    artifacts: dict[str, bytes]

    def index_text(self) -> str:
        lines = [
            f"{hashlib.sha3_512(data).hexdigest()}  {name}\n"
            for name, data in sorted(self.artifacts.items())
        ]
        return "".join(lines)

    def index_digest(self, index_text: str | None = None) -> str:
        """SHA3-512 of the index; pass ``index_text`` if it is already at hand."""
        if index_text is None:
            index_text = self.index_text()
        return hashlib.sha3_512(index_text.encode()).hexdigest()

    def save(self, directory) -> str:
        """Write every artifact and ``index.txt``; return the index text written."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name, data in self.artifacts.items():
            (directory / name).write_bytes(data)
        index_text = self.index_text()
        (directory / "index.txt").write_text(index_text)
        return index_text

    @classmethod
    def load(cls, directory) -> "PublishedBundle":
        directory = Path(directory)
        artifacts = {
            p.name: p.read_bytes()
            for p in sorted(directory.iterdir())
            if p.is_file() and p.name != "index.txt"
        }
        return cls(artifacts=artifacts)


def publish_bundle(vm: Machine) -> PublishedBundle:
    if not vm.is_on or not vm.is_sealed:
        raise ProtocolError("bundle can only be published from a sealed, running VM")
    if not vm.ram.web_running:
        raise ProtocolError("web service is not running")

    webroot = vm.config.webroot
    tree = vm.ram.tree
    artifacts: dict[str, bytes] = {}
    if tree.is_dir(webroot):
        for path in tree.under(webroot):
            data = tree.file_bytes(path)
            if data is not None:
                artifacts[path[len(webroot) + 1:]] = data
    missing = [name for name in REQUIRED_BUNDLE_ARTIFACTS if name not in artifacts]
    if missing:
        raise WebrootIncomplete(f"webroot is missing: {', '.join(missing)}")
    return PublishedBundle(artifacts=dict(sorted(artifacts.items())))
