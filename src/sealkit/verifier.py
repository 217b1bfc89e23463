"""Third-party verification of a published sealed state.

Everything here is a pure function over the pre-seal disk images, the
published bundle, and an explicit allowlist policy. Manipulations confined
to volatile state that no hash root or logged listing covers are outside
what manifests can see; the verdict preamble says so.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field

from .escrow import SHARE_MAGIC
from .machine import (
    DiskImagePair,
    HOST_ROOT_DEVICE,
    LOGIN_SHELLS,
    StepRecord,
    VM_ROOT_DEVICE,
    full_tree_from_images,
    unzip_to_map,
)
from .manifest import (
    Manifest,
    ManifestDiff,
    RootSpec,
    compute_manifest,
    diff_manifests,
    manifest_from_lines,
)
from .sealing import (
    HOST_LOG_NAME,
    PublishedBundle,
    SealingLog,
    SealingPlan,
    VM_LOG_NAME,
)

UNDETECTABLE_NOTE = (
    "Scope: manipulations that touch hashed trees or logged evidence are "
    "detected; manipulations confined to unhashed volatile state are "
    "undetectable by manifest comparison."
)

_ARCHIVE_SOURCES = (
    ("etc-host.zip", "host", "/etc"),
    ("root-host.zip", "host", "/root"),
    ("etc-vm.zip", "vm", "/etc"),
    ("trust-vm.zip", "vm", "/home/trust"),
)


class VerifierError(Exception):
    pass


class MalformedLog(VerifierError):
    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class MalformedBundle(VerifierError):
    pass


@dataclass(frozen=True)
class Finding:
    severity: str  # "ERROR" | "WARNING" | "INFO"
    subject: str  # path or step
    explanation: str

    def render(self) -> str:
        return f"{self.severity} {self.subject}: {self.explanation}"


@dataclass
class Verdict:
    status: str  # "PASS" | "FAIL"
    findings: list[Finding] = field(default_factory=list)
    preamble: str = UNDETECTABLE_NOTE

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "ERROR"]

    def render_text(self) -> str:
        lines = [f"VERDICT: {self.status}", self.preamble]
        lines.extend(f.render() for f in self.findings)
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "preamble": self.preamble,
            "findings": [
                {"severity": f.severity, "subject": f.subject,
                 "explanation": f.explanation}
                for f in self.findings
            ],
        }


# -- sealing log parsing ---------------------------------------------------------


def parse_sealing_log(text: str, stage: str = "unknown") -> SealingLog:
    """Parse '+ command' / output text back into structured records."""
    records: list[StepRecord] = []
    command: str | None = None
    output_lines: list[str] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("+ "):
            if command is not None:
                records.append(StepRecord(command, "\n".join(output_lines)))
            command = line[2:]
            output_lines = []
        else:
            if command is None:
                if line.strip():
                    raise MalformedLog(f"output before any command: {line!r}", lineno)
                continue
            output_lines.append(line)
    if command is not None:
        records.append(StepRecord(command, "\n".join(output_lines)))
    if not records:
        raise MalformedLog("no '+ command' records found", 1)
    return SealingLog(stage=stage, records=records)


# -- evidence extraction -----------------------------------------------------------


@dataclass(frozen=True)
class DumpEvidence:
    command: str
    uuid: str
    mk_digest: str
    slot_states: tuple[str, ...]

    @property
    def all_empty(self) -> bool:
        return bool(self.slot_states) and all(s == "EMPTY" for s in self.slot_states)


@dataclass
class LogEvidence:
    dumps: list[DumpEvidence] = field(default_factory=list)
    erased_devices: list[str] = field(default_factory=list)
    passwd_listings: list[list[str]] = field(default_factory=list)
    purge_seen: bool = False
    ssh_status_outputs: list[str] = field(default_factory=list)
    manifest: Manifest = Manifest(entries=())

    def last_dump_for(self, device: str) -> DumpEvidence | None:
        matches = [d for d in self.dumps if d.command.endswith(device)]
        return matches[-1] if matches else None


def _parse_dump_output(command: str, output: str) -> DumpEvidence:
    uuid = digest = ""
    states = []
    for line in output.splitlines():
        if line.startswith("UUID:"):
            uuid = line.split(":", 1)[1].strip()
        elif line.startswith("MK digest:"):
            digest = line.split(":", 1)[1].strip()
        elif line.startswith("Key Slot "):
            states.append(line.split(":", 1)[1].strip())
    return DumpEvidence(command=command, uuid=uuid, mk_digest=digest,
                        slot_states=tuple(states))


def extract_evidence(log: SealingLog) -> LogEvidence:
    evidence = LogEvidence()
    manifest_lines: list[str] = []
    for record in log.records:
        cmd = record.command
        if cmd.startswith("cryptsetup luksDump"):
            evidence.dumps.append(_parse_dump_output(cmd, record.output))
        elif cmd.startswith("cryptsetup luksErase"):
            evidence.erased_devices.append(cmd.rsplit(" ", 1)[-1])
        elif cmd == "cat /etc/passwd":
            evidence.passwd_listings.append(
                [l for l in record.output.splitlines() if l.strip()]
            )
        elif cmd.startswith("apt-get -y purge openssh-server"):
            evidence.purge_seen = True
        elif cmd.startswith("systemctl status sshd"):
            evidence.ssh_status_outputs.append(record.output)
        elif cmd.startswith("rhash"):
            manifest_lines.extend(record.output.splitlines())
    evidence.manifest = manifest_from_lines(manifest_lines)
    return evidence


def login_users_in_listing(lines: list[str]) -> list[str]:
    users = []
    for line in lines:
        fields = line.split(":")
        if len(fields) >= 7 and fields[-1] in LOGIN_SHELLS:
            users.append(fields[0])
    return users


# -- allowlist policy --------------------------------------------------------------


@dataclass(frozen=True)
class AllowlistPolicy:
    """Path globs a clean seal is expected to change/add/remove, plus the
    step sequences the logs must replay."""

    may_change: tuple[str, ...] = ()
    may_add: tuple[str, ...] = ()
    may_remove: tuple[str, ...] = ()
    expected_host_commands: tuple[str, ...] = ()
    expected_vm_commands: tuple[str, ...] = ()
    hash_roots: tuple[RootSpec, ...] = ()

    def allows(self, kind: str, path: str) -> bool:
        patterns = {
            "change": self.may_change,
            "add": self.may_add,
            "remove": self.may_remove,
        }[kind]
        return any(fnmatch.fnmatchcase(path, pattern) for pattern in patterns)

    def to_dict(self) -> dict:
        return {
            "may_change": list(self.may_change),
            "may_add": list(self.may_add),
            "may_remove": list(self.may_remove),
            "hash_roots": [
                {"path": r.path, "recursive": r.recursive} for r in self.hash_roots
            ],
        }


def default_policy(plan: SealingPlan) -> AllowlistPolicy:
    """Derive the allowlist mechanically from the plan's mutating steps."""
    may_change: set[str] = set()
    may_add: set[str] = set()
    may_remove: set[str] = set()
    roots: list[RootSpec] = []
    seen_roots: set[str] = set()

    for step in (*plan.host_steps, *plan.vm_steps):
        if step.kind == "remove_user":
            may_change.update(("/etc/passwd", "/etc/shadow", "/etc/group"))
        elif step.kind == "purge_ssh":
            may_remove.update(("/usr/sbin/sshd", "/etc/ssh/*"))
        elif step.kind == "remove_hosts_allow":
            may_remove.add("/etc/hosts.allow")
        elif step.kind == "move_from_boot":
            may_add.add(step.args["dest_dir"] + "/*")
        elif step.kind == "zip_tree" and step.args.get("dest") == "tree":
            may_add.add(step.args["dest_path"])
        elif step.kind == "ldap_dump":
            may_add.add(step.args["dest"])
        elif step.kind == "append_date":
            may_add.add(step.args["path"])
        elif step.kind == "hash_tree":
            root = step.args["root"]
            if root not in seen_roots:
                seen_roots.add(root)
                roots.append(RootSpec(root, step.args.get("recursive", True)))

    return AllowlistPolicy(
        may_change=tuple(sorted(may_change)),
        may_add=tuple(sorted(may_add)),
        may_remove=tuple(sorted(may_remove)),
        expected_host_commands=tuple(s.command for s in plan.host_steps),
        expected_vm_commands=tuple(s.command for s in plan.vm_steps),
        hash_roots=tuple(roots),
    )


# -- the verification procedure ------------------------------------------------------


def _check_step_sequence(stage: str, expected: tuple[str, ...],
                         log: SealingLog, findings: list[Finding]) -> None:
    log_commands = log.commands()
    cursor = 0
    for command in expected:
        try:
            cursor = log_commands.index(command, cursor) + 1
        except ValueError:
            critical = command.startswith(("cryptsetup luksErase", "cryptsetup-reencrypt"))
            label = "missing critical step" if critical else "missing or out-of-order step"
            findings.append(Finding("ERROR", command, f"{label} in {stage} log"))
    for command in set(expected):
        if log_commands.count(command) > expected.count(command):
            findings.append(Finding(
                "WARNING", command,
                f"appears more often in the {stage} log than the plan requires",
            ))


def _check_dump_evidence(stage: str, device: str, evidence: LogEvidence,
                         findings: list[Finding]) -> None:
    dump = evidence.last_dump_for(device)
    if dump is None:
        findings.append(Finding(
            "ERROR", f"cryptsetup luksDump {device}",
            f"{stage} log carries no keyslot dump for {device}",
        ))
        return
    if not dump.all_empty:
        active = [i for i, s in enumerate(dump.slot_states) if s != "EMPTY"]
        findings.append(Finding(
            "ERROR", device,
            f"keyslots {active} still active after the {stage} seal",
        ))


def _check_passwd_evidence(stage: str, evidence: LogEvidence,
                           findings: list[Finding]) -> None:
    if not evidence.passwd_listings:
        findings.append(Finding(
            "ERROR", "cat /etc/passwd", f"{stage} log carries no passwd listing"
        ))
        return
    login_users = login_users_in_listing(evidence.passwd_listings[-1])
    for user in login_users:
        findings.append(Finding(
            "ERROR", user, f"login-capable user survived the {stage} seal"
        ))


def _check_ssh_evidence(stage: str, evidence: LogEvidence,
                        findings: list[Finding]) -> None:
    if not evidence.purge_seen:
        findings.append(Finding(
            "ERROR", "apt-get -y purge openssh-server",
            f"{stage} log carries no ssh purge step",
        ))
        return
    if not evidence.ssh_status_outputs:
        findings.append(Finding(
            "ERROR", "systemctl status sshd",
            f"{stage} log carries no ssh status probe",
        ))
        return
    if "could not be found" not in evidence.ssh_status_outputs[-1]:
        findings.append(Finding(
            "ERROR", "sshd", f"ssh server still present after the {stage} seal"
        ))


def _check_manifest_diff(stage: str, diff: ManifestDiff, policy: AllowlistPolicy,
                         findings: list[Finding]) -> None:
    for path in sorted(diff.changed):
        if not policy.allows("change", path):
            findings.append(Finding(
                "ERROR", path, f"content changed across the {stage} seal"
            ))
    for path in sorted(diff.added):
        if not policy.allows("add", path):
            findings.append(Finding(
                "ERROR", path, f"appeared during the {stage} seal"
            ))
    for path in sorted(diff.removed):
        if not policy.allows("remove", path):
            findings.append(Finding(
                "ERROR", path, f"disappeared during the {stage} seal"
            ))


def _check_archive(stage: str, name: str, blob: bytes, src_root: str,
                   pre_tree, policy: AllowlistPolicy,
                   findings: list[Finding]) -> None:
    try:
        members = unzip_to_map(blob)
    except Exception:
        findings.append(Finding("ERROR", name, "archive cannot be read"))
        return
    pre_files = {
        p: pre_tree.read_file(p)
        for p in pre_tree.under(src_root)
        if pre_tree.is_file(p)
    }
    for path, data in members.items():
        if path not in pre_files:
            if not policy.allows("add", path):
                findings.append(Finding(
                    "ERROR", path, f"{name} contains a file absent from the pre-seal image"
                ))
        elif pre_files[path] != data:
            if not policy.allows("change", path):
                findings.append(Finding(
                    "ERROR", path, f"{name} content differs from the pre-seal image"
                ))
    for path in pre_files:
        if path not in members and not policy.allows("remove", path):
            findings.append(Finding(
                "ERROR", path, f"missing from {name} but present in the pre-seal image"
            ))


def verify_seal(host_images: DiskImagePair, vm_images: DiskImagePair,
                bundle: PublishedBundle, policy: AllowlistPolicy) -> Verdict:
    """Compare the published sealed state against the pre-seal disk images."""
    findings: list[Finding] = []

    for required in (HOST_LOG_NAME, VM_LOG_NAME):
        if required not in bundle.artifacts:
            raise MalformedBundle(f"bundle is missing {required}")
    try:
        host_log = parse_sealing_log(bundle.host_log_text, stage="host")
        vm_log = parse_sealing_log(bundle.vm_log_text, stage="vm")
    except MalformedLog as exc:
        raise MalformedBundle(f"unparseable sealing log: {exc}") from exc

    host_evidence = extract_evidence(host_log)
    vm_evidence = extract_evidence(vm_log)

    # (1) both logs replay the full plan in order
    _check_step_sequence("host", policy.expected_host_commands, host_log, findings)
    _check_step_sequence("vm", policy.expected_vm_commands, vm_log, findings)

    # (2) keyslot dumps show both disks sealed
    _check_dump_evidence("host", HOST_ROOT_DEVICE, host_evidence, findings)
    _check_dump_evidence("vm", VM_ROOT_DEVICE, vm_evidence, findings)

    # (3) no login users survive
    _check_passwd_evidence("host", host_evidence, findings)
    _check_passwd_evidence("vm", vm_evidence, findings)

    # (4) ssh is gone
    _check_ssh_evidence("host", host_evidence, findings)
    _check_ssh_evidence("vm", vm_evidence, findings)

    # (5) manifests rebuilt from the pre-seal images match the published ones
    roots = list(policy.hash_roots)
    try:
        host_pre_tree = full_tree_from_images(host_images)
        vm_pre_tree = full_tree_from_images(vm_images)
    except Exception as exc:
        raise MalformedBundle(f"pre-seal images cannot be opened: {exc}") from exc
    host_pre = compute_manifest(host_pre_tree, roots)
    vm_pre = compute_manifest(vm_pre_tree, roots)
    _check_manifest_diff("host", diff_manifests(host_pre, host_evidence.manifest),
                         policy, findings)
    _check_manifest_diff("vm", diff_manifests(vm_pre, vm_evidence.manifest),
                         policy, findings)

    # (6) published archives match the pre-seal trees modulo the allowlist
    for name, which, src_root in _ARCHIVE_SOURCES:
        if name not in bundle.artifacts:
            findings.append(Finding("ERROR", name, "archive missing from bundle"))
            continue
        pre_tree = host_pre_tree if which == "host" else vm_pre_tree
        _check_archive(which, name, bundle.artifacts[name], src_root,
                       pre_tree, policy, findings)

    # (7) nothing secret leaks into the bundle
    host_keyfile = host_images.boot.read_file("/keyfile")
    vm_keyfile = vm_images.boot.read_file("/keyfile")
    for name, data in bundle.artifacts.items():
        if SHARE_MAGIC in data:
            findings.append(Finding(
                "ERROR", name, "escrow share material published in the bundle"
            ))
        if host_keyfile in data or vm_keyfile in data:
            findings.append(Finding("ERROR", name, "keyfile bytes leaked into the bundle"))

    status = "FAIL" if any(f.severity == "ERROR" for f in findings) else "PASS"
    return Verdict(status=status, findings=findings)
