"""Third-party verification of a published sealed state.

Everything here is a pure function over the pre-seal disk images, the
published bundle, and an explicit allowlist policy. ``default_policy``
derives the policy from the sealing plan as plain JSON-ready data: which
paths may change (each step kind's rule in ``machine.STEP_KINDS``), which
steps each log must replay and which of them are critical, and which
published archive zips which root of which stage. Evidence is read only
from records of planned commands, by exact command: ``extract_evidence``
indexes each planned command's outputs, and a record whose command no plan
step produces is not evidence.
Manipulations confined to volatile state that no hash root or logged listing
covers are outside what manifests can see; the verdict preamble says so.
"""

from __future__ import annotations

import fnmatch
import hashlib
import posixpath
from collections.abc import Iterable
from dataclasses import dataclass, field

from .escrow import SHARE_MAGIC
from .machine import (
    SSH_DPORT,
    STAGES,
    STEP_KINDS,
    VM,
    ZIP_READ_ERRORS,
    DiskImagePair,
    Stage,
    StepRecord,
    boot_keyfile,
    full_tree_from_images,
    parse_iptables_save,
    render_rule_listing,
    unzip_to_map,
)
from .manifest import (
    Manifest,
    ManifestDiff,
    ManifestError,
    RootSpec,
    compute_manifest,
    diff_manifests,
    manifest_from_lines,
)
from .sealing import PublishedBundle, SealingLog, SealingPlan
from .tree import TreeError
from .volume import DEFAULT_KDF_ITERATIONS, VolumeError

UNDETECTABLE_NOTE = (
    "Scope: manipulations that touch hashed trees or logged evidence are "
    "detected; manipulations confined to unhashed volatile state are "
    "undetectable by manifest comparison."
)

# Every other shell, an empty field included (login(1) runs /bin/sh for it), admits a login.
NOLOGIN_SHELLS = ("/usr/sbin/nologin", "/sbin/nologin", "/bin/false", "/usr/bin/false")


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
    """One reason the seal fails; every finding is an error."""

    subject: str  # path or step
    explanation: str

    def render(self) -> str:
        return f"ERROR {self.subject}: {self.explanation}"


@dataclass
class Verdict:
    status: str  # "PASS", or "FAIL" exactly when there are findings
    findings: list[Finding] = field(default_factory=list)

    def render_text(self) -> str:
        lines = [f"VERDICT: {self.status}", UNDETECTABLE_NOTE]
        lines.extend(f.render() for f in self.findings)
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "preamble": UNDETECTABLE_NOTE,
            "findings": [
                {"severity": "ERROR", "subject": f.subject, "explanation": f.explanation}
                for f in self.findings
            ],
        }


# -- sealing log parsing ---------------------------------------------------------


def parse_sealing_log(text: str) -> SealingLog:
    """Parse '+ command' / output text back into structured records."""
    records: SealingLog = []
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
    return records


# -- evidence extraction -----------------------------------------------------------


@dataclass
class LogEvidence:
    """One stage log's evidence: each planned command's outputs in log order,
    and the manifest that the planned ``rhash`` records list."""

    outputs: dict[str, list[str]]
    manifest: Manifest

    def last(self, command: str) -> str | None:
        """The output of the last record of ``command``, or None."""
        found = self.outputs.get(command)
        return found[-1] if found else None


def extract_evidence(log: SealingLog, planned: Iterable[str]) -> LogEvidence:
    """Index the log's records by command. A record whose command no plan step
    produces is not evidence."""
    outputs: dict[str, list[str]] = {command: [] for command in planned}
    manifest_lines: list[str] = []
    for record in log:
        if record.command in outputs:
            outputs[record.command].append(record.output)
            if record.command.startswith("rhash "):
                manifest_lines.extend(record.output.splitlines())
    return LogEvidence(outputs, manifest_from_lines(manifest_lines))


# -- allowlist policy --------------------------------------------------------------


def default_policy(plan: SealingPlan) -> dict:
    """The allowlist as plain JSON-ready data, the one form the checks read and
    ``sealkit verify --json`` prints: the path globs a clean seal may change, add
    or remove (each step kind's rule in ``STEP_KINDS``), the commands each stage's
    log must replay, the hash roots, the path of the published directory dump
    (empty when the plan dumps none), which commands are critical, and the
    published archives (bundle name, stage kind, zipped root)."""
    may: dict[str, set[str]] = {"change": set(), "add": set(), "remove": set()}
    roots: dict[str, dict] = {}
    ldap_dump = ""

    all_steps = [step for steps in plan.values() for step in steps]
    for step in all_steps:
        for how, glob in STEP_KINDS[step.kind].leaves(step.args):
            may[how].add(glob)
        if step.kind == "ldap_dump":
            ldap_dump = step.args["dest"]
        elif step.kind == "hash_tree":
            roots.setdefault(step.args["root"], {"path": step.args["root"],
                                                 "recursive": step.args["recursive"]})
    return {
        **{f"may_{how}": sorted(globs) for how, globs in may.items()},
        **{f"expected_{stage.kind}_commands": [s.command for s in plan.get(stage, ())]
           for stage in STAGES},
        "hash_roots": list(roots.values()),
        "ldap_dump": ldap_dump,
        "critical_commands": [s.command for s in all_steps if s.critical],
        "archives": [{"name": step.args.get("name") or posixpath.basename(step.args["dest_path"]),
                      "stage": stage.kind, "root": step.args["src"]}
                     for stage, steps in plan.items() for step in steps
                     if step.kind == "zip_tree"],
    }


def _allows(policy: dict, how: str, path: str) -> bool:
    """Whether ``path`` may differ that way: ``how`` is "change", "add" or "remove"."""
    return any(fnmatch.fnmatchcase(path, glob) for glob in policy[f"may_{how}"])


# -- the verification procedure ------------------------------------------------------


def _check_step_sequence(stage: Stage, policy: dict, log: SealingLog,
                         findings: list[Finding]) -> None:
    expected = policy[f"expected_{stage.kind}_commands"]
    log_commands = [record.command for record in log]
    cursor = 0
    for command in expected:
        try:
            cursor = log_commands.index(command, cursor) + 1
        except ValueError:
            label = ("missing critical step" if command in policy["critical_commands"]
                     else "missing or out-of-order step")
            findings.append(Finding(command, f"{label} in {stage.kind} log"))
    for command in dict.fromkeys(expected):  # plan order, whatever the string hash seed
        if log_commands.count(command) > expected.count(command):
            findings.append(Finding(
                command, f"appears more often in the {stage.kind} log than the plan requires"))


def _last_output(stage: Stage, evidence: LogEvidence, command: str, what: str,
                 findings: list[Finding]) -> str | None:
    """The last ``command`` record's output; without one, a "log carries no" finding and None."""
    output = evidence.last(command)
    if output is None:
        findings.append(Finding(command, f"{stage.kind} log carries no {what}"))
    return output


def _check_dump_evidence(stage: Stage, evidence: LogEvidence,
                         findings: list[Finding]) -> None:
    device = stage.root_device
    dump = _last_output(stage, evidence, f"cryptsetup luksDump {device}",
                        f"keyslot dump for {device}", findings)
    if dump is None:
        return
    states = [line.partition(":")[2].strip() for line in dump.splitlines()
              if line.startswith("Key Slot ")]
    active = [i for i, state in enumerate(states) if state != "EMPTY"]
    if active or not states:
        findings.append(Finding(
            device, f"keyslots {active} still active after the {stage.kind} seal"))


def _check_passwd_evidence(stage: Stage, evidence: LogEvidence,
                           findings: list[Finding]) -> None:
    listing = _last_output(stage, evidence, "cat /etc/passwd", "passwd listing", findings)
    for line in (listing or "").splitlines():
        fields = line.split(":")
        if len(fields) >= 7 and fields[-1] not in NOLOGIN_SHELLS:
            findings.append(Finding(
                fields[0], f"login-capable user survived the {stage.kind} seal"))


def _check_account_listings(stage: Stage, evidence: LogEvidence, pre_tree,
                            findings: list[Finding]) -> None:
    """The seal removes only login-capable users, so each account listing keeps
    the pre-seal line of every account whose pre-seal shell admits no login."""
    passwd = (pre_tree.file_bytes("/etc/passwd") or b"").decode(errors="replace")
    accounts = [line.split(":") for line in passwd.splitlines()]
    nologin = tuple(f"{f[0]}:" for f in accounts if len(f) >= 7 and f[-1] in NOLOGIN_SHELLS)
    for path in stage.account_files:
        listing = evidence.last(f"cat {path}")
        if listing is None:  # check (1) reports the missing record
            continue
        shown = set(listing.splitlines())
        pre = (pre_tree.file_bytes(path) or b"").decode(errors="replace")
        lost = [line.partition(":")[0] for line in pre.splitlines()
                if line.startswith(nologin) and line not in shown]
        if lost:
            findings.append(Finding(f"cat {path}", f"the {stage.kind} listing lacks the pre-seal "
                                    f"lines of non-login accounts {', '.join(lost)}"))


def _check_ssh_evidence(stage: Stage, evidence: LogEvidence,
                        findings: list[Finding]) -> None:
    if _last_output(stage, evidence, "apt-get -y purge openssh-server", "ssh purge step",
                    findings) is None:
        return
    status = _last_output(stage, evidence, "systemctl status sshd", "ssh status probe", findings)
    if status is not None and "could not be found" not in status:
        findings.append(Finding("sshd", f"ssh server still present after the {stage.kind} seal"))


def _check_firewall_evidence(stage: Stage, evidence: LogEvidence,
                             findings: list[Finding]) -> None:
    saved = _last_output(stage, evidence, "iptables-save", "rule dump", findings)
    if saved is None:
        return
    firewall = parse_iptables_save(saved)
    if firewall.output_policy != "DROP":
        findings.append(Finding("iptables-save", f"the {stage.kind} OUTPUT policy is not DROP"))
    for rule in firewall.input_rules:
        if f" {SSH_DPORT} " in f" {rule} " and "-j ACCEPT" in rule:
            findings.append(Finding("iptables-save", f"the {stage.kind} rules accept ssh: {rule}"))
    listing = _last_output(stage, evidence, "iptables -L -n", "rule listing", findings)
    if listing is not None and listing.splitlines() != render_rule_listing(firewall).splitlines():
        findings.append(Finding("iptables -L -n", f"differs from the {stage.kind} iptables-save"))


def _check_diff(diff: ManifestDiff, policy: dict, findings: list[Finding], *,
                changed: str, added: str, removed: str) -> None:
    """One ERROR per path the policy does not allow to differ that way, with
    that kind's explanation: changed paths first, then added, then removed."""
    for kind, paths, explanation in (("change", diff.changed, changed),
                                     ("add", diff.added, added),
                                     ("remove", diff.removed, removed)):
        for path in sorted(paths):
            if not _allows(policy, kind, path):
                findings.append(Finding(path, explanation))


def _archive_source(pre_tree, src_root: str) -> dict[str, bytes]:
    """The files under ``src_root`` of a pre-seal tree, as an archive of it would hold them."""
    files = ((p, pre_tree.file_bytes(p)) for p in pre_tree.under(src_root))
    return {p: data for p, data in files if data is not None}


def _check_archive(name: str, blob: bytes, pre_files: dict[str, bytes],
                   policy: dict, findings: list[Finding]) -> None:
    try:
        members = unzip_to_map(blob)
    except ZIP_READ_ERRORS:
        findings.append(Finding(name, "archive cannot be read"))
        return
    _check_diff(diff_manifests(pre_files, members), policy, findings,
                changed=f"{name} content differs from the pre-seal image",
                added=f"{name} contains a file absent from the pre-seal image",
                removed=f"missing from {name} but present in the pre-seal image")


def _check_published_file(path: str, bundle: PublishedBundle, manifest: Manifest,
                          findings: list[Finding]) -> None:
    """The bundle's copy of a webroot file must be the one the VM hashed."""
    name = posixpath.basename(path)
    recorded = manifest.get(path)
    if name not in bundle.artifacts:
        findings.append(Finding(name, "missing from the bundle"))
    elif recorded is None:
        findings.append(Finding(name, f"the vm manifest records no digest for {path}"))
    elif hashlib.sha3_512(bundle.artifacts[name]).hexdigest() != recorded:
        findings.append(Finding(
            name, f"differs from the digest the vm manifest records for {path}"))


def _check_kdf_counts(stage: Stage, images: DiskImagePair) -> None:
    """An honest pre-seal root asks for the default KDF count and no other, so
    a header cannot make the auditor's unlock arbitrarily slow."""
    header = images.root.header
    counts = {header.kdf_iterations,
              *(slot.kdf_iterations for slot in header.slots if slot.active)}
    if counts != {DEFAULT_KDF_ITERATIONS}:
        raise MalformedBundle(f"the {stage.kind} pre-seal root asks for KDF iteration "
                              f"counts {sorted(counts)}, not {DEFAULT_KDF_ITERATIONS}")


def verify_seal(host_images: DiskImagePair, vm_images: DiskImagePair,
                bundle: PublishedBundle, policy: dict) -> Verdict:
    """Compare the published sealed state against the pre-seal disk images."""
    findings: list[Finding] = []
    images = dict(zip(STAGES, (host_images, vm_images)))

    for stage in STAGES:
        if stage.log_name not in bundle.artifacts:
            raise MalformedBundle(f"bundle is missing {stage.log_name}")
        _check_kdf_counts(stage, images[stage])  # before any unlock
    try:
        logs = {stage: parse_sealing_log(bundle.artifacts[stage.log_name].decode())
                for stage in STAGES}
        evidence = {stage: extract_evidence(log, policy[f"expected_{stage.kind}_commands"])
                    for stage, log in logs.items()}
    except (MalformedLog, ManifestError, UnicodeDecodeError) as exc:
        raise MalformedBundle(f"unparseable sealing log: {exc}") from exc

    # (1) both logs replay the full plan in order
    for stage in STAGES:
        _check_step_sequence(stage, policy, logs[stage], findings)

    # (2) keyslot dumps show both disks sealed, (3) no login users survive, (4) ssh is
    # gone, (10) the firewall drops output and accepts no ssh, as both listings show
    for check in (_check_dump_evidence, _check_passwd_evidence, _check_ssh_evidence,
                  _check_firewall_evidence):
        for stage in STAGES:
            check(stage, evidence[stage], findings)

    # A pre-seal image that cannot be opened, or that lacks a planned hash root
    # or archive source, is malformed input, not a finding.
    try:
        pre_trees = {stage: full_tree_from_images(images[stage]) for stage in STAGES}
        roots = [RootSpec(**root) for root in policy["hash_roots"]]
        pre_manifests = {stage: compute_manifest(pre_trees[stage], roots) for stage in STAGES}
        pre_archives = [_archive_source(tree, archive["root"]) for archive in policy["archives"]
                        for stage, tree in pre_trees.items() if stage.kind == archive["stage"]]
    except (TreeError, VolumeError, ManifestError) as exc:
        raise MalformedBundle(f"pre-seal images cannot be opened: {exc}") from exc

    # (3) continued: account listings keep every pre-seal non-login account
    for stage in STAGES:
        _check_account_listings(stage, evidence[stage], pre_trees[stage], findings)

    # (5) manifests rebuilt from the pre-seal images match the published ones
    for stage in STAGES:
        _check_diff(diff_manifests(pre_manifests[stage], evidence[stage].manifest),
                    policy, findings,
                    changed=f"content changed across the {stage.kind} seal",
                    added=f"appeared during the {stage.kind} seal",
                    removed=f"disappeared during the {stage.kind} seal")

    # (6) published archives match the pre-seal trees modulo the allowlist
    for archive, pre_files in zip(policy["archives"], pre_archives):
        name = archive["name"]
        if name not in bundle.artifacts:
            findings.append(Finding(name, "archive missing from bundle"))
            continue
        _check_archive(name, bundle.artifacts[name], pre_files, policy, findings)

    # (7) nothing secret leaks into the bundle
    keyfiles = [boot_keyfile(images[stage].boot).data for stage in STAGES]
    for name, data in bundle.artifacts.items():
        if SHARE_MAGIC in data:
            findings.append(Finding(name, "escrow share material published in the bundle"))
        if any(keyfile in data for keyfile in keyfiles):
            findings.append(Finding(name, "keyfile bytes leaked into the bundle"))

    # (8) the published directory dump is the file the VM hashed
    if policy["ldap_dump"]:
        _check_published_file(policy["ldap_dump"], bundle, evidence[VM].manifest, findings)

    return Verdict(status="FAIL" if findings else "PASS", findings=findings)
