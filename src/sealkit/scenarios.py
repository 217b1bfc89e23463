"""Named attack scenarios: the threat table as executable checks.

Each scenario builds a fresh server from a seed, runs the attack script,
and reports whether protected data became readable and whether the
verifier flagged the run. A new scenario is one ``SCENARIOS`` row: its
name, expected outcome, description and runner; a verifier-flags row gets
its runner from ``_verifier_flags``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable

from . import volume as vol
from .config import ServerConfig
from .machine import (HOST, LDAP_DUMP_NAME, VM, Machine, SealedAndCold, Stage, boot_keyfile,
                      full_tree_from_images, read_volume_tree)
from .sealing import (
    PublishedBundle,
    SealingPlan,
    default_plan,
    prepare_trusted_server,
    render_log,
    seal_all,
    seal_host,
    single_stage_host_plan,
)
from .tree import FileTree
from .util import SimClock, make_rng
from .verifier import Finding, default_policy, parse_sealing_log, verify_seal
from .volume import AuthFailure, Keyfile, KeyslotsEmpty, NoMatchingSlot

ATTACK_SUCCEEDS = "attack-succeeds"
ATTACK_FAILS = "attack-fails"
VERIFIER_FLAGS = "verifier-flags"

# A scenario's runner: (seed, config) -> (observed outcome, detail lines).
Runner = Callable[[int, ServerConfig], tuple[str, list[str]]]


@dataclass(frozen=True)
class Scenario:
    name: str
    expected: str
    description: str
    run: Runner

    def report(self, seed: int, config: ServerConfig) -> ScenarioReport:
        return ScenarioReport(self.name, seed, self.expected, *self.run(seed, config))


@dataclass
class ScenarioReport:
    name: str
    seed: int
    expected: str
    observed: str
    details: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.observed == self.expected

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def _probe_volume(volume, keyfile: Keyfile) -> tuple[str, FileTree | None]:
    """Attacker's read attempt: unlock, then decrypt every sector."""
    try:
        handle = vol.unlock(volume, keyfile)
    except KeyslotsEmpty:
        return "keyslots-empty", None
    except NoMatchingSlot:
        return "no-matching-slot", None
    try:
        return "readable", read_volume_tree(handle)[0]
    except AuthFailure:
        pass
    failures = 0
    for i in range(volume.sector_count):
        try:
            vol.read_sector(handle, i)
        except AuthFailure:
            failures += 1
    if failures == volume.sector_count:
        return "all-auth-failures", None
    return "partially-readable", None


def _build(seed: int, config: ServerConfig):
    host = prepare_trusted_server(config, rng=make_rng(seed), clock=SimClock())
    return host, host.nested_vm


def drop_step(plan: SealingPlan, stage: Stage, kind: str) -> SealingPlan:
    """Plan with the first ``kind`` step removed from ``stage``.

    A kind the stage lacks raises ValueError: a typo must not seal honestly.
    """
    steps = plan[stage]
    kinds = [step.kind for step in steps]
    if kind not in kinds:
        raise ValueError(f"the {stage.kind} stage has no {kind!r} step")
    i = kinds.index(kind)
    return {**plan, stage: steps[:i] + steps[i + 1:]}


def _run_theft_reboot(seed: int, config: ServerConfig) -> tuple[str, list[str]]:
    host, vm = _build(seed, config)
    host_secret = _image_secret(host, "/root/host-secret.txt")
    seal_all(host)
    host.power_off()

    details = [f"protected payload: {host_secret[:24]!r}..."]
    outcomes = []
    for machine in (host, vm):
        try:
            machine.boot()
            outcomes.append("booted")
        except SealedAndCold:
            outcomes.append("sealed-and-cold")
        state, _ = _probe_volume(machine.root_volume, boot_keyfile(machine.boot_partition))
        outcomes.append(state)
        details.append(f"{machine.name}: boot+unlock -> {outcomes[-2]}, {outcomes[-1]}")
    cold = all(o in ("sealed-and-cold", "keyslots-empty") for o in outcomes)
    observed = ATTACK_FAILS if cold else ATTACK_SUCCEEDS
    return observed, details


def _image_secret(machine, path: str) -> str:
    return full_tree_from_images(machine.snapshot_image()).read_text(path)


def _run_header_restore_single(seed: int, config: ServerConfig) -> tuple[str, list[str]]:
    host, _ = _build(seed, config)
    secret = _image_secret(host, "/root/host-secret.txt")
    backup = host.root_volume.header

    host.boot()
    seal_host(host, single_stage_host_plan(host.config))
    host.power_off()

    vol.restore_header(host.root_volume, backup)
    state, tree = _probe_volume(host.root_volume, boot_keyfile(host.boot_partition))
    details = [f"unlock after header restore: {state}"]
    recovered = tree is not None and tree.file_bytes("/root/host-secret.txt") == secret.encode()
    details.append(f"secret recovered: {recovered}")
    observed = ATTACK_SUCCEEDS if recovered else ATTACK_FAILS
    return observed, details


def _run_header_restore_dual(seed: int, config: ServerConfig) -> tuple[str, list[str]]:
    host, vm = _build(seed, config)
    backup = vm.root_volume.header
    seal_all(host)
    host.power_off()

    vol.restore_header(vm.root_volume, backup)
    state, tree = _probe_volume(vm.root_volume, boot_keyfile(vm.boot_partition))
    details = [f"read attempt after header restore: {state}"]
    observed = ATTACK_FAILS if state == "all-auth-failures" and tree is None else ATTACK_SUCCEEDS
    return observed, details


def _verifier_flags(sabotage: Callable[[Machine, SealingPlan], PublishedBundle],
                    flags: Callable[[Finding], bool],
                    notes: Callable[[Machine], list[str]] = lambda host: []) -> Runner:
    """Runner of a verifier-flags scenario: seal through ``sabotage``, then verify
    against the honest plan; ``flags`` must accept one finding of the ``FAIL``
    verdict, and ``notes`` gives the scenario's own detail lines."""
    def run(seed: int, config: ServerConfig) -> tuple[str, list[str]]:
        host, vm = _build(seed, config)
        host_images = host.snapshot_image()
        vm_images = vm.snapshot_image()
        honest = default_plan(host.config)
        bundle = sabotage(host, honest)
        verdict = verify_seal(host_images, vm_images, bundle, default_policy(honest))

        flagged = verdict.status == "FAIL" and any(flags(f) for f in verdict.findings)
        details = [f"verdict: {verdict.status}", *notes(host)]
        details.extend(f.render() for f in verdict.findings[:5])
        return (VERIFIER_FLAGS if flagged else ATTACK_SUCCEEDS), details
    return run


def _trojan_cron(host: Machine, plan: SealingPlan) -> PublishedBundle:
    host.boot()
    host.write_file("/usr/sbin/cron", b"#!ELF trojaned cron binary\n")
    return seal_all(host, plan)


def _hide_surviving_user(host: Machine, plan: SealingPlan) -> PublishedBundle:
    """Run the VM's userdel as a no-op under its honest command, then blank the
    VM's passwd listing, which would show the login user it left behind."""
    bundle = _forged(VM, "remove_user", kind="chown_webroot")(host, plan)
    log = [replace(record, output="") if record.command == "cat /etc/passwd" else record
           for record in parse_sealing_log(bundle.artifacts[VM.log_name].decode())]
    return PublishedBundle({**bundle.artifacts, VM.log_name: render_log(log).encode()})


def _vm_accounts(host: Machine) -> list[str]:
    passwd = host.nested_vm.ram.tree.read_text("/etc/passwd")
    return ["vm accounts after the seal: "
            + ", ".join(line.partition(":")[0] for line in passwd.splitlines())]


def _without(stage: Stage, kind: str):
    """Sabotage that seals with the first ``kind`` step of ``stage`` removed."""
    return lambda host, plan: seal_all(host, drop_step(plan, stage, kind))


def _forged(stage: Stage, kind: str, /, **changes):
    """Sabotage that seals with each ``kind`` step of ``stage`` changed by ``changes``
    but logged under its honest command."""
    return lambda host, plan: seal_all(host, {**plan, stage: tuple(
        replace(step, **changes) if step.kind == kind else step for step in plan[stage])})


SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    Scenario("theft-reboot", ATTACK_FAILS,
             "steal the powered-off sealed server and try to unlock its disks",
             _run_theft_reboot),
    Scenario("header-restore-single", ATTACK_SUCCEEDS,
             "restore a pre-seal header backup after a host-only seal",
             _run_header_restore_single),
    Scenario("header-restore-dual", ATTACK_FAILS,
             "restore a pre-seal VM header backup after the full dual-stage seal",
             _run_header_restore_dual),
    Scenario("tamper-binary", VERIFIER_FLAGS, "modify a binary between imaging and sealing",
             _verifier_flags(_trojan_cron, lambda f: f.subject == "/usr/sbin/cron")),
    Scenario("skip-erase", VERIFIER_FLAGS, "seal with the host keyslot-erase step removed",
             _verifier_flags(_without(HOST, "luks_erase"),
                             lambda f: "luksErase" in f.subject or "still active" in f.explanation,
                             notes=lambda host: [f"host still unlockable: {not host.is_sealed}"])),
    Scenario("leftover-user", VERIFIER_FLAGS, "seal with the VM user-removal step removed",
             _verifier_flags(_without(VM, "remove_user"),
                             lambda f: f.subject == "trust" or "userdel" in f.subject)),
    Scenario("blank-account-listing", VERIFIER_FLAGS,
             "keep the VM login user behind a no-op userdel and blank the passwd listing",
             _verifier_flags(_hide_surviving_user, lambda f: f.subject == "cat /etc/passwd",
                             notes=_vm_accounts)),
    Scenario("tampered-ldap", VERIFIER_FLAGS,
             "replace the published directory dump after an honest seal",
             _verifier_flags(lambda host, plan: PublishedBundle(
                                 {**seal_all(host, plan).artifacts,
                                  LDAP_DUMP_NAME: b"tampered\n"}),
                             lambda f: f.subject == LDAP_DUMP_NAME)),
    Scenario("leftover-ssh-rule", VERIFIER_FLAGS,
             "keep the VM's ssh rule by deleting rule 4 under the honest iptables -D INPUT 5",
             _verifier_flags(_forged(VM, "delete_input_rule", args={"index": 4}),
                             lambda f: "rules accept ssh" in f.explanation)),
)}

_RUNNERS = {name: scenario.report for name, scenario in SCENARIOS.items()}


def run_scenario(name: str, seed: int, config: ServerConfig) -> ScenarioReport:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}")
    return _RUNNERS[name](seed, config)
