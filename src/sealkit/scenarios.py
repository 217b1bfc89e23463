"""Named attack scenarios: the threat table as executable checks.

Each scenario builds a fresh server from a seed, runs the attack script,
and reports whether protected data became readable and whether the
verifier flagged the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import volume as vol
from .config import ServerConfig
from .machine import SealedAndCold
from .sealing import (
    PublishedBundle,
    SealingPlan,
    default_plan,
    prepare_trusted_server,
    seal_all,
    seal_single_stage,
)
from .tree import FileTree
from .util import SimClock, make_rng
from .verifier import default_policy, verify_seal
from .volume import AuthFailure, Keyfile, KeyslotsEmpty, NoMatchingSlot

ATTACK_SUCCEEDS = "attack-succeeds"
ATTACK_FAILS = "attack-fails"
VERIFIER_FLAGS = "verifier-flags"


@dataclass(frozen=True)
class Scenario:
    name: str
    expected: str
    description: str


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("theft-reboot", ATTACK_FAILS,
                 "steal the powered-off sealed server and try to unlock its disks"),
        Scenario("header-restore-single", ATTACK_SUCCEEDS,
                 "restore a pre-seal header backup after a host-only seal"),
        Scenario("header-restore-dual", ATTACK_FAILS,
                 "restore a pre-seal VM header backup after the full dual-stage seal"),
        Scenario("tamper-binary", VERIFIER_FLAGS,
                 "modify a binary between imaging and sealing"),
        Scenario("skip-erase", VERIFIER_FLAGS,
                 "seal with the host keyslot-erase step removed"),
        Scenario("leftover-user", VERIFIER_FLAGS,
                 "seal with the VM user-removal step removed"),
        Scenario("tampered-ldap", VERIFIER_FLAGS,
                 "replace the published directory dump after an honest seal"),
    )
}


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
        return {
            "name": self.name,
            "seed": self.seed,
            "expected": self.expected,
            "observed": self.observed,
            "ok": self.ok,
            "details": self.details,
        }


def _probe_volume(volume, keyfile: Keyfile) -> tuple[str, FileTree | None]:
    """Attacker's read attempt: unlock, then decrypt every sector."""
    try:
        handle = vol.unlock(volume, keyfile)
    except KeyslotsEmpty:
        return "keyslots-empty", None
    except NoMatchingSlot:
        return "no-matching-slot", None
    chunks: list[bytes] = []
    failures = 0
    for i in range(volume.sector_count):
        try:
            chunks.append(vol.read_sector(handle, i))
        except AuthFailure:
            failures += 1
    if failures == 0:
        return "readable", FileTree.decode(b"".join(chunks))
    if failures == volume.sector_count:
        return "all-auth-failures", None
    return "partially-readable", None


def _build(seed: int, config: ServerConfig | None):
    rng = make_rng(seed)
    clock = SimClock()
    host = prepare_trusted_server(config, rng=rng, clock=clock)
    return host, host.nested_vm


def drop_step(plan: SealingPlan, stage: str, kind: str) -> SealingPlan:
    """Plan with the first step of the given kind removed from one stage."""

    def trim(steps):
        dropped = False
        kept = []
        for step in steps:
            if not dropped and step.kind == kind:
                dropped = True
                continue
            kept.append(step)
        return tuple(kept)

    if stage == "host":
        return SealingPlan(host_steps=trim(plan.host_steps), vm_steps=plan.vm_steps)
    return SealingPlan(host_steps=plan.host_steps, vm_steps=trim(plan.vm_steps))


def _run_theft_reboot(seed: int, config: ServerConfig | None) -> ScenarioReport:
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
        keyfile = Keyfile(machine.boot_partition.read_file("/keyfile"))
        state, _ = _probe_volume(machine.root_volume, keyfile)
        outcomes.append(state)
        details.append(f"{machine.name}: boot+unlock -> {outcomes[-2]}, {outcomes[-1]}")
    observed = (
        ATTACK_FAILS
        if all(o in ("sealed-and-cold", "keyslots-empty") for o in outcomes)
        else ATTACK_SUCCEEDS
    )
    return ScenarioReport("theft-reboot", seed, ATTACK_FAILS, observed, details)


def _image_secret(machine, path: str) -> str:
    images = machine.snapshot_image()
    from .machine import full_tree_from_images

    return full_tree_from_images(images).read_text(path)


def _run_header_restore_single(seed: int, config: ServerConfig | None) -> ScenarioReport:
    host, _ = _build(seed, config)
    secret = _image_secret(host, "/root/host-secret.txt")
    backup = vol.header_backup(host.root_volume)

    host.boot()
    seal_single_stage(host)
    host.power_off()

    vol.restore_header(host.root_volume, backup)
    keyfile = Keyfile(host.boot_partition.read_file("/keyfile"))
    state, tree = _probe_volume(host.root_volume, keyfile)
    details = [f"unlock after header restore: {state}"]
    recovered = (
        tree is not None
        and tree.is_file("/root/host-secret.txt")
        and tree.read_text("/root/host-secret.txt") == secret
    )
    details.append(f"secret recovered: {recovered}")
    observed = ATTACK_SUCCEEDS if recovered else ATTACK_FAILS
    return ScenarioReport("header-restore-single", seed, ATTACK_SUCCEEDS, observed, details)


def _run_header_restore_dual(seed: int, config: ServerConfig | None) -> ScenarioReport:
    host, vm = _build(seed, config)
    backup = vol.header_backup(vm.root_volume)
    seal_all(host)
    host.power_off()

    vol.restore_header(vm.root_volume, backup)
    keyfile = Keyfile(vm.boot_partition.read_file("/keyfile"))
    state, tree = _probe_volume(vm.root_volume, keyfile)
    details = [f"read attempt after header restore: {state}"]
    observed = ATTACK_FAILS if state == "all-auth-failures" and tree is None else ATTACK_SUCCEEDS
    return ScenarioReport("header-restore-dual", seed, ATTACK_FAILS, observed, details)


def _seal_and_verify(host, host_images, vm_images, run_plan, honest_plan):
    """Seal with run_plan (possibly sabotaged), verify against the honest one."""
    bundle = seal_all(host, run_plan)
    return verify_seal(host_images, vm_images, bundle, default_policy(honest_plan))


def _run_tamper_binary(seed: int, config: ServerConfig | None) -> ScenarioReport:
    host, vm = _build(seed, config)
    host_images = host.snapshot_image()
    vm_images = vm.snapshot_image()

    host.boot()
    host.write_file("/usr/sbin/cron", b"#!ELF trojaned cron binary\n")

    honest = default_plan(host.config)
    verdict = _seal_and_verify(host, host_images, vm_images, honest, honest)
    flagged = any(f.subject == "/usr/sbin/cron" for f in verdict.errors)
    details = [f"verdict: {verdict.status}"]
    details.extend(f.render() for f in verdict.errors[:5])
    observed = VERIFIER_FLAGS if verdict.status == "FAIL" and flagged else ATTACK_SUCCEEDS
    return ScenarioReport("tamper-binary", seed, VERIFIER_FLAGS, observed, details)


def _run_skip_erase(seed: int, config: ServerConfig | None) -> ScenarioReport:
    host, vm = _build(seed, config)
    host_images = host.snapshot_image()
    vm_images = vm.snapshot_image()

    honest = default_plan(host.config)
    sabotaged = drop_step(honest, "host", "luks_erase")
    verdict = _seal_and_verify(host, host_images, vm_images, sabotaged, honest)

    flagged = verdict.status == "FAIL" and any(
        "luksErase" in f.subject or "still active" in f.explanation
        for f in verdict.errors
    )
    details = [f"verdict: {verdict.status}", f"host still unlockable: {not host.is_sealed}"]
    details.extend(f.render() for f in verdict.errors[:5])
    observed = VERIFIER_FLAGS if flagged else ATTACK_SUCCEEDS
    return ScenarioReport("skip-erase", seed, VERIFIER_FLAGS, observed, details)


def _run_leftover_user(seed: int, config: ServerConfig | None) -> ScenarioReport:
    host, vm = _build(seed, config)
    host_images = host.snapshot_image()
    vm_images = vm.snapshot_image()

    honest = default_plan(host.config)
    sabotaged = drop_step(honest, "vm", "remove_user")
    verdict = _seal_and_verify(host, host_images, vm_images, sabotaged, honest)

    flagged = verdict.status == "FAIL" and any(
        f.subject == "trust" or "userdel" in f.subject for f in verdict.errors
    )
    details = [f"verdict: {verdict.status}"]
    details.extend(f.render() for f in verdict.errors[:5])
    observed = VERIFIER_FLAGS if flagged else ATTACK_SUCCEEDS
    return ScenarioReport("leftover-user", seed, VERIFIER_FLAGS, observed, details)


def _run_tampered_ldap(seed: int, config: ServerConfig | None) -> ScenarioReport:
    host, vm = _build(seed, config)
    host_images = host.snapshot_image()
    vm_images = vm.snapshot_image()

    honest = default_plan(host.config)
    bundle = seal_all(host, honest)
    tampered = PublishedBundle({**bundle.artifacts, "ldap.txt": b"tampered\n"})
    verdict = verify_seal(host_images, vm_images, tampered, default_policy(honest))

    flagged = verdict.status == "FAIL" and any(f.subject == "ldap.txt" for f in verdict.errors)
    details = [f"verdict: {verdict.status}"]
    details.extend(f.render() for f in verdict.errors[:5])
    observed = VERIFIER_FLAGS if flagged else ATTACK_SUCCEEDS
    return ScenarioReport("tampered-ldap", seed, VERIFIER_FLAGS, observed, details)


_RUNNERS = {
    "theft-reboot": _run_theft_reboot,
    "header-restore-single": _run_header_restore_single,
    "header-restore-dual": _run_header_restore_dual,
    "tamper-binary": _run_tamper_binary,
    "skip-erase": _run_skip_erase,
    "leftover-user": _run_leftover_user,
    "tampered-ldap": _run_tampered_ldap,
}


def run_scenario(scenario: str | Scenario, seed: int = 0,
                 config: ServerConfig | None = None) -> ScenarioReport:
    name = scenario.name if isinstance(scenario, Scenario) else scenario
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}")
    return _RUNNERS[name](seed, config)
