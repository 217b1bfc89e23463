"""Workloads of the sealkit benchmark and the gates that check their outputs.

The benchmark drives sealkit only through ``sealkit.cli.run_command`` and
the library functions that ``cmd_serve`` uses. Every call goes through a
module attribute (``sk_machine.save_images``, not a name bound here), so the
traced run sees the benchmark's own calls into each layer too.

Workloads:

* ``cycle-default``: ``build`` -> ``seal`` -> ``verify --json`` at the default
  512/512-sector geometry. Ten PBKDF2 calls make up most of a cycle.
* ``cycle-vm16``: the same cycle with a 16 MiB VM disk (32768 sectors).
  Sector AEAD and 16 MiB image I/O dominate; PBKDF2 is a small share.
* ``serve-mixed``: a sealed server with a 4096-sector VM disk answers a seeded
  script of requests from one closed-loop client through
  ``ServiceFrontend.handle_line``, the body of ``sealkit serve``. About 45%
  of the requests write the root volume, the rest touch no sector.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from sealkit import cli as sk_cli
from sealkit import config as sk_config
from sealkit import escrow as sk_escrow
from sealkit import machine as sk_machine
from sealkit import sealing as sk_sealing
from sealkit import services as sk_services
from sealkit import util as sk_util
from sealkit import verifier as sk_verifier
from sealkit import volume as sk_volume

from tracer import TRACED_LAYERS, Tracer, required_spans

BENCH_DIR = Path(__file__).resolve().parent

SETUP_PROBES = 5

# Machine-speed probe, and its time on the reference machine: a 2-vCPU
# virtual machine (Python 3.11.7, cryptography 48.0.0) in its fast CPU mode.
PROBE_KDF_ITERATIONS = 500
PROBE_AES_BLOCKS = 100
PROBE_PY_STEPS = 2000
REFERENCE_PROBE_MS = 0.65

SEED_STRIDE = 10_000  # workload seeds start at --seed * SEED_STRIDE

# serve-mixed shape
SERVE_VM_SECTORS = 4096
SERVE_USERS = 16
SERVE_ESCROW_PARTIES = 3
SPEED_SAMPLE_EVERY = 25  # requests between machine-speed samples
WRITE_VERBS = frozenset({"SUBMIT", "PUBLISH", "SYNC"})
# Requests per session: ~45% root-volume writes, ~55% touching no sector.
# Exact counts, shuffled per seed, keep every session's mix the same; AUTH is
# most of the reads, so their median lies inside one verb's latency range
# instead of on the step between two verbs. Every fifth AUTH has a bad password.
REQUEST_MIX = (
    ("SUBMIT", 390),
    ("PUBLISH", 40),
    ("SYNC", 20),
    ("AUTH", 350),
    ("RESOLVE", 100),
    ("MAIL", 100),
)
BAD_PASSWORD_EVERY = 5
VAULT_FILES = {"/data/records.csv": b"id,value\n1,confidential\n"}

# traced runs do a fixed amount of work, so their counts repeat exactly
TRACE_CYCLES = {"cycle-default": 6, "cycle-vm16": 2}


class Tally:
    """Attempted and failed checks; every failure makes the run fail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


Timed = tuple[float, float]  # (perf_counter at start, wall seconds)


class CliRun(NamedTuple):
    rc: int
    out: str
    err: str
    timed: Timed

    def field(self, key: str):
        """A key of the command's --json output, or None."""
        try:
            doc = json.loads(self.out)
        except ValueError:
            return None
        return doc.get(key) if isinstance(doc, dict) else None

    def problem(self, what: str) -> str:
        return f"{what}: exit {self.rc}: {self.err.strip()[-200:]}"


def run_cli(argv: list[str]) -> CliRun:
    """One CLI command in-process. An exception escaping it is exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = sk_cli.run_command(argv)
        except Exception as exc:  # a traceback is a failed command, not a crashed run
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return CliRun(rc, out.getvalue(), err.getvalue(), (start, elapsed))


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0


def _quantile_ms(values: list[float], q: int) -> float | None:
    """q-th percentile, reported only with at least ten samples beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100)[q - 1] * 1000.0


def probe_once() -> float:
    """Fixed machine-speed probe, timed outside sealkit.

    It mixes the three kinds of work sealkit does: PBKDF2-SHA512, AES-GCM
    over 512-byte blocks and interpreted Python.
    """
    cipher, block, nonce = AESGCM(bytes(32)), bytes(sk_volume.SECTOR_BYTES), bytes(12)
    start = time.perf_counter()
    hashlib.pbkdf2_hmac("sha512", b"\x01" * sk_volume.KEYFILE_BYTES, b"\x02" * 32,
                        PROBE_KDF_ITERATIONS, dklen=32)
    for _ in range(PROBE_AES_BLOCKS):
        cipher.encrypt(nonce, block, b"probe")
    total = 0
    for i in range(PROBE_PY_STEPS):
        total += i * i
    return time.perf_counter() - start


class Speedometer:
    """Samples the machine-speed probe between operations.

    This host's CPU switches between two speeds about 1.5x apart, each held
    for a second or more. Scaling each operation's time by reference / (probe
    time around it) turns it into its time at the reference speed, so runs
    that spent different shares of their time in the slow mode stay
    comparable.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probes: list[float] = []

    def sample(self, _kind: str | None = None) -> None:
        self.times.append(time.perf_counter())
        self.probes.append((probe_once() + probe_once()) / 2)

    def scale(self, op: Timed) -> float:
        """The operation's time at the reference speed."""
        start, seconds = op
        i = bisect.bisect_right(self.times, start)
        before = self.probes[max(i - 1, 0)]
        after = self.probes[min(i, len(self.probes) - 1)]
        return seconds * reference_factor((before + after) / 2)

    def context(self) -> dict:
        return {"samples": len(self.probes),
                "probe_mean_ms": statistics.mean(self.probes) * 1e3,
                "probe_min_ms": min(self.probes) * 1e3,
                "probe_max_ms": max(self.probes) * 1e3}


def reference_factor(probe_s: float) -> float:
    return REFERENCE_PROBE_MS / 1000.0 / probe_s


def probe_setup(workload: str, seed: int, tally: Tally) -> tuple[float, dict]:
    """Median time from interpreter start until the workload is ready.

    Each probe process times itself from the moment it was spawned and
    samples the machine-speed probe right after, on the CPU it ran on.
    """
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", str(spawned),
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        if tally.check(proc.returncode == 0,
                       f"setup probe: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"):
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            raw.append(probe["setup_s"])
            scaled.append(probe["setup_s"] * reference_factor(probe["probe_s"]))
        else:  # the run fails anyway; report the unscaled wall time
            raw.append(time.time() - spawned)
            scaled.append(raw[-1])
    return statistics.median(scaled), {"setup_s": statistics.median(raw)}


@dataclass
class Measured:
    """Timed operations: each write or read is the sum of its timed parts.

    ``ops`` counts what ``ops_per_s`` reports: cycles, or requests.
    """

    ops: int
    writes: list[list[Timed]]
    reads: list[list[Timed]]

    def metrics(self, seconds_of) -> tuple[dict, dict]:
        writes = [sum(seconds_of(part) for part in op) for op in self.writes]
        reads = [sum(seconds_of(part) for part in op) for op in self.reads]
        metrics = {
            "ops_per_s": self.ops / (sum(writes) + sum(reads)),
            "write_p50_ms": _median_ms(writes),
            "read_p50_ms": _median_ms(reads),
        }
        tails = {"writes": len(writes), "reads": len(reads),
                 "write_p99_ms": _quantile_ms(writes, 99),
                 "read_p99_ms": _quantile_ms(reads, 99)}
        return metrics, tails


class Workload:
    name: str

    def __init__(self, seed: int, workroot: Path, tally: Tally):
        self.base = seed * SEED_STRIDE
        self.workroot = workroot
        self.tally = tally
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workroot / f"w{self._dirs}"
        path.mkdir(parents=True)
        return path

    def warm_up(self) -> None:
        """Work done before timing starts, so lazy set-up is not measured."""


# -- build -> seal -> verify cycles -----------------------------------------------------


@dataclass
class CycleResult:
    build: Timed
    seal: Timed
    verify: Timed
    digest: str | None


class CycleWorkload(Workload):
    def __init__(self, name: str, config: Path | None, seed: int, workroot: Path,
                 tally: Tally):
        super().__init__(seed, workroot, tally)
        self.name = name
        self.config_args = ["--config", str(config)] if config else []

    def setup(self) -> None:
        """What a cold process does before its first cycle."""
        sk_config.load_config(self.config_args[1] if self.config_args else None)
        self.workroot.mkdir(parents=True, exist_ok=True)

    def cycle(self, seed: int, mark=None) -> CycleResult:
        workdir = self.fresh_dir()
        try:
            return self._cycle(workdir, seed, mark)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _cycle(self, workdir: Path, seed: int, mark) -> CycleResult:
        where = ["--workdir", str(workdir), *self.config_args]
        check = self.tally.check
        if mark:
            mark("write")
        build = run_cli(["build", "--seed", str(seed), *where])
        check(build.rc == 0, build.problem(f"build seed {seed}"))
        if mark:
            mark("write")
        seal = run_cli(["seal", "--seed", str(seed), "--json", *where])
        digest = seal.field("bundle_index_digest") if seal.rc == 0 else None
        check(bool(digest), seal.problem(f"seal seed {seed}"))
        if mark:
            mark("read")
        verify = run_cli(["verify", "--json", *where])
        status = verify.field("status")
        check(verify.rc == 0 and status == "PASS", verify.problem(f"verify seed {seed}: {status}"))
        return CycleResult(build.timed, seal.timed, verify.timed, digest)

    # -- gates that run once per run, outside the timed region ---------------------

    def gates(self, first_digest: str | None) -> None:
        check = self.tally.check
        workdir = self.fresh_dir()
        again = self._cycle(workdir, self.base, None)
        check(again.digest is not None and again.digest == first_digest,
              f"seed {self.base} gave bundle digest {again.digest} then {first_digest}")
        self._forged_dump_gate(workdir)
        shutil.rmtree(workdir, ignore_errors=True)

        attack = run_cli(["attack", "all", "--seed", str(self.base), "--json"])
        try:
            reports = json.loads(attack.out)
        except ValueError:
            reports = []
        check(attack.rc == 0 and bool(reports), attack.problem("attack all"))
        for report in reports:
            check(report.get("ok") is True,
                  f"attack {report.get('name')}: expected {report.get('expected')}, "
                  f"observed {report.get('observed')}")

    def _forged_dump_gate(self, workdir: Path) -> None:
        """A host log whose keyslot dump shows an active slot must FAIL verify."""
        log = workdir / "bundle" / sk_sealing.HOST_LOG_NAME
        text = log.read_text() if log.is_file() else ""
        forged = text.replace("Key Slot 0: EMPTY", "Key Slot 0: ACTIVE", 1)
        if not self.tally.check(forged != text, "no erased keyslot dump in the host log"):
            return
        log.write_text(forged)
        verify = run_cli(["verify", "--json", "--workdir", str(workdir), *self.config_args])
        self.tally.check(verify.rc != 0 and verify.field("status") == "FAIL",
                         verify.problem("verify of a forged active host keyslot"))

    # -- runs ------------------------------------------------------------------------

    def warm_up(self) -> None:
        self.cycle(self.base - 1)  # checked but not timed

    def run(self, seconds: float, speed: Speedometer) -> tuple[Measured, dict]:
        self.warm_up()
        results: list[CycleResult] = []
        deadline = time.perf_counter() + seconds
        while not results or time.perf_counter() < deadline:
            results.append(self.cycle(self.base + len(results), speed.sample))
        speed.sample()
        self.gates(results[0].digest)

        context = {"cycles": len(results)}
        for phase in ("build", "seal", "verify"):
            context[f"{phase}_p50_s"] = statistics.median(
                speed.scale(getattr(r, phase)) for r in results)
        measured = Measured(ops=len(results), writes=[[r.build, r.seal] for r in results],
                            reads=[[r.verify] for r in results])
        return measured, context

    # -- traced run: fixed work, so counts repeat exactly -------------------------------

    @property
    def trace_seal_cycles(self) -> int:
        return TRACE_CYCLES[self.name]

    @property
    def trace_write_ops(self) -> int:
        return self.trace_seal_cycles  # build and seal are one operator write

    def trace_pass(self, mark=None) -> list[str | None]:
        return [self.cycle(self.base + i, mark).digest for i in range(self.trace_seal_cycles)]

    def after_pass(self, digests: list[str | None]) -> list[str | None]:
        return digests

    def trace_gates(self, fingerprints: list) -> None:
        self.tally.check(all(f == fingerprints[0] for f in fingerprints)
                         and None not in fingerprints[0],
                         "bundle digests differ between passes at the same seeds")
        self.gates(fingerprints[0][0])


# -- the serve session ---------------------------------------------------------------------


def serve_config_text(seed: int) -> str:
    rng = random.Random(seed)
    lines = [f"vm_sectors = {SERVE_VM_SECTORS}"]
    lines += [f"ldap_user.user{k:02d} = pw{rng.getrandbits(48):012x}" for k in range(SERVE_USERS)]
    lines += [f"dns.host{k}.example.com = 192.0.2.{k + 1}" for k in range(8)]
    return "\n".join(lines) + "\n"


def make_script(seed: int, config) -> list[tuple[str, str, object]]:
    """Seeded requests: (verb, request line, what the oracle needs)."""
    rng = random.Random(seed)
    users = list(config.ldap_users)
    domains = sorted(dict(config.dns_table))
    verbs = [verb for verb, count in REQUEST_MIX for _ in range(count)]
    rng.shuffle(verbs)
    script = []
    auths = 0
    for i, verb in enumerate(verbs):
        if verb == "SUBMIT":
            user, password = rng.choice(users)
            name, assets = f"m{rng.randrange(500):03d}", rng.randrange(10**9)
            script.append((verb, f"SUBMIT {name} {assets} {user} {password}", (name, assets)))
        elif verb == "AUTH":
            user, password = rng.choice(users)
            auths += 1
            good = auths % BAD_PASSWORD_EVERY != 0
            script.append((verb, f"AUTH {user} {password if good else password + 'x'}", good))
        elif verb == "RESOLVE":
            domain = rng.choice(domains)
            script.append((verb, f"RESOLVE {domain}", domain))
        elif verb == "MAIL":
            script.append((verb, f"MAIL nick{i}|comment {rng.randrange(10**6)}|", None))
        else:
            script.append((verb, verb, None))
    return script


class Oracle:
    """The benchmark's own model of every response."""

    def __init__(self, config):
        self.config = config
        self.acked: list[tuple[str, int]] = []

    def ranking(self) -> str:
        order = sorted(range(len(self.acked)), key=lambda i: (-self.acked[i][1], i))
        names = [self.acked[i][0] for i in order]
        return "OK " + " ".join(names) if names else "OK"

    def expect(self, verb: str, data) -> str:
        if verb == "SUBMIT":
            return f"OK {len(self.acked)}"
        if verb == "PUBLISH":
            return self.ranking()
        if verb == "SYNC":
            return f"OK {len(self.config.ldap_users)}"
        if verb == "AUTH":
            return "OK accept" if data else "OK reject"
        if verb == "RESOLVE":
            return f"OK {dict(self.config.dns_table)[data]}"
        return "OK sent"

    def observe(self, verb: str, data, response: str) -> None:
        if verb == "SUBMIT" and response.startswith("OK"):
            self.acked.append(data)


@dataclass
class Session:
    config: object
    host: object
    vm: object
    frontend: object
    primary: object
    upstream: object
    shares: list
    writes: list[list[Timed]] = field(default_factory=list)
    reads: list[list[Timed]] = field(default_factory=list)


class ServeWorkload(Workload):
    name = "serve-mixed"

    def setup(self, seed: int | None = None) -> Session:
        """Build, image, seal with escrow, verify the bundle, first SYNC."""
        seed = self.base if seed is None else seed
        check = self.tally.check
        workdir = self.fresh_dir()
        config_path = workdir / "serve.conf"
        config_path.write_text(serve_config_text(seed))
        config = sk_config.load_config(config_path)
        rng = sk_util.make_rng(seed)
        host = sk_sealing.prepare_trusted_server(config, rng=rng, clock=sk_util.SimClock())
        vm = host.nested_vm
        sk_services.attach_data_vault(vm, config.vault_sectors, VAULT_FILES, rng)
        primary = sk_services.CredentialDirectory()
        for user, password in config.ldap_users:
            primary.add_user(user, password, rng)
        upstream = sk_services.UpstreamResolver(table=dict(config.dns_table))

        host_dir, vm_dir = workdir / "images" / "host", workdir / "images" / "vm"
        sk_machine.save_images(host.snapshot_image(), host_dir)
        sk_machine.save_images(vm.snapshot_image(), vm_dir)
        bundle, shares = sk_sealing.seal_all_with_escrow(host, SERVE_ESCROW_PARTIES)
        verdict = sk_verifier.verify_seal(
            sk_machine.load_images(host_dir), sk_machine.load_images(vm_dir), bundle,
            sk_verifier.default_policy(sk_sealing.default_plan(config)),
        )
        check(verdict.status == "PASS", f"serve seed {seed}: bundle verdict {verdict.status}")
        shutil.rmtree(workdir, ignore_errors=True)

        frontend = sk_services.ServiceFrontend(vm, primary_directory=primary, upstream=upstream)
        response = frontend.handle_line("SYNC")
        check(response == f"OK {len(config.ldap_users)}", f"first SYNC answered {response!r}")
        return Session(config, host, vm, frontend, primary, upstream, shares)

    def serve(self, session: Session, seed: int, mark=None,
              speed: Speedometer | None = None) -> Oracle:
        oracle = Oracle(session.config)
        handle = session.frontend.handle_line
        check = self.tally.check
        for i, (verb, line, data) in enumerate(make_script(seed, session.config)):
            write = verb in WRITE_VERBS
            if speed and i % SPEED_SAMPLE_EVERY == 0:
                speed.sample()
            if mark:
                mark("write" if write else "read")
            start = time.perf_counter()
            response = handle(line)
            elapsed = time.perf_counter() - start
            (session.writes if write else session.reads).append([(start, elapsed)])
            expected = oracle.expect(verb, data)
            check(response == expected,
                  f"{line.split()[0]} answered {response[:80]!r}, expected {expected[:80]!r}")
            oracle.observe(verb, data, response)
        return oracle

    def durability_gate(self, session: Session, oracle: Oracle) -> None:
        """Power off, restore the escrowed key record, reboot, re-read the ranking."""
        try:
            session.host.power_off()
            record = sk_escrow.reconstruct(session.shares)
            sk_escrow.apply_wrapped_key_record(session.vm.root_volume, record)
            session.vm.boot()
            fresh = sk_services.ServiceFrontend(session.vm, primary_directory=session.primary,
                                                upstream=session.upstream)
            response = fresh.handle_line("PUBLISH")
            session.vm.power_off()
        except Exception as exc:  # any failure to recover is a gate failure
            response = f"{type(exc).__name__}: {exc}"
        self.tally.check(response == oracle.ranking(),
                         f"ranking after escrow recovery: {response[:80]!r}")

    def run(self, seconds: float, speed: Speedometer) -> tuple[Measured, dict]:
        measured = Measured(ops=0, writes=[], reads=[])
        sessions = 0
        deadline = time.perf_counter() + seconds
        while not sessions or time.perf_counter() < deadline:
            seed = self.base + sessions
            session = self.setup(seed)
            oracle = self.serve(session, seed, speed=speed)
            speed.sample()
            self.durability_gate(session, oracle)
            measured.writes += session.writes
            measured.reads += session.reads
            measured.ops += len(session.writes) + len(session.reads)
            sessions += 1
        return measured, {"sessions": sessions}

    # -- traced run: fixed work, so counts repeat exactly -------------------------------

    trace_seal_cycles = 1
    trace_write_ops = sum(count for verb, count in REQUEST_MIX if verb in WRITE_VERBS)

    def trace_pass(self, mark=None) -> tuple[Session, Oracle]:
        if mark:
            mark("setup")
        session = self.setup(self.base)
        return session, self.serve(session, self.base, mark)

    def after_pass(self, state: tuple[Session, Oracle]) -> str:
        session, oracle = state
        self.durability_gate(session, oracle)
        return oracle.ranking()

    def trace_gates(self, fingerprints: list) -> None:
        self.tally.check(all(f == fingerprints[0] for f in fingerprints),
                         "rankings differ between passes at the same seed")


# -- entry points ------------------------------------------------------------------------


def make_workload(name: str, seed: int, workroot: Path, tally: Tally) -> Workload:
    if name == "cycle-default":
        return CycleWorkload(name, None, seed, workroot, tally)
    if name == "cycle-vm16":
        return CycleWorkload(name, BENCH_DIR / "vm16.conf", seed, workroot, tally)
    if name == "serve-mixed":
        return ServeWorkload(seed, workroot, tally)
    raise ValueError(f"unknown workload {name!r}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name: str, seed: int, seconds: float, workroot: Path,
               tally: Tally) -> tuple[dict, dict]:
    """Times are scaled to the reference machine speed; raw values go to context."""
    setup_s, setup_raw = probe_setup(name, seed, tally)
    workload = make_workload(name, seed, workroot, tally)
    speed = Speedometer()
    measured, context = workload.run(seconds, speed)
    metrics, tails = measured.metrics(speed.scale)
    raw, _ = measured.metrics(lambda op: op[1])
    metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
    context.update(tails, raw=dict(raw, **setup_raw), speed=speed.context())
    return metrics, context


def per_layer(name: str, seed: int, workroot: Path, tally: Tally) -> tuple[dict, dict]:
    """The same fixed work once untraced, then twice traced.

    Times are scaled to the reference speed by the probe samples taken
    around each pass; counts are as recorded.
    """
    workload = make_workload(name, seed, workroot, tally)
    workload.warm_up()
    tracer, speed = Tracer(), Speedometer()
    passes = []  # (summary, seconds at reference speed, reference factor)
    fingerprints = []
    try:
        for traced in (False, True, True):
            if traced and len(passes) == 1:
                tracer.install()
            speed.sample()
            tracer.reset_spans()
            tracer.active = traced
            start = time.perf_counter()
            state = workload.trace_pass(tracer.begin_op if traced else None)
            wall = time.perf_counter() - start
            tracer.active = False
            speed.sample()
            factor = speed.scale((start, 1.0))
            passes.append((tracer.summary() if traced else None, wall * factor, factor))
            fingerprints.append(workload.after_pass(state))
    finally:
        tracer.uninstall()
    workload.trace_gates(fingerprints)

    (_, untraced_s, _), (first, first_s, first_f), (second, second_s, second_f) = passes
    tally.check(first.counts() == second.counts(),
                "call or byte counts differ between two traced passes at the same seed")
    for span in sorted(required_spans()):
        tally.check(first.calls[span] > 0, f"traced function {span} recorded no calls")
    for layer in TRACED_LAYERS:
        tally.check(first.layer_calls[layer] > 0, f"layer {layer} recorded no calls")

    metrics = {}
    a, b = first.metrics(), second.metrics()
    for key, value in a.items():
        metrics[key] = value if isinstance(value, int) else (value * first_f + b[key] * second_f) / 2
    write_ops = workload.trace_write_ops
    metrics["ratio.sectors_per_write_op"] = (
        first.op_kind_count("write", "volume.write_sector", "calls") / write_ops)
    metrics["ratio.encode_bytes_per_write_op"] = (
        first.op_kind_count("write", "tree.FileTree.encode", "bytes") / write_ops)
    metrics["ratio.unlocks_per_seal_cycle"] = (
        first.calls["volume.unlock"] / workload.trace_seal_cycles)
    metrics["trace.overhead"] = (first_s + second_s) / 2 / untraced_s
    metrics["trace.spans"] = first.spans
    context = {"untraced_pass_s": untraced_s, "traced_pass_s": [first_s, second_s],
               "speed": speed.context()}
    return metrics, context


def setup_only(name: str, seed: int, workroot: Path, spawned_at: float) -> int:
    """Body of a setup probe: prepare the workload as a cold process would."""
    tally = Tally()
    workload = make_workload(name, seed, workroot, tally)
    workload.setup()
    setup_s = time.time() - spawned_at
    probe_s = statistics.mean(probe_once() for _ in range(3))
    for problem in tally.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"setup_s": setup_s, "probe_s": probe_s}))
    return 0 if tally.failed == 0 else 1
