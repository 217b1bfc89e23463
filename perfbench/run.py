"""sealkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cycle-default, cycle-vm16, serve-mixed, or ``all`` (each workload in
its own process, one after another). With ``--trace 0`` the last line of
stdout is a JSON object carrying every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` it carries every per-layer metric from a traced run. The
line before it is a JSON context object: interpreter and library versions,
CPU count, the machine-speed probe samples, raw (unscaled) times and
workload details. Any failed check makes the exit code non-zero.

Run from the root of a checkout: sealkit is imported from ``src/`` there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("cycle-default", "cycle-vm16", "serve-mixed")


def locate_sources() -> None:
    """Import sealkit from the checkout's src/, or stop without a result."""
    if not (SRC / "sealkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sealkit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import sealkit

    if Path(sealkit.__file__).resolve().parent != (SRC / "sealkit").resolve():
        sys.exit(f"perfbench: sealkit was imported from {sealkit.__file__}, not {SRC}")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one cold start, spawned at the given time.time()
    parser.add_argument("--setup-probe", type=float, metavar="SPAWNED_AT", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; relay its output, then a summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        for name, metric in result["metrics"].items():
            print(f"{workload:14s} {name:40s} {metric['value']:>14.6g} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    locate_sources()
    if args.workload == "all":
        return run_all(args)
    import workloads

    workroot = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe is not None:
            return workloads.setup_only(args.workload, args.seed, workroot, args.setup_probe)
        return measure(workloads, args, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workroot.parent.rmdir()


def measure(workloads, args: argparse.Namespace, workroot: Path) -> int:
    import cryptography

    units = declared_metrics(bool(args.trace))
    tally = workloads.Tally()
    if args.trace:
        values, details = workloads.per_layer(args.workload, args.seed, workroot, tally)
    else:
        values, details = workloads.end_to_end(args.workload, args.seed, args.seconds,
                                               workroot, tally)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "details": details,
        "problems": tally.problems,
    }
    for problem in tally.problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
