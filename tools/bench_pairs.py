"""Alternating before/after benchmark pairs, recorded as one JSON document.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --seed N --seconds S --pairs P --out BENCH_<n>.json

DIR is the root of a checkout; each run is ``python3 perfbench/run.py
--workload NAME --seed N --seconds S --trace 0`` started in that checkout.
Pair i runs the parent first when i is even and the change first when it is
odd. The result line (the last line run.py prints) and the context line
before it are stored as printed, with the order and exit code of each run;
a run that prints no such lines keeps its exit code and stdout instead, and
its pair is left out of the summary.
An existing ``--out`` file keeps its other workloads; this workload's entry
is replaced. The summary gives, per end-to-end metric, both medians, the
parent's interquartile range, the number of pairs the change wins, whether
the change's median is worse than the parent's by more than the metric's
``bound`` in ``BENCHMARK.json`` (a fraction of the parent median), and whether
it shows a gain: the change wins at least nine tenths of the pairs with
results and its median beats the parent's by more than the parent's
interquartile range, both in the metric's ``better`` direction. A metric is
``unresolved`` when the parent's interquartile range is wider than its bound
(as a fraction of the parent median) and not every change run beats every
parent run: its spread is too wide to tell it from unchanged. It also gives
both medians of the work each run's context line counts (``details.cycles``
on the cycle workloads, ``details.sessions`` on serve), so a metric that
follows the amount of work done, such as serve's ``peak_rss_mb``, can be read
against it. Per side it also sums the operations the runs attempted and those
that failed, so each side's share of failed operations can be read from it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, command: list[str]) -> dict:
    """One run; without its two JSON lines, the run keeps its exit code and stdout."""
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return {"returncode": proc.returncode,
                "context": json.loads(lines[-2])["context"],
                "result": json.loads(lines[-1])}
    except (IndexError, KeyError, ValueError):
        return {"returncode": proc.returncode or 1, "stdout": proc.stdout}


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """``end_to_end`` is ``BENCHMARK.json``'s list of metrics, each with its
    ``name``, ``better`` direction and ``bound``."""
    pairs = [p for p in pairs if "result" in p["parent"] and "result" in p["change"]]
    summary = {"pairs_with_results": len(pairs)}
    if len(pairs) < 2:
        return summary
    for metric in end_to_end:
        name, direction = metric["name"], metric["better"]
        parent = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        q1, q3 = quartiles(parent)
        sign = 1 if direction == "higher" else -1
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        relative = change_median / parent_median - 1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        separated = all(sign * (c - p) > 0 for p in parent for c in change)
        summary[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "relative_change": relative,
            "parent_iqr": q3 - q1,
            "change_better_pairs": wins,
            "better": direction,
            "bound": metric["bound"],
            "worse_than_bound": -sign * relative > metric["bound"],
            "gain_shown": (10 * wins >= 9 * len(pairs)
                           and sign * (change_median - parent_median) > q3 - q1),
            "unresolved": q3 - q1 > metric["bound"] * parent_median and not separated,
        }
    for count in ("cycles", "sessions"):
        if all(count in p[side]["context"]["details"]
               for p in pairs for side in ("parent", "change")):
            summary[f"details.{count}"] = {
                f"{side}_median": statistics.median(p[side]["context"]["details"][count]
                                                    for p in pairs)
                for side in ("parent", "change")}
    for count in ("attempted", "failed"):
        summary[count] = {side: sum(p[side]["result"][count] for p in pairs)
                          for side in ("parent", "change")}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for an interquartile range")

    command = ["python3", "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", "0"]
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"pair": i, "order": list(order)}
        for side in order:
            run = pair[side] = run_once(getattr(args, side), command)
            shown = (" ".join(f"{m['name']}={run['result']['metrics'][m['name']]['value']:.6g}"
                              for m in end_to_end)
                     if "result" in run else f"no result line, exit code {run['returncode']}")
            print(f"pair {i} {side:6s} {shown}", file=sys.stderr)
        pairs.append(pair)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    doc["workloads"][args.workload] = {
        "command": command,
        "seed": args.seed,
        "seconds": args.seconds,
        "summary": summarize(pairs, end_to_end),
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if all(p[s]["returncode"] == 0 for p in pairs for s in ("parent", "change")) else 1


if __name__ == "__main__":
    sys.exit(main())
