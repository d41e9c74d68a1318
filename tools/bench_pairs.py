"""Alternating benchmark pairs of two checkouts, and whether a gain holds.

    python3 tools/bench_pairs.py PARENT CHANGE --workload replication --seed 1234 --pairs 10

PARENT and CHANGE are two checkouts of the repository. Each pair runs the
`perfbench/run.py` of both, one after the other, with the same workload and
seed and the benchmark's own run length; the side that goes first alternates
from pair to pair. Without `--workload`, every workload that PARENT's
BENCHMARK.json declares gets its pairs in turn, and a report of its own.
Each run's result is the JSON object on the last line of its standard
output. For every end-to-end metric that PARENT's
BENCHMARK.json declares, the report gives each side's median and quartiles
(statistics.quantiles, inclusive), the pairs the change won and tied, and:

* whether a gain holds: the change wins at least nine tenths of the pairs,
  ties counting for neither side, its median is better, and the medians
  differ by more than the distance between the parent's quartiles;
* how the change stands against the metric's bound, a fraction of the
  parent's median: "better" when every run of the change is better than
  every run of the parent; else "unresolved" when either side's quartile
  distance exceeds the bound; else "within" when the change's median is
  no worse than the parent's by more than the bound, and "worse" when it
  is.

A run that gives no result, or a result without a finite number for each
declared end-to-end metric, is reported with the tail of its output, and
the pairs go on: each metric is judged over the pairs in which both runs
gave a result, and each side's count of failed runs follows the table.

Only the standard library is used, and neither checkout is changed beyond
what its own benchmark writes. Exit code 0 when every run gave a result, 1
when a run failed, 2 for bad arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

#: Share of the pairs the change must win for a gain.
WIN_SHARE = 0.9


class RunFailed(Exception):
    """A benchmark run that gave no result."""


@dataclass(frozen=True)
class Verdict:
    """One end-to-end metric over the pairs."""

    name: str
    parent: tuple[float, float, float]  # first quartile, median, third quartile
    change: tuple[float, float, float]
    wins: int
    ties: int
    pairs: int
    gain: bool
    bound: str  # "better", "within", "unresolved" or "worse"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(name: str, parent: list[float], change: list[float], better: str,
          bound: float) -> Verdict:
    """The verdict on one metric from its values in each pair, parent[i]
    and change[i] measured in pair i; `better` is "lower" or "higher"."""
    sign = 1.0 if better == "higher" else -1.0  # sign * value grows as it improves
    wins = sum(sign * c > sign * p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    spread = pq[2] - pq[0]
    gained = sign * (cq[1] - pq[1])  # the change's median gain, in the metric's unit
    gain = wins >= WIN_SHARE * len(parent) and gained > spread
    allowed = bound * abs(pq[1])
    if min(sign * c for c in change) > max(sign * p for p in parent):
        verdict = "better"
    elif max(spread, cq[2] - cq[0]) > allowed:
        verdict = "unresolved"
    elif -gained <= allowed:
        verdict = "within"
    else:
        verdict = "worse"
    return Verdict(name, pq, cq, wins, ties, len(parent), gain, verdict)


def result_of(stdout: str) -> dict:
    """The JSON object on the last non-blank line of a benchmark run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RunFailed(f"no JSON result on the last line: {exc}") from exc
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise RunFailed("the last line holds no metrics")
    return result


def run(checkout: Path, workload: str, seed: int, metrics: list[str]) -> dict:
    """The result of one run of `checkout`'s own benchmark, which must give
    a finite number for each of `metrics`."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed)], cwd=checkout, capture_output=True, text=True)
    try:
        result = result_of(proc.stdout)
    except RunFailed as exc:
        raise RunFailed(f"{checkout}: {exc}\n{proc.stdout[-2000:]}"
                        f"{proc.stderr[-2000:]}") from exc
    if proc.returncode != 0 or not result.get("correct"):
        raise RunFailed(f"{checkout}: exit code {proc.returncode}, correct "
                        f"{result.get('correct')}\n{proc.stdout[-2000:]}")
    for name in metrics:
        value = result["metrics"].get(name)
        value = value.get("value") if isinstance(value, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise RunFailed(f"{checkout}: no finite {name} in the result, got {value!r}"
                            f"\n{proc.stdout[-2000:]}")
    return result


def report(verdicts: list[Verdict]) -> str:
    """A table of the verdicts, one metric a line."""
    def side(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{'metric':<14} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
             f"{'wins':>6} {'ties':>5}  gain  bound"]
    for v in verdicts:
        lines.append(f"{v.name:<14} {side(v.parent):<30} {side(v.change):<30} "
                     f"{v.wins:>3}/{v.pairs:<2} {v.ties:>5}  {'yes' if v.gain else 'no':<4}  "
                     f"{v.bound}")
    return "\n".join(lines)


def compare(args: argparse.Namespace, workload: str, declared: list[dict]) -> int:
    """Runs the pairs of one workload and prints its report; 1 when a run
    failed, else 0. A failed run counts as None, and its pair is judged on
    no metric."""
    results: dict[str, list[dict | None]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for name in order:
            try:
                result = run(getattr(args, name), workload, args.seed,
                             [metric["name"] for metric in declared])
            except RunFailed as exc:
                print(f"{workload} pair {i + 1}: {name} run failed: {exc}", file=sys.stderr)
                result = None
            results[name].append(result)
        print(f"{workload} pair {i + 1}/{args.pairs} done ({' then '.join(order)})",
              flush=True)

    whole = [i for i in range(args.pairs) if results["parent"][i] and results["change"][i]]
    verdicts = []
    for metric in declared:
        name = metric["name"]
        values = {side: [runs[i]["metrics"][name]["value"] for i in whole]
                  for side, runs in results.items()}
        print(f"{name} parent {values['parent']}")
        print(f"{name} change {values['change']}")
        if whole:
            verdicts.append(judge(name, values["parent"], values["change"], metric["better"],
                                  metric["bound"]))
    failed = {side: runs.count(None) for side, runs in results.items()}
    print(f"workload {workload}, seed {args.seed}, {args.pairs} pairs")
    print(report(verdicts) if whole else "no pair in which both runs gave a result")
    print(f"failed runs: parent {failed['parent']}, change {failed['change']}")
    return 1 if any(failed.values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", help="default: every workload of PARENT's benchmark")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
        declared = benchmark["end_to_end"]
        workloads = ([args.workload] if args.workload
                     else [workload["name"] for workload in benchmark["workloads"]])
    except (OSError, ValueError, LookupError, TypeError) as exc:
        parser.error(f"cannot read the benchmark of {args.parent}: {exc}")
    return max([compare(args, workload, declared) for workload in workloads])


if __name__ == "__main__":
    sys.exit(main())
