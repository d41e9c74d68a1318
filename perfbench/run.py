"""Audit benchmark: one workload through `hirefair run`, timed from outside.

Run from anywhere; paths resolve against the checkout that holds this file:

    python3 perfbench/run.py --workload replication --seed 1234 --seconds 52 --trace 0

`--trace 0` times `python -m hirefair.cli run` in fresh processes, one at a
time (a closed loop with one client). It first times five set-up probes, then
repeats a cold audit into an empty output directory followed by a warm rerun
into the same directory, and reports medians of times taken at a reference
CPU speed (see speed.py). A repetition starts only if,
judged by the previous one, at least half of it falls within `--seconds`; the
first always runs.
`--trace 1` runs one untraced cold audit, then a traced cold audit and a
traced warm rerun, and reports per-layer metrics from the trace.

Every audit's outputs are checked (see `Bench.check`). The last line of
stdout is a JSON object with `correct`, `attempted`, `failed` and `metrics`;
the exit code is 1 when a check failed, 2 when the checkout cannot be run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedProbe, scaled_seconds
from traced_audit import layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REQUIRED = ("src/hirefair/cli.py", "tools/make_fixtures.py")

#: Wall-clock cap for one benchmark invocation; children are killed past it.
BUDGET_S = 170.0
SETUP_PROBES = 5

END_TO_END = {
    "audit_s": "s", "rerun_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "cache_mb": "MB", "success_rate": "ratio",
}
PER_LAYER = {
    "corpus.load_s": "s", "perturb.build_s": "s", "perturb.variant_resumes": "count",
    "backends.embed_s": "s", "backends.embed_texts": "count",
    "retrieval.score_s": "s", "retrieval.pairs_scored": "count",
    "retrieval.metrics_s": "s",
    "backends.complete_s": "s", "backends.complete_calls": "count",
    "backends.cache_hits": "count", "backends.cache_misses": "count",
    "backends.cache_hit_ratio": "ratio",
    "backends.http_requests": "count", "backends.http_retries": "count",
    "backends.http_failed": "count", "backends.http_inflight_max": "count",
    "textmetrics.measure_s": "s", "textmetrics.texts": "count",
    "textmetrics.texts_per_s": "1/s",
    "textmetrics.regard_s": "s", "textmetrics.regard_fallbacks": "count",
    "stats.pair_s": "s", "stats.test_s": "s", "stats.t_tests": "count",
    "report.write_s": "s", "report.bytes_written": "bytes",
    "pipeline.self_s": "s", "cli.startup_s": "s",
    "trace.audit_s": "s", "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    no_proxy = ",".join(p for p in (env.get("NO_PROXY", ""), "127.0.0.1") if p)
    env["NO_PROXY"] = env["no_proxy"] = no_proxy
    return env


@dataclass
class Proc:
    wall_s: float
    cpu_s: float  # user + system time of the child
    maxrss_mb: float
    code: int
    start: float  # perf_counter values
    end: float


def run_child(cmd: list[str], log: Path, deadline: float) -> Proc:
    """Run `cmd` to completion; its output goes to `log`. The child is killed
    at `deadline` (a time.monotonic value)."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage, unlike RUSAGE_CHILDREN
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall_s=end - start, cpu_s=usage.ru_utime + usage.ru_stime,
                maxrss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                start=start, end=end)


def tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Stub:
    """The loopback stub backend, run as its own process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        timer = threading.Timer(30.0, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline().decode()
        finally:
            timer.cancel()
        if not line.startswith("port "):
            self.close()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        self._open = urllib.request.build_opener(urllib.request.ProxyHandler({})).open

    def reset(self) -> None:
        self._open(urllib.request.Request(f"{self.url}/_reset", data=b"{}",
                                          method="POST"), timeout=10).read()

    def stats(self) -> dict:
        with self._open(f"{self.url}/_stats", timeout=10) as resp:
            return json.load(resp)

    def close(self) -> None:
        self.proc.stdin.close()  # the stub exits at EOF on stdin
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """Runs and checks the audits of one workload at one seed."""

    def __init__(self, workload, config: Path, seed: int, stub: Stub | None,
                 deadline: float, speed: SpeedProbe | None = None):
        self.workload = workload
        self.config = config
        self.seed = seed
        self.stub = stub
        self.deadline = deadline
        self.speed = speed
        self.out = WORK / "out" / workload.name
        self.logs = WORK / "logs" / workload.name
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None

    def record_problem(self, phase: str, problem: str) -> None:
        message = f"{self.workload.name} seed {self.seed} {phase}: {problem}"
        self.problems.append(message)
        print(message, file=sys.stderr)

    def check(self) -> list[str]:
        """Problems with the artifacts in the output directory.

        report.csv must match the workload's reference digest at the default
        seed. At any seed the criterion-8 artifacts must be byte-identical to
        those of the first audit of this invocation (cold, warm and repeats).
        manifest.json, ledger.jsonl and report.json embed the absolute corpus
        path, so only report.csv is compared across checkouts.
        """
        names = self.workload.artifacts()
        missing = [n for n in names if not (self.out / n).is_file()]
        if missing:
            return [f"missing artifacts {missing}"]
        digests = {n: sha256_file(self.out / n) for n in names}
        problems = []
        if (self.seed == DEFAULT_SEED
                and digests["report.csv"] != self.workload.reference_report_sha256):
            problems.append("report.csv differs from the reference digest "
                            f"(got {digests['report.csv']})")
        with (self.out / "report.csv").open(newline="", encoding="utf-8") as fh:
            kinds = {row["metric"] for row in csv.DictReader(fh)}
        if kinds != self.workload.metrics():
            problems.append(f"report.csv metrics {sorted(kinds)}, "
                            f"expected {sorted(self.workload.metrics())}")
        if self.reference is None:
            self.reference = digests
        else:
            changed = [n for n in names if digests[n] != self.reference[n]]
            if changed:
                problems.append(f"not byte-identical to the first audit: {changed}")
        return problems

    def audit(self, phase: str, trace: Path | None = None) -> Proc | None:
        """One `hirefair run`; None when it failed (exit code or check)."""
        if trace is None:
            cmd = [sys.executable, "-m", "hirefair.cli"]
        else:
            cmd = [sys.executable, str(HERE / "traced_audit.py"), str(trace)]
        cmd += ["run", "--config", str(self.config), "--out", str(self.out),
                "--seed", str(self.seed)]
        log = self.logs / f"{phase}.log"
        self.attempted += 1
        proc = run_child(cmd, log, self.deadline)
        problems = [f"exit code {proc.code}, see {log}"] if proc.code else self.check()
        for problem in problems:
            self.record_problem(phase, problem)
        if problems:
            self.failed += 1
            return None
        return proc

    def fresh(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        if self.stub is not None:
            self.stub.reset()

    def setup_probe(self) -> float:
        proc = run_child([sys.executable, str(HERE / "setup_probe.py"),
                          str(self.config), str(self.seed)],
                         self.logs / "setup.log", self.deadline)
        if proc.code:
            self.record_problem("setup", f"probe exit code {proc.code}")
        return self.seconds(proc)

    def seconds(self, proc: Proc) -> float:
        """`proc`'s wall time with its computing part at the reference CPU
        speed (see speed.py); the plain wall time without a speed probe."""
        if self.speed is None:
            return proc.wall_s
        return scaled_seconds(proc.wall_s, proc.cpu_s,
                              self.speed.factor(proc.start, proc.end))

    def timed(self, seconds: float) -> dict[str, float]:
        start = time.monotonic()
        setup = [self.setup_probe() for _ in range(SETUP_PROBES)]
        samples: dict[str, list[float]] = {k: [] for k in
                                           ("audit_s", "rerun_s", "peak_rss_mb", "cache_mb")}
        wall: dict[str, list[float]] = {"audit_s": [], "rerun_s": []}
        rep_s = 0.0  # duration of the last repetition
        # A repetition starts when at least half of it fits in `seconds`, so
        # a run whose repetition takes up to about 60% of `seconds` gets two.
        while not samples["audit_s"] or (
                time.monotonic() - start + rep_s / 2 <= seconds
                and time.monotonic() + rep_s < self.deadline):
            rep_start = time.monotonic()
            self.fresh()
            cold = self.audit("cold")
            if cold is None:
                break
            cache_mb = tree_bytes(self.out / "cache") / 1e6
            warm = self.audit("warm")
            if warm is None:
                break
            samples["audit_s"].append(self.seconds(cold))
            samples["peak_rss_mb"].append(cold.maxrss_mb)
            samples["cache_mb"].append(cache_mb)
            samples["rerun_s"].append(self.seconds(warm))
            wall["audit_s"].append(cold.wall_s)
            wall["rerun_s"].append(warm.wall_s)
            rep_s = time.monotonic() - rep_start
        # Time left over goes to more warm reruns, which are cheap when the
        # cold audit is mostly waiting on a backend.
        while (samples["rerun_s"] and not self.failed
               and time.monotonic() - start + wall["rerun_s"][-1] <= seconds):
            warm = self.audit("warm")
            if warm is None:
                break
            samples["rerun_s"].append(self.seconds(warm))
            wall["rerun_s"].append(warm.wall_s)
        print(f"repetitions: {len(samples['audit_s'])}")
        for name in ("audit_s", "rerun_s"):
            print(f"{name} samples {[round(x, 3) for x in samples[name]]}; "
                  f"wall {[round(x, 3) for x in wall[name]]}")
        metrics = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
        metrics["setup_s"] = statistics.median(setup)
        metrics["success_rate"] = 1.0 - self.failed / self.attempted
        return metrics

    def traced(self) -> dict[str, float]:
        self.fresh()
        plain = self.audit("untraced-cold")
        self.fresh()
        traces = [WORK / "trace-cold.json", WORK / "trace-warm.json"]
        cold = self.audit("traced-cold", trace=traces[0])
        http = self.stub.stats() if self.stub else {}
        warm = self.audit("traced-warm", trace=traces[1])
        if plain is None or cold is None or warm is None:
            return {}
        cold_trace, warm_trace = (json.loads(t.read_text()) for t in traces)
        metrics = layer_metrics(cold_trace, cold.wall_s)
        for name in ("backends.cache_hits", "backends.cache_misses"):
            metrics[name] += warm_trace["counters"][name]
        lookups = metrics["backends.cache_hits"] + metrics["backends.cache_misses"]
        metrics["backends.cache_hit_ratio"] = (
            metrics["backends.cache_hits"] / lookups if lookups else 0.0)
        for name in ("requests", "retries", "failed", "inflight_max"):
            metrics[f"backends.http_{name}"] = http.get(name, 0)
        metrics["trace.audit_s"] = cold.wall_s
        metrics["trace.overhead_s"] = cold.wall_s - plain.wall_s
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time `hirefair run` on one workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=52.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a hirefair checkout (missing {missing})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # workloads.prepare imports hirefair
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    # SystemExit unwinds through run_child and the finally below, which stop
    # the running child and the stub.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + BUDGET_S
    stub = Stub() if workload.uses_stub else None
    speed = None
    try:
        config = prepare(workload, ROOT, WORK, args.seed, stub.url if stub else "")
        # Timed runs report times at a reference CPU speed; traced runs
        # report plain wall times.
        speed = None if args.trace else SpeedProbe()
        bench = Bench(workload, config, args.seed, stub, deadline, speed)
        measured = bench.traced() if args.trace else bench.timed(args.seconds)
    finally:
        if speed is not None:
            speed.close()
        if stub is not None:
            stub.close()
        shutil.rmtree(WORK / "out", ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{args.workload:<14} {name:<28} {metric['value']:>16.6f} {metric['unit']}")
    error_rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"{args.workload:<14} {'error_rate':<28} {error_rate:>16.6f} ratio "
          f"({bench.failed} of {bench.attempted} audits failed)")
    correct = not bench.problems and bench.attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(bench.attempted, 1),
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
