"""Smoke tests of the audit benchmark harness on the mini corpus.

Run: PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
import requests

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as harness  # noqa: E402
import stub as stub_server  # noqa: E402
from speed import SpeedProbe, scaled_seconds  # noqa: E402
from traced_audit import LAYER_SPANS, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

MINI_CORPUS = harness.ROOT / "src" / "hirefair" / "data" / "fixtures" / "mini_corpus.jsonl"


def mini_bench(tmp_path: Path, seed: int, reference: str = "") -> harness.Bench:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema_version": 1, "corpus": str(MINI_CORPUS), "out_dir": "out",
        "master_seed": seed,
        "backends": [{"id": "mock-embed", "kind": "embedding", "protocol": "mock",
                      "model_name": "bow-256"}],
        "grid": {"n_values": [5], "x_values": [10]},
    }))
    workload = Workload(name="mini", reference_report_sha256=reference,
                        embed_id="mock-embed")
    bench = harness.Bench(workload, config, seed, stub=None,
                          deadline=time.monotonic() + 120)
    bench.out, bench.logs = tmp_path / "out", tmp_path / "logs"
    return bench


def test_output_check_catches_corrupted_report(tmp_path):
    bench = mini_bench(tmp_path, seed=7)
    assert bench.audit("cold") is not None
    assert bench.audit("warm") is not None
    assert bench.check() == []
    with (bench.out / "report.csv").open("a", encoding="utf-8") as fh:
        fh.write("exclusion,bow-256,typo,n=5,,0.5,1\n")
    problems = bench.check()
    assert problems and "report.csv" in problems[0]


def test_reference_digest_mismatch_counts_as_failed_audit(tmp_path):
    bench = mini_bench(tmp_path, seed=DEFAULT_SEED, reference="0" * 64)
    assert bench.audit("cold") is None
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "reference digest" in bench.problems[0]


def test_traced_audit_accounts_for_its_wall_time(tmp_path):
    bench = mini_bench(tmp_path, seed=7)
    trace = tmp_path / "trace.json"
    proc = bench.audit("traced", trace=trace)
    assert proc is not None
    metrics = layer_metrics(json.loads(trace.read_text()), proc.wall_s)
    layer_s = [metrics[name] for name in LAYER_SPANS.values()] + [metrics["cli.startup_s"]]
    assert min(layer_s) >= 0.0
    assert sum(layer_s) == pytest.approx(proc.wall_s)
    # 12 resumes in 24 variants, scored against 3 jobs
    assert metrics["perturb.variant_resumes"] == 288
    assert metrics["backends.embed_texts"] == 288 + 3
    assert metrics["retrieval.pairs_scored"] == 288 * 3
    assert metrics["backends.cache_misses"] > 0
    assert metrics["report.bytes_written"] > 0


def test_scaled_seconds_rescales_only_the_computing_part():
    # 6 s of waiting kept, 4 s of computing at half the reference speed
    assert scaled_seconds(10.0, 4.0, 0.5) == pytest.approx(8.0)
    # CPU time on several CPUs counts for at most the wall time
    assert scaled_seconds(10.0, 15.0, 1.25) == pytest.approx(12.5)


def test_speed_probe_samples_until_closed():
    probe = SpeedProbe()
    start = time.perf_counter()
    time.sleep(0.3)
    end = time.perf_counter()
    probe.close()
    assert any(start <= at <= end for at, _ in probe.samples)
    assert 0.0 < probe.factor(start, end) < 100.0
    assert probe.factor(end + 10, end + 20) == 1.0  # no samples: unscaled


def post(session, url, body):
    resp = session.post(url, json=body, timeout=10)
    return resp.status_code, resp.content


def test_stub_is_deterministic_and_refuses_a_body_once():
    bodies = {
        "/v1/embeddings": {"model": "m", "input": ["a resume"]},
        "/v1/chat/completions": {"model": "m", "temperature": 0.0,
                                 "messages": [{"role": "user", "content": "hi"}]},
        "/regard": {"text": "a summary"},
    }
    failing = next(
        body for body in ({"model": "m", "input": [f"text {i}"]} for i in range(10_000))
        if stub_server.first_attempt_status(stub_server.request_digest(body)))
    stubs = [harness.Stub(), harness.Stub()]
    try:
        with requests.Session() as session:
            session.trust_env = False
            answers = [[post(session, s.url + path, body) for path, body in bodies.items()]
                       for s in stubs]
            assert answers[0] == answers[1]
            assert all(status == 200 for status, _ in answers[0])
            regard = json.loads(answers[0][2][1])
            assert sum(regard.values()) == pytest.approx(1.0, abs=1e-9)

            url = stubs[0].url + "/v1/embeddings"
            assert post(session, url, failing)[0] in (429, 503)
            assert post(session, url, failing)[0] == 200
            assert stubs[0].stats() == {"requests": 5, "retries": 1, "failed": 0,
                                        "inflight_max": 1}
            stubs[0].reset()
            assert post(session, url, failing)[0] in (429, 503)
    finally:
        for s in stubs:
            s.close()
    assert all(s.proc.returncode == 0 for s in stubs)


def test_metric_declarations_match_benchmark_json():
    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replication",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
