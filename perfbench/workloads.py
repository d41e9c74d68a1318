"""Workload inputs for the audit benchmark.

Each workload is a `hirefair run` config plus the corpus it names. Inputs are
made from the workload seed alone: the seed picks the synthetic corpus and
becomes the run's master seed, so one seed always gives the same inputs.
Generated files live under a fixed directory per (workload, seed), so repeated
runs read the same paths.
"""

from __future__ import annotations

import importlib.util
import json
import random
from dataclasses import dataclass
from pathlib import Path

#: Seed of the shipped replication config (`mock_run.json`).
DEFAULT_SEED = 1234

OCCUPATIONS = ("Data Analyst", "UX Designer", "Technical Writer")

#: Criterion-8 artifacts, as produced by each workload's backends.
RETRIEVAL_FILES = ("scores_{embed}.csv", "nonuniformity_tests.jsonl",
                   "plot_exclusion.csv", "plot_nonuniformity.csv")
SUMMARY_FILES = ("summaries_{complete}.jsonl", "measures_{complete}.jsonl",
                 "t_tests.jsonl", "plot_violation_rate.csv")
COMMON_FILES = ("manifest.json", "ledger.jsonl", "report.csv", "report.json")


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each exists."""

    name: str
    #: sha256 of report.csv at DEFAULT_SEED; outputs at other seeds are only
    #: checked for byte-identity between repetitions.
    reference_report_sha256: str
    embed_id: str = ""
    complete_id: str = ""
    uses_stub: bool = False

    def artifacts(self) -> list[str]:
        names = list(COMMON_FILES)
        if self.embed_id:
            names += [n.format(embed=self.embed_id) for n in RETRIEVAL_FILES]
        if self.complete_id:
            names += [n.format(complete=self.complete_id) for n in SUMMARY_FILES]
        return names

    def metrics(self) -> set[str]:
        """Metric kinds report.csv must contain."""
        kinds = set()
        if self.embed_id:
            kinds |= {"exclusion", "nonuniformity"}
        if self.complete_id:
            kinds.add("violation_rate")
        return kinds


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="replication",
            reference_report_sha256="83f519e70deb034ca72e4b85b61f04feaef1bf73cab0a0f19ad2c02e0e2dfbb8",
            embed_id="mock-embed", complete_id="mock-complete",
        ),
        Workload(
            name="live-stub",
            reference_report_sha256="480ec2966d3d7ca75ce4d94b2af60893e2341790c7f72a7e3946c75d229f44d1",
            embed_id="stub-embed", complete_id="stub-chat", uses_stub=True,
        ),
    )
}


def load_make_fixtures(root: Path):
    """Import tools/make_fixtures.py from the checkout under test."""
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", root / "tools" / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _synthetic_corpus(root: Path, seed: int, per_occupation: int,
                      jobs_per_occupation: int, prefix: str, path: Path) -> None:
    """Build a corpus with make_fixtures.build_corpus, check it, and save it."""
    from hirefair.corpus import load_name_pools, pair_jobs, save_corpus, validate_corpus

    fixtures = load_make_fixtures(root)
    resumes, jobs = fixtures.build_corpus(
        random.Random(seed), {o: per_occupation for o in OCCUPATIONS}, prefix,
        [o for o in OCCUPATIONS for _ in range(jobs_per_occupation)],
    )
    problems = validate_corpus(resumes, jobs, load_name_pools())
    if problems:
        raise ValueError("generated corpus fails validation:\n" + "\n".join(problems))
    if "unmatched" in pair_jobs(resumes, jobs):
        raise ValueError("generated corpus has resumes without a matching job")
    save_corpus(resumes, jobs, path)


def stub_backends(stub_url: str) -> list[dict]:
    retry = {"max": 3, "base_delay_ms": 5}
    return [
        {"id": "stub-embed", "kind": "embedding", "protocol": "openai-compatible",
         "model_name": "stub-embed-64", "endpoint": f"{stub_url}/v1/embeddings",
         "parallelism": 2, "retry": retry},
        {"id": "stub-chat", "kind": "completion", "protocol": "openai-compatible",
         "model_name": "stub-chat", "endpoint": f"{stub_url}/v1/chat/completions",
         "parallelism": 2, "retry": retry},
    ]


def prepare(workload: Workload, root: Path, work: Path, seed: int,
            stub_url: str = "") -> Path:
    """Write the workload's inputs under `work` and return its config path."""
    if workload.name == "replication":
        return root / "src" / "hirefair" / "data" / "fixtures" / "mock_run.json"

    inputs = work / "inputs" / f"{workload.name}-seed{seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    config = {"schema_version": 1, "corpus": "corpus.jsonl", "out_dir": "out",
              "master_seed": seed}
    if workload.name == "live-stub":
        _synthetic_corpus(root, seed, 8, 1, "stub-r", inputs / "corpus.jsonl")
        config["backends"] = stub_backends(stub_url)
        config["grid"] = {"n_values": [5, 10], "x_values": [5, 10],
                          "temperatures": [0.0, 0.3], "lengths": [100],
                          "povs": ["third"], "runs": 2}
        config["regard_endpoint"] = f"{stub_url}/regard"
    else:
        raise ValueError(f"unknown workload {workload.name!r}")
    path = inputs / "config.json"
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
