import collections
import dataclasses
import hashlib
import itertools
import json
import logging
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import sqlite3
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import closing, contextmanager
from pathlib import Path

import pytest
from click.testing import CliRunner

from hirefair import backends, pipeline
from hirefair.backends import (
    MAP_CHUNK,
    BackendError,
    CompletionBackend,
    CompletionRequest,
    EmbeddingBackend,
    JsonEndpoint,
    ResponseCache,
    Stopped,
    build_backend,
    cache_key,
    cpu_map,
    decode_response,
)
from hirefair.cli import main
from hirefair.config import ConfigError, backend_from_dict, load_run_config
from hirefair.corpus import GROUP_CODES, Resume, load_corpus, load_name_pools, save_corpus
from hirefair.perturb import save_plan
from hirefair.pipeline import (
    SWAPS,
    DataError,
    build_variants,
    derive_seed,
    run_audit,
    summary_prompt,
    variant_plans,
    variant_table,
)
from hirefair.report import make_entry, read_ledger
from hirefair.retrieval import cosine, read_score_table
from hirefair.records import open_jsonl, to_row
from hirefair.textmetrics import SummaryRecord, read_measures, read_summaries, summary_lines

from conftest import cached_response, recorded_tasks


def write_config(tmp_path, fixtures_dir, **extra):
    """Small, fast config: one grid cell, mini corpus."""
    doc = {
        "schema_version": 1,
        "corpus": str(fixtures_dir / "mini_corpus.jsonl"),
        "out_dir": str(tmp_path / "out"),
        "master_seed": 7,
        "backends": [
            {"id": "emb", "kind": "embedding", "protocol": "mock",
             "model_name": "bow-256"},
            {"id": "gen", "kind": "completion", "protocol": "mock",
             "model_name": "mock-summarizer"},
        ],
        "grid": {"n_values": [3], "x_values": [25], "temperatures": [0.0],
                 "lengths": [100], "povs": ["third"], "runs": 1},
    }
    doc.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_load_config_defaults(tmp_path, fixtures_dir):
    config = load_run_config(write_config(tmp_path, fixtures_dir))
    assert config.alpha == 0.05
    assert config.correction == "bh"
    assert config.grid.runs == 1
    assert [b.id for b in config.embedding_backends()] == ["emb"]
    assert [b.id for b in config.completion_backends()] == ["gen"]


def test_replication_preset_pins_grid(tmp_path, fixtures_dir):
    path = write_config(tmp_path, fixtures_dir, preset="replication",
                        grid={"n_values": [5]})
    config = load_run_config(path)
    assert config.grid.temperatures == (0.0, 0.3)
    assert config.grid.lengths == (100, 200)
    assert config.grid.povs == ("first", "third")
    assert config.grid.runs == 5
    assert config.grid.n_values == (5,)


def test_replication_preset_rejects_pinned_overrides(tmp_path, fixtures_dir):
    path = write_config(tmp_path, fixtures_dir, preset="replication",
                        grid={"runs": 2})
    with pytest.raises(ConfigError, match="pins"):
        load_run_config(path)
    path2 = write_config(tmp_path, fixtures_dir, preset="replication", alpha=0.10)
    with pytest.raises(ConfigError, match="alpha"):
        load_run_config(path2)
    path3 = write_config(tmp_path, fixtures_dir, preset="replication",
                         grid={"n_values": [3], "x_values": [25]})
    with pytest.raises(ConfigError, match="alpha"):
        load_run_config(path3, alpha=0.2)
    result = CliRunner().invoke(main, ["run", "--config", str(path3), "--alpha", "0.2"])
    assert result.exit_code == 2
    assert "alpha" in result.output


def test_config_rejects_unknown_keys(tmp_path, fixtures_dir):
    path = write_config(tmp_path, fixtures_dir, draws=2)  # belongs under grid
    with pytest.raises(ConfigError, match="unknown top-level key.*draws"):
        load_run_config(path)
    path = write_config(tmp_path, fixtures_dir, grid={"run": 2})
    with pytest.raises(ConfigError, match="unknown grid key.*run"):
        load_run_config(path)


def test_config_validation_errors(tmp_path, fixtures_dir):
    with pytest.raises(ConfigError, match="schema_version"):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        load_run_config(path)
    path = write_config(tmp_path, fixtures_dir, correction="fdr")
    with pytest.raises(ConfigError, match="correction"):
        load_run_config(path)
    path = write_config(tmp_path, fixtures_dir, grid={"temperatures": [0.9]})
    with pytest.raises(ConfigError, match="temperature"):
        load_run_config(path)
    path = write_config(tmp_path, fixtures_dir, backends=[])
    with pytest.raises(ConfigError, match="backend"):
        load_run_config(path)


MOCK_EMBED = {"id": "emb", "kind": "embedding", "protocol": "mock", "model_name": "bow-256"}


@pytest.mark.parametrize("extra", [
    {"alpha": "abc"},
    {"master_seed": "seven"},
    {"typo_count": [1]},
    {"grid": {"runs": "two"}},
    {"grid": {"draws": None}},
    {"backends": [dict(MOCK_EMBED, parallelism="many")]},
    {"backends": [dict(MOCK_EMBED, max_chars="abc")]},
    {"backends": [dict(MOCK_EMBED, retry={"max": "x"})]},
    {"backends": [dict(MOCK_EMBED, colour="red")]},
    {"backends": [dict(MOCK_EMBED, retry={"tries": 3})]},
    {"backends": [dict(MOCK_EMBED, protocol="echo")]},
    {"backends": [dict(MOCK_EMBED, kind="completion", protocol="mock-biased")]},
    {"backends": [dict(MOCK_EMBED, params={"dim": "abc"})]},
    {"backends": [dict(MOCK_EMBED, protocol="mock-biased", params={"tag_bias": [1]})]},
    {"backends": [dict(MOCK_EMBED, params={"dim": 0})]},
    {"grid": {"n_values": ["a"]}},
    {"grid": {"x_values": 5}},
    {"extracurricular": "false"},
    {"corpus": 7},
    {"out_dir": 3},
    {"frequency_table": 5},
    {"occupation_aliases": [1]},
    {"occupation_aliases": {"IT": 5}},
    {"master_seed": 7.9},
    {"master_seed": True},
    {"typo_count": 2.5},
    {"alpha": "0.05"},
    {"grid": [["n_values", [3]], ["x_values", [25]]]},
    pytest.param("[]", id="config-not-an-object"),
    pytest.param('{"schema_version": 1}', id="config-without-corpus"),
    {"grid": {"temperatures": []}},
    {"grid": {"lengths": []}},
    {"grid": {"povs": []}},
])
def test_bad_config_values_are_config_errors(tmp_path, fixtures_dir, extra):
    if isinstance(extra, str):
        path = tmp_path / "run.json"
        path.write_text(extra)
    else:
        path = write_config(tmp_path, fixtures_dir, **extra)
    with pytest.raises(ConfigError):
        load_run_config(path)
    result = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,block", [
    ("embed", dict(MOCK_EMBED, protocol="echo")),
    ("summarize", {"id": "gen", "kind": "completion", "protocol": "mock",
                   "model_name": "m", "parallelism": "many"}),
])
def test_cli_stage_rejects_invalid_backend_block(tmp_path, fixtures_dir, command, block):
    backends_path = tmp_path / "backends.json"
    backends_path.write_text(json.dumps({"backends": [block]}))
    result = CliRunner().invoke(main, [
        command, "--backends", str(backends_path),
        "--in", str(fixtures_dir / "mini_corpus.jsonl"), "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize("command", ["embed", "summarize"])
@pytest.mark.parametrize("doc", [[1], {"backends": 5}, "x"])
def test_cli_stage_rejects_malformed_backends_file(tmp_path, fixtures_dir, command, doc):
    backends_path = tmp_path / "backends.json"
    backends_path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, [
        command, "--backends", str(backends_path),
        "--in", str(fixtures_dir / "mini_corpus.jsonl"), "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 2, result.output
    assert "backend blocks" in result.output


@pytest.mark.parametrize("command", ["embed", "summarize"])
def test_cli_stage_closes_its_cache(tmp_path, fixtures_dir, command):
    """A stage's --cache-dir holds only the sqlite file once the command
    ends, whether it succeeded or failed."""
    backends_path = tmp_path / "backends.json"
    backends_path.write_text(json.dumps({"backends": [MOCK_EMBED, {
        "id": "gen", "kind": "completion", "protocol": "mock", "model_name": "m"}]}))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    cache_dir = tmp_path / "cache"
    for corpus, code in ((fixtures_dir / "mini_corpus.jsonl", 0), (bad, 4)):
        result = CliRunner().invoke(main, [
            command, "--backends", str(backends_path), "--cache-dir", str(cache_dir),
            "--in", str(corpus), "--out", str(tmp_path / "out")])
        assert result.exit_code == code, result.output
        assert [p.name for p in cache_dir.iterdir()] == ["responses.sqlite"]
    assert cache_rows(cache_dir) > 0


def test_config_numbers_stay_as_written(tmp_path, fixtures_dir):
    """A float field's int is stored as a float, so one grid written two
    ways is one run."""
    config = load_run_config(write_config(tmp_path, fixtures_dir, alpha=0.1))
    assert config.grid.x_values == (25.0,) and type(config.grid.x_values[0]) is float
    assert type(config.alpha) is float
    assert json.dumps(config.canonical_dict()["grid"]["x_values"]) == "[25.0]"


def test_grid_numbers_written_as_ints_are_one_run(tmp_path, fixtures_dir):
    outputs = []
    for temperature in (0, 0.0):
        root = tmp_path / repr(temperature)
        root.mkdir()
        config = load_run_config(write_config(
            root, fixtures_dir, grid={"n_values": [3], "x_values": [25],
                                      "temperatures": [temperature], "lengths": [100],
                                      "povs": ["third"], "runs": 1}))
        outputs.append((run_audit(config).run_id,
                        (Path(config.out_dir) / "summaries_gen.jsonl").read_bytes()))
    assert outputs[0] == outputs[1]


def test_config_overrides_win(tmp_path, fixtures_dir):
    config = load_run_config(write_config(tmp_path, fixtures_dir),
                             master_seed=99, correction="bonferroni",
                             draws=2)
    assert config.master_seed == 99
    assert config.correction == "bonferroni"
    assert config.grid.draws == 2


def test_relative_paths_resolve_against_config_dir(tmp_path, fixtures_dir):
    corpus = fixtures_dir / "mini_corpus.jsonl"
    (tmp_path / "copy.jsonl").write_bytes(corpus.read_bytes())
    doc = {
        "schema_version": 1,
        "corpus": "copy.jsonl",
        "out_dir": "results",
        "backends": [{"id": "emb", "kind": "embedding", "protocol": "mock",
                      "model_name": "bow"}],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    config = load_run_config(path)
    assert config.corpus_path == str(tmp_path / "copy.jsonl")
    assert config.out_dir == str(tmp_path / "results")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "assign", 0, "FW") == derive_seed(7, "assign", 0, "FW")
    assert derive_seed(7, "assign", 0, "FW") != derive_seed(7, "assign", 0, "FB")
    assert derive_seed(7, "assign", 0, "FW") != derive_seed(8, "assign", 0, "FW")


def test_summary_prompt_instantiation(unnamed_resume):
    prompt = summary_prompt(unnamed_resume, 100, "third")
    assert prompt.startswith(unnamed_resume.body)
    assert "100-word summary" in prompt
    assert "Data Analyst" in prompt
    assert "third person" in prompt


def test_run_audit_emits_all_artifacts(tmp_path, fixtures_dir):
    config = load_run_config(write_config(tmp_path, fixtures_dir))
    result = run_audit(config)
    out = Path(config.out_dir)
    for name in ("manifest.json", "ledger.jsonl", "report.csv", "report.json",
                 "scores_emb.csv", "summaries_gen.jsonl", "measures_gen.jsonl",
                 "t_tests.jsonl", "nonuniformity_tests.jsonl",
                 "plot_exclusion.csv", "plot_nonuniformity.csv",
                 "plot_violation_rate.csv"):
        assert (out / name).exists(), name
    metrics = {r.metric for r in result.report.rows}
    assert metrics == {"exclusion", "nonuniformity", "violation_rate"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["run_id"] == result.run_id
    assert manifest["resumes"] == 12 and manifest["jobs"] == 3


def test_run_audit_score_table_loadable(tmp_path, fixtures_dir):
    config = load_run_config(write_config(tmp_path, fixtures_dir))
    run_audit(config)
    table = read_score_table(Path(config.out_dir) / "scores_emb.csv")
    variants = set(table.variants)
    assert {"name:FB", "name:FW", "name:MB", "name:MW"} <= variants
    assert {f"swap:MW->FW", "within:FW", "typo:FW", "spacing:FW"} <= variants
    resumes, jobs = load_corpus(fixtures_dir / "mini_corpus.jsonl")
    assert len(table) == len(jobs) * len(variants) * len(resumes)


def test_run_audit_reruns_byte_identically(tmp_path, fixtures_dir):
    config_a = load_run_config(write_config(tmp_path, fixtures_dir),
                               out_dir=tmp_path / "out-a")
    config_b = load_run_config(write_config(tmp_path, fixtures_dir),
                               out_dir=tmp_path / "out-b")
    result_a = run_audit(config_a)
    result_b = run_audit(config_b)
    assert result_a.run_id == result_b.run_id
    for name in ("report.csv", "report.json", "ledger.jsonl",
                 "plot_exclusion.csv"):
        assert (Path(config_a.out_dir) / name).read_bytes() == \
            (Path(config_b.out_dir) / name).read_bytes()


def test_run_identity_comes_from_content_not_paths(tmp_path, fixtures_dir, pools,
                                                   monkeypatch):
    """The manifest pins the corpus and the frequency table by their bytes:
    one run copied to two directories, loaded through a relative and an
    absolute config path, with relative and absolute paths inside, at
    another parallelism, retry and out_dir, writes identical artifacts."""
    table = {code: {name: rank + 1 for rank, name in enumerate(pool.names)}
             for code, pool in pools.items()}
    for name, absolute, backend in (
            ("a", False, {}),
            ("b", True, {"parallelism": 3, "retry": {"max": 5, "base_delay_ms": 1}})):
        work = tmp_path / name
        work.mkdir()
        (work / "corpus.jsonl").write_bytes((fixtures_dir / "mini_corpus.jsonl").read_bytes())
        (work / "freq.json").write_text(json.dumps(table))
        prefix = f"{work}/" if absolute else ""
        write_config(work, fixtures_dir, corpus=f"{prefix}corpus.jsonl",
                     frequency_table=f"{prefix}freq.json", out_dir=f"{prefix}out-{name}",
                     backends=[dict(MOCK_EMBED, **backend),
                               {"id": "gen", "kind": "completion", "protocol": "mock",
                                "model_name": "mock-summarizer", **backend}])
    monkeypatch.chdir(tmp_path)
    result_a = run_audit(load_run_config("a/run.json"))
    result_b = run_audit(load_run_config(tmp_path / "b" / "run.json"))
    assert result_a.run_id == result_b.run_id
    for name in CRITERION_8_ARTIFACTS:
        assert (tmp_path / "a" / "out-a" / name).read_bytes() == \
            (tmp_path / "b" / "out-b" / name).read_bytes(), name

    # another table at the same path is another run
    (tmp_path / "a" / "freq.json").write_text(json.dumps(
        {code: {name: 100 - rank for name, rank in counts.items()}
         for code, counts in table.items()}))
    assert run_audit(load_run_config("a/run.json")).run_id != result_a.run_id


def cache_rows(cache_dir) -> int:
    with ResponseCache(cache_dir) as cache:
        return len(cache)


#: sha256 over the key and response of each row of the mini-corpus run's
#: cache, in key order: how and when rows are written moves no stored byte.
MINI_CACHE_SHA256 = "b44d4426cafebed69b6cab04b87f74dd8ed625f1c60e02d2ac27dac43f280609"


def test_run_audit_second_run_hits_cache(tmp_path, fixtures_dir):
    config = load_run_config(write_config(tmp_path, fixtures_dir))
    run_audit(config)
    cache_dir = Path(config.out_dir) / "cache"
    assert [p.name for p in cache_dir.iterdir()] == ["responses.sqlite"]
    digest = hashlib.sha256()
    with closing(sqlite3.connect(cache_dir / "responses.sqlite")) as db:
        for key, response in db.execute("SELECT key, response FROM responses ORDER BY key"):
            digest.update(key.encode("utf-8") + response)
    assert digest.hexdigest() == MINI_CACHE_SHA256
    rows_before = cache_rows(cache_dir)
    assert rows_before > 0
    run_audit(config)
    assert cache_rows(cache_dir) == rows_before  # cached stages re-served, not re-written


def test_run_audit_rejects_contaminated_corpus(tmp_path, fixtures_dir):
    bad = tmp_path / "bad.jsonl"
    lines = (fixtures_dir / "mini_corpus.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    rec["body"] = "Worked with Latoya Williams on dashboards.\n"
    lines[0] = json.dumps(rec)
    bad.write_text("\n".join(lines) + "\n")
    config = load_run_config(write_config(tmp_path, fixtures_dir, corpus=str(bad)))
    with pytest.raises(DataError, match="Latoya"):
        run_audit(config)


def test_run_audit_extracurricular_variants(tmp_path, fixtures_dir):
    config = load_run_config(write_config(tmp_path, fixtures_dir,
                                          extracurricular=True))
    result = run_audit(config)
    out = Path(config.out_dir)
    assert (out / "augmentation_audit.jsonl").exists()
    table = read_score_table(out / "scores_emb.csv")
    assert any(v.startswith("extraswap:") for v in table.variants)
    assert any(r.perturbation.startswith("dir-extra:") for r in result.report.rows)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_corpus_validate(fixtures_dir):
    runner = CliRunner()
    result = runner.invoke(main, ["corpus", "validate",
                                  str(fixtures_dir / "mini_corpus.jsonl")])
    assert result.exit_code == 0, result.output
    assert "resumes: 12" in result.output
    assert "corpus ok" in result.output


def test_cli_corpus_validate_exit_code_on_bad_data(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    runner = CliRunner()
    result = runner.invoke(main, ["corpus", "validate", str(bad)])
    assert result.exit_code == 4


def test_cli_corpus_validate_refuses_an_empty_body_as_run_does(tmp_path, fixtures_dir):
    rows = [json.loads(line) for line in
            (fixtures_dir / "mini_corpus.jsonl").read_text().splitlines() if line.strip()]
    blank = next(row for row in rows if row["kind"] == "resume")
    blank["body"] = "   \n"
    corpus = tmp_path / "blank.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))
    result = CliRunner().invoke(main, ["corpus", "validate", str(corpus)])
    assert result.exit_code == 4, result.output
    assert f"problem: resume {blank['id']}: empty body" in result.output
    config_path = write_config(tmp_path, fixtures_dir, corpus=str(corpus))
    result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 4, result.output
    assert f"resume {blank['id']}: empty body" in result.output


def test_cli_perturb_roundtrip(tmp_path, fixtures_dir):
    plan = {
        "schema_version": 1,
        "specs": [
            {"id": "n1", "kind": "assign_name", "seed": 3, "params": {"group": "FW"}},
            {"id": "sp", "kind": "spacing", "seed": 4, "params": {}},
        ],
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_path = tmp_path / "perturbed.jsonl"
    runner = CliRunner()
    result = runner.invoke(main, [
        "perturb", "--plan", str(plan_path),
        "--in", str(fixtures_dir / "mini_corpus.jsonl"),
        "--out", str(out_path),
    ])
    assert result.exit_code == 0, result.output
    resumes, jobs = load_corpus(out_path)
    assert len(resumes) == 12 and len(jobs) == 3
    assert all("\n" not in r.body for r in resumes)
    assert all(r.group is not None for r in resumes)


@pytest.mark.parametrize("plan", [
    "not json",
    {"schema_version": 1},
    {"schema_version": 1, "specs": [{"id": "t", "kind": "typo", "seed": "x"}]},
    {"schema_version": 1, "specs": [{"id": "n", "kind": "assign_name", "seed": 1,
                                     "params": {"group": "XX"}}]},
    {"schema_version": 1, "specs": [{"id": "t", "kind": "typo", "seed": 1,
                                     "params": {"count": "abc"}}]},
    {"schema_version": 1, "specs": [
        {"id": "n", "kind": "assign_name", "seed": 1, "params": {"group": "FW"}},
        {"id": "x", "kind": "extracurricular", "seed": 1}]},
    {"schema_version": 1, "specs": [{"id": "t", "kind": "typo", "seed": 1, "note": "x"}]},
])
def test_cli_perturb_bad_plan_is_data_error(tmp_path, fixtures_dir, plan):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(plan if isinstance(plan, str) else json.dumps(plan))
    result = CliRunner().invoke(main, [
        "perturb", "--plan", str(plan_path),
        "--in", str(fixtures_dir / "mini_corpus.jsonl"), "--out", str(tmp_path / "o.jsonl"),
    ])
    assert result.exit_code == 4, result.output
    assert result.output.startswith("error: ")


def assert_plans_reproduce_run(tmp_path, fixtures_dir, config_path, perturb_args=()):
    """Each of the run's variant plans, saved and applied by `perturb` and
    scored by `embed`, gives exactly the run's score rows for that variant."""
    config = load_run_config(config_path)
    run_audit(config)
    run_rows = (Path(config.out_dir) / "scores_emb.csv").read_text().splitlines()[1:]
    backends_path = tmp_path / "backends.json"
    backends_path.write_text(json.dumps({"backends": [MOCK_EMBED]}))
    runner = CliRunner()
    plans = variant_plans(config, 0)
    assert len(plans) == 24
    for plan in plans:
        variant = plan[-1].id
        plan_path, corpus, scores = (tmp_path / f"{variant}.{ext}".replace(":", "_")
                                     for ext in ("json", "jsonl", "csv"))
        save_plan(plan, plan_path)
        for args in (
            ["perturb", "--plan", str(plan_path), *perturb_args,
             "--in", str(fixtures_dir / "mini_corpus.jsonl"), "--out", str(corpus)],
            ["embed", "--backends", str(backends_path), "--in", str(corpus),
             "--out", str(scores)],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        expected = sorted(r for r in run_rows if r.split(",")[2] == variant)
        assert len(expected) == 12 * 3
        assert sorted(scores.read_text().splitlines()[1:]) == expected


def test_variant_plans_reproduce_run_scores(tmp_path, fixtures_dir):
    assert_plans_reproduce_run(tmp_path, fixtures_dir, write_config(tmp_path, fixtures_dir))


def test_variant_plans_reproduce_run_scores_with_frequency_table(tmp_path, fixtures_dir, pools):
    """With a non-uniform frequency table the binned swaps depend on it, and
    `perturb --frequency-table` applies the same table as the run."""
    table = {code: {name: rank + 1 for rank, name in enumerate(pool.names)}
             for code, pool in pools.items()}
    table_path = tmp_path / "frequencies.json"
    table_path.write_text(json.dumps(table))
    binned = load_name_pools(frequency_overrides=table)
    assert all(set(pool.bins.values()) == {0, 1, 2, 3} for pool in binned.values())
    assert_plans_reproduce_run(
        tmp_path, fixtures_dir,
        write_config(tmp_path, fixtures_dir, frequency_table=str(table_path)),
        perturb_args=("--frequency-table", str(table_path)))


def test_extracurricular_run_report_is_pinned(tmp_path, fixtures_dir):
    config = load_run_config(write_config(tmp_path, fixtures_dir, extracurricular=True))
    run_audit(config)
    digest = hashlib.sha256((Path(config.out_dir) / "report.csv").read_bytes()).hexdigest()
    assert digest == "c0249893496c3bd638c9db0eeae1762c0bf692d14ff921cd71a621403c48d366"


def test_exclusion_aggregates_equal_their_constituents(tmp_path, fixtures_dir):
    # the swaps are the ordered one-letter flips of the group codes, and each
    # direction names the letter it flips
    flips = {(s, t) for s in GROUP_CODES for t in GROUP_CODES
             if sum(a != b for a, b in zip(s, t)) == 1}
    assert len(SWAPS) == 8 and {(s, t) for _, s, t in SWAPS} == flips
    for direction, s, t in SWAPS:
        i = 0 if s[0] != t[0] else 1
        assert direction == f"{s[i]}->{t[i]}"
    assert all(sum(d == direction for d, _, _ in SWAPS) == 2 for direction, _, _ in SWAPS)

    # at n=7 the two mean rules differ in the last bit for dir-extra:F->M and typo
    config = load_run_config(write_config(
        tmp_path, fixtures_dir, extracurricular=True,
        grid={"n_values": [3, 7], "x_values": [25], "temperatures": [0.0],
              "lengths": [100], "povs": ["third"], "runs": 1}))
    seen: set[str] = set()
    for v in variant_table(config, 0):
        assert {v.applied_on, v.baseline} - {None} <= seen, v.id
        seen.add(v.id)

    run_audit(config)
    per_job: dict[tuple[str, str], list[float]] = {}
    means: dict[tuple[str, str], float] = {}
    for entry in read_ledger(Path(config.out_dir) / "ledger.jsonl"):
        key = (entry.param, entry.perturbation)
        if entry.metric == "exclusion" and entry.sample_size == 1:
            per_job.setdefault(key, []).append(entry.value)
        elif entry.metric == "exclusion":
            means[key] = entry.value

    def pooled(n, variant_ids):  # job order, then variant order, as the ledger lists them
        rows = zip(*(per_job[n, vid] for vid in variant_ids))
        return [value for row in rows for value in row]

    expected = {}
    for n in ("n=3", "n=7"):
        for prefix, variant in (("dir", "swap"), ("dir-extra", "extraswap")):
            for direction in {d for d, _, _ in SWAPS}:
                values = pooled(n, [f"{variant}:{s}->{t}" for d, s, t in SWAPS
                                    if d == direction])
                expected[n, f"{prefix}:{direction}"] = math.fsum(values) / len(values)
        for axis, directions in (("gender", ("M->F", "F->M")), ("race", ("W->B", "B->W"))):
            values = pooled(n, [f"swap:{s}->{t}" for d, s, t in SWAPS if d in directions])
            expected[n, axis] = sum(values) / len(values)
        for kind in ("within", "typo", "spacing"):
            values = pooled(n, [f"{kind}:{g}" for g in GROUP_CODES])
            expected[n, kind] = sum(values) / len(values)
    assert means == expected


@pytest.mark.parametrize("table", [
    "not json",
    "[1, 2]",
    json.dumps({"XX": {"Adam": 1}}),
    json.dumps({"MW": {"Adam": -1}}),
    json.dumps({"MW": {"Adam": "many"}}),
    json.dumps({"MW": [1, 2]}),
])
def test_bad_frequency_table_is_data_error(tmp_path, fixtures_dir, table):
    table_path = tmp_path / "frequencies.json"
    table_path.write_text(table)
    plan_path = tmp_path / "plan.json"
    save_plan(variant_plans(load_run_config(write_config(tmp_path, fixtures_dir)), 0)[4],
              plan_path)
    runner = CliRunner()
    for args in (
        ["perturb", "--plan", str(plan_path), "--frequency-table", str(table_path),
         "--in", str(fixtures_dir / "mini_corpus.jsonl"), "--out", str(tmp_path / "o.jsonl")],
        ["run", "--config", str(write_config(tmp_path, fixtures_dir,
                                              frequency_table=str(table_path)))],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 4, result.output
        assert "frequency table" in result.output


def test_run_augments_generated_resumes_only(tmp_path, fixtures_dir, pools):
    class Backend:
        def complete_batch(self, requests):
            return ["Awards\n- Prize" for _ in requests]

    config = load_run_config(write_config(tmp_path, fixtures_dir, extracurricular=True))
    resumes = [Resume(id="g", profession="Accountant", body="Ledgers.\n", source="generated"),
               Resume(id="k", profession="Accountant", body="Ledgers.\n", source="kaggle")]
    variants = build_variants(resumes, pools, config, 0, completion_backend=Backend())
    for g in ("FB", "FW", "MB", "MW"):
        named, extra = variants.resumes[f"name:{g}"], variants.resumes[f"extra:{g}"]
        assert extra["g"].body.endswith("Awards\n- Prize\n")
        assert extra["k"].body == named["k"].body
    result = CliRunner().invoke(main, ["run", "--config", str(write_config(
        tmp_path, fixtures_dir, extracurricular=True, backends=[MOCK_EMBED]))])
    assert result.exit_code == 4, result.output
    assert "needs a completion backend" in result.output


def test_cli_embed_and_audit_retrieval(tmp_path, fixtures_dir):
    backends = {"backends": [{"id": "emb", "kind": "embedding",
                              "protocol": "mock", "model_name": "bow"}]}
    backends_path = tmp_path / "backends.json"
    backends_path.write_text(json.dumps(backends))
    scores_path = tmp_path / "scores.csv"
    runner = CliRunner()
    result = runner.invoke(main, [
        "embed", "--backends", str(backends_path),
        "--in", str(fixtures_dir / "mini_corpus.jsonl"),
        "--out", str(scores_path),
    ])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("wrote 36 scores")
    table = read_score_table(scores_path)
    assert len(table) == 12 * 3
    resumes, jobs = load_corpus(fixtures_dir / "mini_corpus.jsonl")
    backend = build_backend(backend_from_dict(backends["backends"][0]))
    resume_vectors = backend.embed_batch([r.body for r in resumes])
    job_vectors = backend.embed_batch([j.body for j in jobs])
    expected = {
        (job.id, resume.id, resume.lineage[-1] if resume.lineage else "original",
         cosine(rv, jv))
        for job, jv in zip(jobs, job_vectors)
        for resume, rv in zip(resumes, resume_vectors)
    }
    assert {(job, rid, variant, table.of(variant)[j, r])
            for variant in table.variants for j, job in enumerate(table.jobs)
            for r, rid in enumerate(table.resumes)} == expected


def embed_corpus(tmp_path, resumes, jobs) -> tuple[object, Path]:
    """`hirefair embed` of a corpus of `resumes` and `jobs` with a mock
    embedder: the result and the score table path."""
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(resumes, jobs, corpus)
    backends_path = tmp_path / "backends.json"
    backends_path.write_text(json.dumps(MOCK_EMBED))
    scores_path = tmp_path / "scores.csv"
    result = CliRunner().invoke(main, ["embed", "--backends", str(backends_path),
                                       "--in", str(corpus), "--out", str(scores_path)])
    return result, scores_path


def test_embed_of_variants_with_other_resumes_writes_nothing(tmp_path, fixtures_dir):
    """A resume named name:FW beside the unnamed mini corpus leaves 39 of the
    78 (variant, job, resume) cells empty: embed exits 4 with the reader's
    gap error, before it writes a table that rank would refuse."""
    resumes, jobs = load_corpus(fixtures_dir / "mini_corpus.jsonl")
    named = dataclasses.replace(resumes[0], id="mini-named", lineage=("name:FW",))
    result, scores_path = embed_corpus(tmp_path, [*resumes, named], jobs)
    assert result.exit_code == 4, result.output
    assert "score table lacks 39 cell(s)" in result.output
    assert not scores_path.exists()


@pytest.mark.parametrize("kept, missing", [("jobs", "resumes to score"),
                                           ("resumes", "job posts to score against")],
                         ids=["without-resumes", "without-jobs"])
def test_embed_of_a_corpus_without_resumes_or_jobs_writes_nothing(tmp_path, fixtures_dir,
                                                                   kept, missing):
    """A corpus without resumes, or without job posts, has no score to write:
    embed exits 4 before it writes a table that rank would refuse as empty."""
    resumes, jobs = load_corpus(fixtures_dir / "mini_corpus.jsonl")
    result, scores_path = embed_corpus(tmp_path, resumes if kept == "resumes" else [],
                                       jobs if kept == "jobs" else [])
    assert result.exit_code == 4, result.output
    assert f"corpus has no {missing}" in result.output
    assert not scores_path.exists()


def test_cli_run_and_exit_codes(tmp_path, fixtures_dir):
    config_path = write_config(tmp_path, fixtures_dir)
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert "complete" in result.output

    missing = runner.invoke(main, ["run", "--config", str(tmp_path / "nope.json")])
    assert missing.exit_code == 2

    bad = write_config(tmp_path, fixtures_dir, correction="magic")
    assert runner.invoke(main, ["run", "--config", str(bad)]).exit_code == 2


def test_cli_run_fails_fast_without_credentials(tmp_path, fixtures_dir, monkeypatch):
    monkeypatch.delenv("MISSING_API_KEY", raising=False)
    config_path = write_config(tmp_path, fixtures_dir, backends=[
        {"id": "live", "kind": "embedding", "protocol": "openai-compatible",
         "model_name": "text-embedding-x", "endpoint": "https://example.invalid",
         "credential_env": "MISSING_API_KEY"},
    ])
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 3
    assert "MISSING_API_KEY" in result.output


@pytest.mark.parametrize("kind,body", [
    ("embedding", {"data": []}),
    ("completion", {"id": "chat-1"}),
])
def test_cli_run_malformed_endpoint_exits_3(tmp_path, fixtures_dir, loopback, kind, body):
    loopback.script["/v1"] = [(200, body)] * 1000  # more than the run posts
    live = {"id": "live", "kind": kind, "protocol": "openai-compatible",
            "model_name": "x", "endpoint": f"{loopback.url}/v1"}
    backends = [MOCK_EMBED, live] if kind == "completion" else [live]
    config_path = write_config(tmp_path, fixtures_dir, backends=backends)
    result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 3, result.output
    assert "unreadable response" in result.output


def test_a_regard_backend_block_is_a_config_error(tmp_path, fixtures_dir):
    """The regard classifier is set only by regard_endpoint."""
    config_path = write_config(tmp_path, fixtures_dir, backends=[MOCK_EMBED, {
        "id": "reg", "kind": "regard", "protocol": "http",
        "endpoint": "https://example.invalid/regard"}])
    with pytest.raises(ConfigError, match="regard_endpoint"):
        load_run_config(config_path)
    result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ") and "regard_endpoint" in result.output
    assert not (tmp_path / "out").exists()


def test_cli_run_regard_without_credential_exits_3(tmp_path, fixtures_dir, monkeypatch):
    monkeypatch.delenv("MISSING_REGARD_KEY", raising=False)
    config_path = write_config(tmp_path, fixtures_dir,
                               regard_endpoint="https://example.invalid/regard",
                               regard_credential_env="MISSING_REGARD_KEY")
    result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 3, result.output
    assert "MISSING_REGARD_KEY" in result.output


def test_cli_report_from_ledger(tmp_path, fixtures_dir):
    config = load_run_config(write_config(tmp_path, fixtures_dir))
    run_result = run_audit(config)
    out = Path(config.out_dir)
    report_dir = tmp_path / "reagg"
    runner = CliRunner()
    result = runner.invoke(main, [
        "report", "--ledger", str(out / "ledger.jsonl"),
        "--run-id", run_result.run_id,
        "--manifest", str(out / "manifest.json"),
        "--out", str(report_dir),
    ])
    assert result.exit_code == 0, result.output
    assert (report_dir / "report.csv").read_bytes() == (out / "report.csv").read_bytes()


def test_cli_measure_stage(tmp_path, fixtures_dir):
    summaries = tmp_path / "summaries.jsonl"
    rows = [
        {"resume_id": "r1", "variant_id": "name:FW", "model_name": "m",
         "length": 100, "pov": "third", "temperature": 0.0, "run_index": 1,
         "text": "A good summary."},
    ]
    summaries.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = tmp_path / "measures.jsonl"
    runner = CliRunner()
    result = runner.invoke(main, ["measure", "--in", str(summaries),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.exists()


def test_cli_measure_names_the_summary_without_a_word(tmp_path):
    """A summary with no word has no reading ease: exit 4 with an error line
    that names the summary, not a traceback."""
    summaries = tmp_path / "summaries.jsonl"
    rows = [dict(SUMMARY_ROW),
            dict(SUMMARY_ROW, resume_id="r7", variant_id="name:MB", model_name="gen-x",
                 length=200, pov="first", temperature=0.3, run_index=4, text="...")]
    summaries.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "measures.jsonl"
    result = CliRunner().invoke(main, ["measure", "--in", str(summaries), "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == (
        "error: summary by gen-x of resume r7, variant name:MB, temperature 0.3, "
        "length 200, pov first, run 4 has no word: reading ease needs at least one word\n")
    assert not out.exists()


def test_cli_summarize_then_measure(tmp_path, fixtures_dir):
    backends = {"backends": [{"id": "gen", "kind": "completion",
                              "protocol": "mock", "model_name": "m"}]}
    backends_path = tmp_path / "backends.json"
    backends_path.write_text(json.dumps(backends))
    summaries = tmp_path / "summaries.jsonl"
    runner = CliRunner()
    result = runner.invoke(main, [
        "summarize", "--backends", str(backends_path),
        "--in", str(fixtures_dir / "mini_corpus.jsonl"), "--out", str(summaries),
        "--length", "200", "--pov", "first", "--temperature", "0.3", "--runs", "2",
    ])
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in summaries.read_text().splitlines()]
    records = read_summaries(summaries)
    assert [to_row(r) for r in records] == lines
    assert len(records) == 12 * 2
    assert {(r.length, r.pov, r.temperature) for r in records} == {(200, "first", 0.3)}
    assert [r.run_index for r in records[:2]] == [1, 2]

    measures = tmp_path / "measures.jsonl"
    result = runner.invoke(main, ["measure", "--in", str(summaries),
                                  "--out", str(measures)])
    assert result.exit_code == 0, result.output
    measured = read_measures(measures)
    assert [r.resume_id for r, _ in measured] == [r.resume_id for r in records]


def test_a_failed_summarize_writes_no_file(tmp_path, fixtures_dir, monkeypatch):
    """A backend that refuses a prompt of a later window (longer than its
    max_chars) fails `summarize` with exit 3, and no summaries file is
    written."""
    corpus = fixtures_dir / "mini_corpus.jsonl"
    lengths = [len(summary_prompt(r, 100, "third")) for r in load_corpus(corpus)[0]]
    assert lengths[0] < max(lengths)  # the first window is not refused
    backends_path = tmp_path / "backends.json"
    backends_path.write_text(json.dumps({"backends": [
        {"id": "gen", "kind": "completion", "protocol": "mock", "model_name": "m",
         "max_chars": max(lengths) - 1}]}))
    monkeypatch.setattr(backends, "READ_CHUNK", 1)
    out = tmp_path / "summaries.jsonl"
    result = CliRunner().invoke(main, ["summarize", "--backends", str(backends_path),
                                       "--in", str(corpus), "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert f"max_chars={max(lengths) - 1}; refusing to truncate" in result.output
    assert not out.exists()


def test_cli_stage_chain_reaches_audit_summarization(tmp_path, fixtures_dir):
    """perturb -> summarize per group, then measure -> audit summarization:
    the summaries carry the spec ids (name:FB ...), so the groups pair."""
    backends_path = tmp_path / "backends.json"
    backends_path.write_text(json.dumps({"backends": [
        {"id": "gen", "kind": "completion", "protocol": "mock", "model_name": "m"}]}))
    runner = CliRunner()
    lines: list[str] = []
    for group in ("FB", "FW", "MB", "MW"):
        plan = tmp_path / f"plan_{group}.json"
        plan.write_text(json.dumps({"schema_version": 1, "specs": [
            {"id": f"name:{group}", "kind": "assign_name", "seed": 3,
             "params": {"group": group}}]}))
        corpus = tmp_path / f"corpus_{group}.jsonl"
        summaries = tmp_path / f"summaries_{group}.jsonl"
        for args in (
            ["perturb", "--plan", str(plan),
             "--in", str(fixtures_dir / "mini_corpus.jsonl"), "--out", str(corpus)],
            ["summarize", "--backends", str(backends_path),
             "--in", str(corpus), "--out", str(summaries)],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        lines += summaries.read_text().splitlines()
    summaries = tmp_path / "summaries.jsonl"
    summaries.write_text("\n".join(lines) + "\n")
    assert {r.variant_id for r in read_summaries(summaries)} == {
        "name:FB", "name:FW", "name:MB", "name:MW"}
    measures = tmp_path / "measures.jsonl"
    result = runner.invoke(main, ["measure", "--in", str(summaries), "--out", str(measures)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["audit", "summarization", "--measures", str(measures)])
    assert result.exit_code == 0, result.output
    rows = [line.split("\t") for line in result.output.strip().splitlines()]
    assert sorted(ctype for _, ctype, _, _ in rows) == ["gender", "race"]


LEDGER_ROW = {"entry_id": "e1", "run_id": "r", "metric": "exclusion", "model": "m",
              "perturbation": "p", "param": "n=5", "mode": "", "value": 0.5,
              "sample_size": 1}
SUMMARY_ROW = {"resume_id": "r1", "variant_id": "name:FW", "model_name": "m",
               "length": 100, "pov": "third", "temperature": 0.0, "run_index": 1,
               "text": "A good summary."}
MEASURES_ROW = {**{key: value for key, value in SUMMARY_ROW.items() if key != "text"},
                "reading_ease": 50.0, "reading_time": 1.0, "polarity": 0.0,
                "subjectivity": 0.0, "schema_version": 2}
RESUME_ROW = {"schema_version": 1, "kind": "resume", "id": "a", "profession": "Data Analyst",
              "source": "user", "lineage": [], "body": "text a"}
JOB_ROW = {"schema_version": 1, "kind": "job", "id": "j", "occupation": "IT", "body": "x"}


@pytest.mark.parametrize("command,rows,manifest,expected", [
    ("report", [[1]], {}, "must be a JSON object"),
    ("report", [dict(LEDGER_ROW, foo=1)], {}, "key(s): foo"),
    ("report", [dict(LEDGER_ROW, value="abc")], {}, "value must be float, got 'abc'"),
    ("report", [dict(LEDGER_ROW, metric="bogus")], {}, "unknown metric 'bogus'"),
    ("report", [LEDGER_ROW], [], "must be a JSON object"),
    ("measure", [[1, 2]], None, "must be a JSON object"),
    ("measure", [dict(SUMMARY_ROW, text=5)], None, "text must be str"),
    ("measure", [dict(SUMMARY_ROW, colour="red")], None, "key(s): colour"),
    ("measure", [dict(SUMMARY_ROW, temperature="0.0")], None,
     "temperature must be float, got '0.0'"),
    ("audit", [[1]], None, "must be a JSON object"),
    ("audit", [dict(MEASURES_ROW, regard="bad")], None, "regard must be"),
    ("corpus", [dict(RESUME_ROW, body=5)], None, "body must be str"),
    ("corpus", [dict(RESUME_ROW, lineage="abc")], None, "lineage must be"),
    ("corpus", [dict(RESUME_ROW, id=7)], None, "id must be str"),
    ("corpus", [dict(JOB_ROW, note="x")], None, "key(s): note"),
])
def test_cli_malformed_rows_are_data_errors(tmp_path, command, rows, manifest, expected):
    """Each artifact reader rejects a row that is not an object, a key that
    names no field and a value of the wrong JSON type: exit 4, no traceback."""
    data = tmp_path / "rows.jsonl"
    data.write_text("".join(json.dumps(row) + "\n" for row in rows))
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    args = {
        "report": ["report", "--ledger", str(data), "--run-id", "r",
                   "--manifest", str(manifest_path), "--out", str(tmp_path / "out")],
        "measure": ["measure", "--in", str(data), "--out", str(tmp_path / "m.jsonl")],
        "audit": ["audit", "summarization", "--measures", str(data)],
        "corpus": ["corpus", "validate", str(data)],
    }[command]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 4, result.output
    assert result.output.startswith("error: ") and expected in result.output, result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("command", ["perturb", "embed", "summarize", "measure", "report",
                                     "run"])
def test_cli_unwritable_output_exits_4(tmp_path, fixtures_dir, command):
    """An --out under a regular file cannot be written: exit 4, no traceback."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = str(blocker / "sub")
    corpus = str(fixtures_dir / "mini_corpus.jsonl")
    data = tmp_path / "rows.jsonl"
    data.write_text(json.dumps(LEDGER_ROW if command == "report" else SUMMARY_ROW) + "\n")
    (tmp_path / "manifest.json").write_text("{}")
    (tmp_path / "plan.json").write_text(json.dumps({"schema_version": 1, "specs": [
        {"id": "n", "kind": "assign_name", "seed": 1, "params": {"group": "FW"}}]}))
    (tmp_path / "backends.json").write_text(json.dumps({"backends": [
        MOCK_EMBED, {"id": "gen", "kind": "completion", "protocol": "mock",
                     "model_name": "m"}]}))
    backends = ["--backends", str(tmp_path / "backends.json"), "--in", corpus]
    args = {
        "perturb": ["perturb", "--plan", str(tmp_path / "plan.json"), "--in", corpus],
        "embed": ["embed", *backends],
        "summarize": ["summarize", *backends],
        "measure": ["measure", "--in", str(data)],
        "report": ["report", "--ledger", str(data), "--run-id", "r",
                   "--manifest", str(tmp_path / "manifest.json")],
        "run": ["run", "--config", str(write_config(tmp_path, fixtures_dir))],
    }[command]
    result = CliRunner().invoke(main, args + ["--out", out])
    assert result.exit_code == 4, result.output
    assert result.output.startswith("error: "), result.output
    assert isinstance(result.exception, SystemExit)


def test_cli_unreadable_cache_exits_4(tmp_path, fixtures_dir):
    """A cache file that is not a sqlite database is a data error, not a
    traceback."""
    cache_dir = tmp_path / "out" / "cache"
    cache_dir.mkdir(parents=True)
    (cache_dir / "responses.sqlite").write_bytes(b"not a database" * 100)
    result = CliRunner().invoke(main, ["run", "--config",
                                       str(write_config(tmp_path, fixtures_dir))])
    assert result.exit_code == 4, result.output
    assert result.output.startswith("error: "), result.output


def test_cli_rank_from_score_table(tmp_path, fixtures_dir):
    config = load_run_config(write_config(tmp_path, fixtures_dir))
    run_audit(config)
    runner = CliRunner()
    result = runner.invoke(main, ["rank", "--scores",
                                  str(Path(config.out_dir) / "scores_emb.csv"),
                                  "--variant", "name:FW", "--top", "3"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 3 * 3  # three jobs, top three rows each
    job, rank, rid, score = lines[0].split("\t")
    assert rank == "1"

    missing = runner.invoke(main, ["rank", "--scores",
                                   str(Path(config.out_dir) / "scores_emb.csv"),
                                   "--variant", "name:XX"])
    assert missing.exit_code == 4


@pytest.mark.parametrize("args", [
    ["rank"],
    ["audit", "retrieval", "--metric", "exclusion"],
    ["audit", "retrieval", "--metric", "nonuniformity"],
])
def test_cli_short_score_row_is_data_error(tmp_path, args):
    scores = tmp_path / "scores.csv"
    scores.write_text("job_id,resume_id,variant_id,score\nj1,r1,name:MW\n")
    result = CliRunner().invoke(main, args + ["--scores", str(scores)])
    assert result.exit_code == 4, result.output
    assert "expected 4 fields, got 3" in result.output


def test_cli_audit_summarization(tmp_path, fixtures_dir):
    config = load_run_config(write_config(tmp_path, fixtures_dir))
    run_audit(config)
    runner = CliRunner()
    result = runner.invoke(main, [
        "audit", "summarization",
        "--measures", str(Path(config.out_dir) / "measures_gen.jsonl"),
        "--correction", "bh", "--alpha", "0.05",
    ])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 2  # gender and race rows for the one mock model
    for line in lines:
        model, ctype, counts, rate = line.split("\t")
        assert model == "mock-summarizer"
        assert ctype in ("gender", "race")
        assert 0.0 <= float(rate) <= 1.0


def test_cli_audit_summarization_agrees_with_run(tmp_path, fixtures_dir):
    """Per draw, the subcommand counts the tests the run counted: runs are
    averaged per resume, @dN measures files pair, and each draw's rates
    enter the report."""
    grid = {"n_values": [3], "x_values": [25], "temperatures": [0.0],
            "lengths": [100], "povs": ["third"], "runs": 2, "draws": 2}
    config = load_run_config(write_config(tmp_path, fixtures_dir, grid=grid))
    result = run_audit(config)
    runner = CliRunner()
    per_draw: dict[str, list[tuple[int, int]]] = {}
    for name in ("measures_gen.jsonl", "measures_gen@d1.jsonl"):
        out = runner.invoke(main, ["audit", "summarization", "--measures",
                                   str(Path(config.out_dir) / name)])
        assert out.exit_code == 0, out.output
        for line in out.output.strip().splitlines():
            _, ctype, counts, _ = line.split("\t")
            rejected, total = (int(c) for c in counts.split("/"))
            per_draw.setdefault(ctype, []).append((rejected, total))
    rows = {r.perturbation: r for r in result.report.rows
            if r.metric == "violation_rate"}
    assert set(rows) == set(per_draw) == {"gender", "race"}
    for ctype, draws in per_draw.items():
        assert len(draws) == 2
        assert rows[ctype].value == pytest.approx(
            sum(rejected / total for rejected, total in draws) / 2)
        assert rows[ctype].sample_size == sum(total for _, total in draws)


def test_audit_summarization_refuses_a_summary_measured_twice(tmp_path, fixtures_dir):
    """The fixture run's measures file alone pairs as the run does, 0/64
    rejected per comparison type. That file twice over, and one draw's file
    followed by the next draw's, hold a summary twice, draw tag aside: each
    exits 4 naming its first such summary, where the second row was once
    dropped and the first draw's figures printed."""
    fixture = load_run_config(fixtures_dir / "mock_run.json", out_dir=tmp_path / "fixture")
    run_audit(fixture)
    grid = {"n_values": [3], "x_values": [25], "temperatures": [0.0],
            "lengths": [100], "povs": ["third"], "runs": 1, "draws": 2}
    mini = load_run_config(write_config(tmp_path, fixtures_dir, grid=grid))
    run_audit(mini)
    measures = Path(fixture.out_dir) / "measures_mock-complete.jsonl"
    draws = [Path(mini.out_dir) / name for name in ("measures_gen.jsonl",
                                                    "measures_gen@d1.jsonl")]

    def audit(*paths):
        path = tmp_path / "measures.jsonl"
        path.write_text("".join(p.read_text() for p in paths))
        return CliRunner().invoke(main, ["audit", "summarization", "--measures", str(path)])

    alone = audit(measures)
    assert alone.exit_code == 0, alone.output
    assert [line.split("\t")[1:3] for line in alone.output.splitlines()] == [
        ["gender", "0/64"], ["race", "0/64"]]
    for paths, again in (((measures, measures), measures), (draws, draws[1])):
        result = audit(*paths)
        assert result.exit_code == 4, result.output
        record, _ = read_measures(again)[0]
        assert result.output == f"error: measures hold the {record} twice\n"


def test_cli_audit_retrieval_nonuniformity(tmp_path, fixtures_dir):
    config = load_run_config(write_config(tmp_path, fixtures_dir))
    run_audit(config)
    runner = CliRunner()
    result = runner.invoke(main, [
        "audit", "retrieval",
        "--scores", str(Path(config.out_dir) / "scores_emb.csv"),
        "--metric", "nonuniformity", "--x", "25",
    ])
    assert result.exit_code == 0, result.output
    assert len(result.output.strip().splitlines()) == 3  # one row per job

    excl = runner.invoke(main, [
        "audit", "retrieval",
        "--scores", str(Path(config.out_dir) / "scores_emb.csv"),
        "--metric", "exclusion", "--n", "3",
        "--original", "name:MW", "--perturbed", "swap:MW->FW",
    ])
    assert excl.exit_code == 0, excl.output
    assert len(excl.output.strip().splitlines()) == 3


def test_cli_audit_retrieval_agrees_with_run(tmp_path, fixtures_dir):
    """Per draw, the subcommand prints the run's per-job exclusion values
    and separated non-uniformity flags, read from ledger.jsonl; a score
    table with a duplicated cell is a data error."""
    grid = {"n_values": [1, 3, 12], "x_values": [25, 50], "temperatures": [0.0],
            "lengths": [100], "povs": ["third"], "runs": 1, "draws": 2}
    config = load_run_config(write_config(tmp_path, fixtures_dir, grid=grid))
    run_audit(config)
    out = Path(config.out_dir)
    _, jobs = load_corpus(fixtures_dir / "mini_corpus.jsonl")

    # the ledger stores no job or draw; an entry's id digests its detail
    details = [f"{key}={job.id};draw={draw}" for key in ("job", "unit")
               for job in jobs for draw in (0, 1)]
    ledger = {}
    for e in read_ledger(out / "ledger.jsonl"):
        for detail in details:
            if make_entry(e.run_id, e.metric, e.model, e.perturbation, e.param,
                          e.mode, e.value, e.sample_size, detail).entry_id == e.entry_id:
                ledger[(e.metric, e.perturbation, e.param, e.mode, detail)] = e.value

    runner = CliRunner()
    for draw, name in enumerate(("scores_emb.csv", "scores_emb@d1.csv")):
        excl = runner.invoke(main, ["audit", "retrieval", "--scores", str(out / name),
                                    "--metric", "exclusion", "--n", "1", "--n", "3",
                                    "--n", "12"])
        assert excl.exit_code == 0, excl.output
        lines = excl.output.strip().splitlines()
        assert len(lines) == len(jobs) * 3
        for line in lines:
            job, _, param, value = line.split("\t")
            expected = ledger[("exclusion", "swap:MW->FW", param, "",
                               f"job={job};draw={draw}")]
            assert value == f"{expected:.6f}"

        nonu = runner.invoke(main, ["audit", "retrieval", "--scores", str(out / name),
                                    "--metric", "nonuniformity", "--x", "25", "--x", "50"])
        assert nonu.exit_code == 0, nonu.output
        lines = nonu.output.strip().splitlines()
        assert len(lines) == len(jobs) * 2
        for line in lines:
            job, _, param, mode, _, _, flag = line.split("\t")
            expected = ledger[("nonuniformity", "name-pool", param, mode,
                               f"unit={job};draw={draw}")]
            assert flag == f"flag={expected == 1.0}"

    rows = (out / "scores_emb.csv").read_text().splitlines()
    duplicated = next(r for r in rows if ",swap:MW->FW," in r)
    bad = tmp_path / "duplicated.csv"
    bad.write_text("\n".join(rows + [duplicated.rsplit(",", 1)[0] + ",0.0"]) + "\n")
    for args in (["audit", "retrieval", "--metric", "exclusion"],
                 ["audit", "retrieval", "--metric", "nonuniformity"], ["rank"]):
        result = runner.invoke(main, args + ["--scores", str(bad)])
        assert result.exit_code == 4, result.output
        assert "duplicate" in result.output


def test_backends_sharing_a_model_name_are_config_errors(tmp_path, fixtures_dir):
    """Report rows are keyed by model name: two mock embedders named bow used
    to land in one row and drop each other's equal-valued entries."""
    backends = [
        {"id": "bow-a", "kind": "embedding", "protocol": "mock", "model_name": "bow",
         "params": {"dim": 256}},
        {"id": "bow-b", "kind": "embedding", "protocol": "mock", "model_name": "bow",
         "params": {"dim": 128}},
    ]
    path = write_config(tmp_path, fixtures_dir, backends=backends)
    with pytest.raises(ConfigError, match="model_name"):
        load_run_config(path)
    result = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert "'bow'" in result.output

    # one name across the two kinds stays allowed
    load_run_config(write_config(tmp_path, fixtures_dir, backends=[
        dict(MOCK_EMBED, model_name="m"),
        {"id": "gen", "kind": "completion", "protocol": "mock", "model_name": "m"}]))


# ---------------------------------------------------------------------------
# HTTP path, end to end over a loopback service
# ---------------------------------------------------------------------------

CRITERION_8_ARTIFACTS = (
    "manifest.json", "ledger.jsonl", "report.csv", "report.json", "scores_emb.csv",
    "summaries_gen.jsonl", "measures_gen.jsonl", "t_tests.jsonl",
    "nonuniformity_tests.jsonl", "plot_exclusion.csv", "plot_nonuniformity.csv",
    "plot_violation_rate.csv")


def http_config(tmp_path, fixtures_dir, url, parallelism, out, **completion):
    return write_config(
        tmp_path, fixtures_dir, out_dir=str(out), regard_endpoint=f"{url}/regard",
        backends=[
            {"id": "emb", "kind": "embedding", "protocol": "openai-compatible",
             "model_name": "loop-embed", "endpoint": f"{url}/v1/embeddings",
             "parallelism": parallelism},
            {"id": "gen", "kind": "completion", "protocol": "openai-compatible",
             "model_name": "loop-chat", "endpoint": f"{url}/v1/chat/completions",
             "parallelism": parallelism, **completion},
        ],
        grid={"n_values": [3], "x_values": [25], "temperatures": [0.0, 0.3],
              "lengths": [100], "povs": ["third"], "runs": 2})


def test_http_run_is_identical_at_any_parallelism(tmp_path, fixtures_dir, loopback):
    outputs = {}
    for parallelism in (1, 4):
        loopback.reset()
        out = tmp_path / f"out-{parallelism}"
        config = load_run_config(http_config(tmp_path, fixtures_dir, loopback.url,
                                             parallelism, out))
        run_audit(config)
        outputs[parallelism] = {name: (out / name).read_bytes()
                                for name in CRITERION_8_ARTIFACTS}
        # each backend stays within its bound; a draw's retrieval and summary
        # stages overlap, so the run as a whole may have both widths in flight
        for path in ("/v1/embeddings", "/v1/chat/completions", "/regard"):
            assert 1 <= loopback.inflight_max[path] <= parallelism, path
        assert loopback.inflight_max["*"] <= 2 * parallelism
        if parallelism == 1:
            assert loopback.inflight_max["*"] == 2
        if parallelism > 1:
            # embeddings, completions and regard each overlap their requests
            assert min(loopback.inflight_max.values()) > 1
        # the chat schema carries no run index, so runs 1 and 2 repeat a text;
        # regard posts each distinct text once
        texts = [r.text for r in read_summaries(out / "summaries_gen.jsonl")]
        assert len(set(texts)) < len(texts)
        assert sorted(loopback.regard_texts) == sorted(set(texts))
        assert set(loopback.regard_texts.values()) == {1}
        measured = read_measures(out / "measures_gen.jsonl")
        assert all(mv.regard is not None for _, mv in measured)
        # each answer is keyed as it was before regard became a backend, so
        # caches written then replay
        by_text = {record.text: mv.regard for record, (_, mv) in zip(
            read_summaries(out / "summaries_gen.jsonl"), measured)}
        with ResponseCache(out / "cache") as cache:
            for text, regard in by_text.items():
                assert cached_response(cache, cache_key("regard", config.regard_endpoint,
                                                        {"text": text})) == regard
    assert outputs[1] == outputs[4]


def test_http_augmented_run_is_identical_at_any_parallelism(tmp_path, fixtures_dir,
                                                             loopback):
    """With `extracurricular: true`, each augmentation spec asks the chat
    endpoint for all its resumes in one batch: the artifacts and the
    augmentation audit are the same at parallelism 1 and 4, and a rerun on
    the warm cache makes no request."""
    outputs = {}
    for parallelism in (1, 4):
        loopback.reset()
        out = tmp_path / f"out-{parallelism}"
        config = load_run_config(http_config(tmp_path, fixtures_dir, loopback.url,
                                             parallelism, out))
        config = dataclasses.replace(config, extracurricular=True)
        run_audit(config)
        outputs[parallelism] = {name: (out / name).read_bytes() for name in
                                (*CRITERION_8_ARTIFACTS, "augmentation_audit.jsonl")}
        assert 1 <= loopback.inflight_max["/v1/chat/completions"] <= parallelism
        audit = [json.loads(line) for line in
                 (out / "augmentation_audit.jsonl").read_text().splitlines()]
        assert {row["spec_id"] for row in audit} == {
            v.id for v in variant_table(config, 0) if v.spec.kind == "extracurricular"}
        loopback.reset()
        run_audit(config)
        assert loopback.requests == {}
        assert {name: (out / name).read_bytes()
                for name in outputs[parallelism]} == outputs[parallelism]
    assert outputs[1] == outputs[4]


def test_traced_http_run_with_regard(tmp_path, fixtures_dir, loopback):
    """perfbench's traced audit wraps the backends and the regard client that
    run_audit builds; over HTTP it leaves the report as an untraced run's."""
    plain = tmp_path / "plain"
    run_audit(load_run_config(http_config(tmp_path, fixtures_dir, loopback.url, 2, plain)))
    traced, trace = tmp_path / "traced", tmp_path / "trace.json"
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced_audit.py"), str(trace), "run",
         "--config", str(http_config(tmp_path, fixtures_dir, loopback.url, 2, traced)),
         "--out", str(traced)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    assert (traced / "report.csv").read_bytes() == (plain / "report.csv").read_bytes()
    doc = json.loads(trace.read_text())
    names = {span["name"] for span in doc["spans"]}
    assert {"pipeline", "backends.embed", "textmetrics.measure"} <= names
    assert doc["counters"]["textmetrics.texts"] > 0


def test_http_backend_error_cancels_the_batch_and_exits_3(tmp_path, fixtures_dir,
                                                          loopback):
    loopback.refuse.add("/v1/chat/completions")
    path = http_config(tmp_path, fixtures_dir, loopback.url, 4, tmp_path / "out")
    result = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 3, result.output
    assert "HTTP 400" in result.output
    assert [p.name for p in (tmp_path / "out" / "cache").iterdir()] == ["responses.sqlite"]
    # 12 resumes x 4 groups x 2 temperatures x 2 runs were due; the first
    # refusal cancelled the queued ones
    assert loopback.requests["/v1/chat/completions"] < 12 * 4 * 2 * 2 // 4


def test_a_failed_stage_stops_the_other_and_exits_3(tmp_path, fixtures_dir, loopback):
    """Over HTTP the summary stage runs beside the retrieval stage; the first
    refused embedding stops it too, and is the error the run reports."""
    loopback.refuse.add("/v1/embeddings")
    path = http_config(tmp_path, fixtures_dir, loopback.url, 4, tmp_path / "out")
    result = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 3, result.output
    assert "backend emb: HTTP 400" in result.output
    assert [p.name for p in (tmp_path / "out" / "cache").iterdir()] == ["responses.sqlite"]
    # 12 resumes x 4 groups x 2 temperatures x 2 runs were due
    assert loopback.requests.get("/v1/chat/completions", 0) < 12 * 4 * 2 * 2 // 4


def test_http_artifacts_do_not_depend_on_which_stage_ends_first(
        tmp_path, fixtures_dir, loopback, monkeypatch):
    """Retrieval ends last in one run and the summaries in the other; both
    runs write the same bytes."""
    ended = []

    def recorded(name, run, done):
        def stage(*args, **kwargs):
            result = run(*args, **kwargs)
            ended.append(name)
            done.set()
            return result
        return stage

    def delayed(run, other_done):
        def late(*args, **kwargs):
            other_done.wait(timeout=30)  # begin once the other stage has ended
            return run(*args, **kwargs)
        return late

    outputs = {}
    for late, other in (("score_variants", "summary"), ("generate_summaries", "retrieval")):
        done = {name: threading.Event() for name in ("retrieval", "summary")}
        with monkeypatch.context() as m:
            for name, event in done.items():
                m.setattr(pipeline, f"{name}_stage",
                          recorded(name, getattr(pipeline, f"{name}_stage"), event))
            m.setattr(pipeline, late, delayed(getattr(pipeline, late), done[other]))
            out = tmp_path / late
            run_audit(load_run_config(http_config(tmp_path, fixtures_dir, loopback.url,
                                                  4, out)))
        outputs[late] = {name: (out / name).read_bytes() for name in CRITERION_8_ARTIFACTS}
    assert ended == ["summary", "retrieval", "retrieval", "summary"]
    assert outputs["score_variants"] == outputs["generate_summaries"]


def test_in_process_runs_stay_on_the_calling_thread(tmp_path, fixtures_dir, monkeypatch):
    """With no backend that makes HTTP requests, both stages of every draw run
    on the calling thread."""
    threads = []
    for name in ("score_variants", "paired_samples"):
        def recorded(*args, _run=getattr(pipeline, name), **kwargs):
            threads.append(threading.current_thread())
            return _run(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, recorded)
    run_audit(load_run_config(write_config(tmp_path, fixtures_dir)))
    assert len(threads) == 2
    assert all(thread is threading.main_thread() for thread in threads)


def test_without_regard_each_summary_goes_on_as_it_comes(tmp_path):
    """Without a regard client, the summary stage writes each summary's lines
    and hands its measures on before it reads the next summary: it holds
    none of them."""
    read = []

    def summarized():
        for i in range(1, 6):
            read.append(i)
            record = SummaryRecord("r1", "name:FW", "m", 100, "third", 0.0, i, text="")
            yield record, summary_lines(True, record, f"A good summary, number {i}.")

    with open_jsonl(tmp_path / "s.jsonl") as summaries, \
            open_jsonl(tmp_path / "m.jsonl") as measures:
        for taken, (record, mv) in enumerate(
                pipeline._measured(summarized(), None, summaries, measures), 1):
            assert record.run_index == taken == len(read)
            assert mv.regard is None
    assert [row.run_index for row, _ in read_measures(tmp_path / "m.jsonl")] == [1, 2, 3, 4, 5]


def test_an_interrupt_stops_the_retrieval_stage():
    """An interrupt on the calling thread sets the stop signal the worker's
    stage waits on, and is what the run raises."""
    stop, seen = threading.Event(), []

    def retrieve():
        seen.append(stop.wait(timeout=30))
        raise Stopped("not requested")

    def summarize():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        pipeline._run_stages(retrieve, summarize, stop)
    assert seen == [True]


def test_the_first_failure_is_raised_not_the_stop_it_caused():
    stop = threading.Event()

    def retrieve():
        raise BackendError("backend emb: HTTP 400")

    def summarize():
        assert stop.wait(timeout=30)
        raise Stopped("not requested")

    with pytest.raises(BackendError, match="HTTP 400"):
        pipeline._run_stages(retrieve, summarize, stop)


def test_regard_retries_transient_failures(tmp_path, fixtures_dir, loopback):
    """Regard retries as often as the completion backend it scores, so a 503
    on each text's first attempt changes neither the cold nor the warm run."""
    def run(out):
        run_audit(load_run_config(http_config(
            tmp_path, fixtures_dir, loopback.url, 4, out,
            retry={"max": 2, "base_delay_ms": 1})))
        return {name: (out / name).read_bytes()
                for name in ("measures_gen.jsonl", "report.csv")}

    clean = run(tmp_path / "clean")
    loopback.reset()
    loopback.fail_first.add("/regard")
    assert run(tmp_path / "flaky") == clean
    assert set(loopback.regard_texts.values()) == {2}
    loopback.reset()
    assert run(tmp_path / "flaky") == clean
    assert loopback.requests == {}


def test_regard_endpoint_that_always_fails(tmp_path, fixtures_dir, loopback, caplog):
    """Every regard measure is absent, one warning line says so, no regard
    answer is cached, and a warm rerun posts every text again."""
    loopback.unavailable.add("/regard")
    out = tmp_path / "out"
    config = load_run_config(http_config(tmp_path, fixtures_dir, loopback.url, 4, out,
                                         retry={"max": 2, "base_delay_ms": 1}))
    with caplog.at_level(logging.WARNING, logger="hirefair.backends"):
        run_audit(config)
    texts = {r.text for r in read_summaries(out / "summaries_gen.jsonl")}
    absent = [r.getMessage() for r in caplog.records if "regard absent" in r.getMessage()]
    assert len(absent) == 1, absent
    summaries = len(read_summaries(out / "summaries_gen.jsonl"))
    assert f"for {summaries} of {summaries} texts" in absent[0]
    assert "HTTP 503" in absent[0]
    assert set(loopback.regard_texts) == texts
    measured = read_measures(out / "measures_gen.jsonl")
    assert measured and all(mv.regard is None for _, mv in measured)
    with ResponseCache(out / "cache") as cache:
        rows = len(cache)
        assert all(cached_response(cache, cache_key("regard", config.regard_endpoint,
                                                    {"text": text})) is None for text in texts)
    posted = dict(loopback.regard_texts)

    loopback.reset()
    run_audit(config)
    assert set(loopback.requests) == {"/regard"}
    assert loopback.regard_texts == posted
    assert cache_rows(out / "cache") == rows


def test_a_cache_of_one_file_per_response_replays_offline(tmp_path, fixtures_dir,
                                                          loopback):
    """A cache directory in the layout of earlier versions, `??/<key>.json`
    per response, is imported when the sqlite file is created, and its files
    are left alone."""
    cold = tmp_path / "cold"
    run_audit(load_run_config(http_config(tmp_path, fixtures_dir, loopback.url, 4, cold)))
    db = sqlite3.connect(cold / "cache" / "responses.sqlite")
    rows = db.execute("SELECT key, response FROM responses").fetchall()
    db.close()
    old = tmp_path / "old" / "cache"
    for key, blob in rows:
        path = old / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"key": key, "response": decode_response(blob)},
                                   sort_keys=True, ensure_ascii=False), encoding="utf-8")
    files = sorted(p.relative_to(old) for p in old.rglob("*.json"))
    assert len(files) == len(rows) > 0

    loopback.reset()
    run_audit(load_run_config(http_config(tmp_path, fixtures_dir, loopback.url, 4,
                                          tmp_path / "old")))
    assert loopback.requests == {}
    assert cache_rows(old) == len(rows)
    assert sorted(p.relative_to(old) for p in old.rglob("*.json")) == files
    for name in ("report.csv", "measures_gen.jsonl", "scores_emb.csv"):
        assert (tmp_path / "old" / name).read_bytes() == (cold / name).read_bytes(), name


# ---------------------------------------------------------------------------
# the run's process pool
# ---------------------------------------------------------------------------

def cpus(monkeypatch, n):
    """Let this process use `n` CPUs, as backends.cpu_map sees them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_the_pool_changes_no_byte(tmp_path, fixtures_dir, monkeypatch):
    """A run whose mock answers and text scans are spread over the pool
    writes the bytes of a run on one CPU, its response cache included."""
    maps = []

    @contextmanager
    def recorded():
        with cpu_map() as map_fn:
            maps.append(map_fn)
            yield map_fn

    monkeypatch.setattr(pipeline, "cpu_map", recorded)

    def run(n):
        cpus(monkeypatch, n)
        out = tmp_path / f"cpus-{n}"
        # several pool tasks per batch: 288 texts to embed, 192 summaries
        run_audit(load_run_config(write_config(
            tmp_path, fixtures_dir, out_dir=str(out),
            grid={"n_values": [3], "x_values": [25], "temperatures": [0.0, 0.3],
                  "lengths": [100], "povs": ["third"], "runs": 2})))
        with sqlite3.connect(out / "cache" / "responses.sqlite") as db:
            rows = db.execute("SELECT key, response FROM responses ORDER BY key").fetchall()
        return {name: (out / name).read_bytes() for name in CRITERION_8_ARTIFACTS}, rows

    pooled, serial = run(2), run(1)
    assert maps[0] is not map and maps[1] is map
    assert len(pooled[1]) > 2 * MAP_CHUNK
    assert pooled == serial


def test_the_pool_maps_only_on_the_main_thread(tmp_path, fixtures_dir, loopback, monkeypatch):
    """In-process backends beside an HTTP regard endpoint: the retrieval stage
    runs on a worker thread beside the summary stage and embeds serially
    there, so the pool is sent tasks only from the thread that opened it,
    and a run on two CPUs writes the bytes of a run on one."""
    threads = []
    send = multiprocessing.connection.Connection.send

    def sent(conn, task):
        threads.append(threading.get_ident())
        return send(conn, task)

    monkeypatch.setattr(multiprocessing.connection.Connection, "send", sent)

    def run(n):
        cpus(monkeypatch, n)
        out = tmp_path / f"cpus-{n}"
        run_audit(load_run_config(write_config(
            tmp_path, fixtures_dir, out_dir=str(out), regard_endpoint=f"{loopback.url}/regard",
            grid={"n_values": [3], "x_values": [25], "temperatures": [0.0, 0.3],
                  "lengths": [100], "povs": ["third"], "runs": 2})))
        return {name: (out / name).read_bytes() for name in CRITERION_8_ARTIFACTS}

    assert run(2) == run(1)
    assert threads and set(threads) == {threading.main_thread().ident}


def test_a_failed_run_leaves_no_worker(tmp_path, fixtures_dir, loopback, monkeypatch):
    """An HTTP embedder that stays unavailable, beside a mock completer that
    answers on the pool: exit 3 with an error line, no traceback, and no
    worker process left."""
    cpus(monkeypatch, 2)
    loopback.unavailable.add("/v1/embeddings")
    path = write_config(tmp_path, fixtures_dir, backends=[
        {"id": "emb", "kind": "embedding", "protocol": "openai-compatible",
         "model_name": "loop-embed", "endpoint": f"{loopback.url}/v1/embeddings",
         "parallelism": 2, "retry": {"max": 2, "base_delay_ms": 1}},
        {"id": "gen", "kind": "completion", "protocol": "mock",
         "model_name": "mock-summarizer"}])
    result = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 3, result.output
    assert result.output.startswith("error: backend emb: request failed after 2 attempts")
    assert "Traceback" not in result.output
    assert multiprocessing.active_children() == []


def test_a_killed_worker_ends_the_run_with_exit_3(tmp_path, fixtures_dir, monkeypatch):
    """A worker of the run's pool that is killed (say, by the kernel's
    out-of-memory killer) ends the run in seconds with exit 3 and an error
    line, and no worker is left."""
    cpus(monkeypatch, 2)

    @contextmanager
    def losing_a_worker():
        with cpu_map() as map_fn:
            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while victim.exitcode is None and time.monotonic() < deadline:
                time.sleep(0.01)
            yield map_fn

    monkeypatch.setattr(pipeline, "cpu_map", losing_a_worker)
    start = time.monotonic()
    result = CliRunner().invoke(main, ["run", "--config", str(write_config(tmp_path,
                                                                          fixtures_dir))])
    assert result.exit_code == 3, result.output
    assert result.output.startswith(
        f"error: a worker process of the pool ended with exit code -{int(signal.SIGKILL)}")
    assert "Traceback" not in result.output
    assert time.monotonic() - start < 15
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n", [1, 2])
def test_a_cache_row_that_does_not_decode_exits_4(tmp_path, fixtures_dir, monkeypatch, n):
    """A rerun that reads a corrupt response cache row ends with exit 4 and
    an error line naming the row's key, over the pool as on one CPU, and no
    worker is left."""
    cpus(monkeypatch, n)
    args = ["run", "--config", str(write_config(tmp_path, fixtures_dir))]
    assert CliRunner().invoke(main, args).exit_code == 0
    with closing(sqlite3.connect(tmp_path / "out" / "cache" / "responses.sqlite")) as db, db:
        key, = db.execute("SELECT key FROM responses ORDER BY key LIMIT 1").fetchone()
        db.execute("UPDATE responses SET response = ? WHERE key = ?", (b"garbage", key))
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 4, result.output
    assert result.output.startswith("error: response cache "), result.output
    assert f"the row of key {key} does not decode" in result.output
    assert "Traceback" not in result.output
    assert multiprocessing.active_children() == []


def test_an_http_run_starts_no_worker(tmp_path, fixtures_dir, loopback, monkeypatch):
    """A run whose backends all make HTTP requests has no in-process answers
    to spread, so it opens no pool, however many CPUs it may use."""
    cpus(monkeypatch, 2)
    children = []
    answer = loopback.answer

    def watched(*args):
        children.append(len(multiprocessing.active_children()))
        return answer(*args)

    monkeypatch.setattr(loopback, "answer", watched)
    run_audit(load_run_config(http_config(tmp_path, fixtures_dir, loopback.url, 2,
                                          tmp_path / "out")))
    assert children and set(children) == {0}


def test_an_interrupted_run_leaves_no_worker(tmp_path, fixtures_dir, monkeypatch):
    cpus(monkeypatch, 2)
    pair = pipeline.paired_samples

    def interrupted(*args, **kwargs):
        pair(*args, **kwargs)
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "paired_samples", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_audit(load_run_config(write_config(tmp_path, fixtures_dir)))
    assert multiprocessing.active_children() == []


def test_importing_the_cli_starts_no_pool_machinery():
    """multiprocessing is imported only when a run opens its pool, the
    HTTP modules only when a backend makes requests, and numpy only when
    vectors are made, so the command line starts fast."""
    lazy = ("multiprocessing", "http.client", "urllib.request", "ssl", "numpy")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hirefair.cli; "
                               f"print([m for m in {lazy!r} if m in sys.modules])"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.stdout == "[]\n", proc.stderr


def run_in_subprocess(script: str, config_path, env=os.environ) -> str:
    """The stdout of `script`, run as `python -c` with argv[1] the config's
    path, after it asserted that the `hirefair run` it makes succeeded."""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(config_path)], capture_output=True, text=True,
        timeout=60, env={**env, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


CLI_RUN = """
from hirefair.cli import main
main(["run", "--config", sys.argv[1]], standalone_mode=False)
"""


def test_a_run_without_embedders_never_loads_numpy(tmp_path, fixtures_dir):
    """Only vectors need numpy: a summary-only run ends without it."""
    path = write_config(tmp_path, fixtures_dir, backends=[
        {"id": "gen", "kind": "completion", "protocol": "mock", "model_name": "m"}])
    out = run_in_subprocess("import sys" + CLI_RUN + "print('numpy' in sys.modules)", path)
    assert out.endswith("False\n"), out
    assert (tmp_path / "out" / "measures_gen.jsonl").exists()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU opens no pool")
def test_the_pool_forks_from_a_process_of_one_thread(tmp_path, fixtures_dir):
    """cpu_map forks its workers from a process that runs no other thread:
    the command line runs OpenBLAS on one thread unless told otherwise. numpy,
    which a mock embedder needs, loads before the pool forks, so that the
    workers share it rather than each importing it."""
    path = write_config(tmp_path, fixtures_dir)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = run_in_subprocess(
        "import os, sys\n"
        "forks = []\n"
        "os.register_at_fork(before=lambda: forks.append(\n"
        "    (len(os.listdir('/proc/self/task')), 'numpy' in sys.modules)))"
        + CLI_RUN + "print(forks)", path, env)
    assert out.endswith(f"{[(1, True)] * len(os.sched_getaffinity(0))}\n"), out


def test_a_completion_without_a_word_fails_the_run_and_is_never_cached(
        tmp_path, fixtures_dir, monkeypatch):
    """A chat answer without a word is a backend error (exit 3), not a
    summary: it is not stored, so the next run asks for it again."""
    posted = []

    def post(self, payload, read):
        posted.append(payload)
        return read({"choices": [{"message": {"content": "..."}}]})

    monkeypatch.setattr(JsonEndpoint, "post", post)
    path = write_config(tmp_path, fixtures_dir, backends=[
        MOCK_EMBED,
        {"id": "gen", "kind": "completion", "protocol": "openai-compatible",
         "model_name": "chat", "endpoint": "https://example.invalid/v1/chat",
         "parallelism": 1}])
    for run in (1, 2):
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 3, result.output
        assert result.output.startswith(
            "error: backend gen: completion without a word '...'"), result.output
        assert len(posted) == run
        with sqlite3.connect(tmp_path / "out" / "cache" / "responses.sqlite") as db:
            stored = [decode_response(blob) for blob, in
                      db.execute("SELECT response FROM responses")]
        assert "..." not in stored


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="needs the /proc list of a process's children")
def test_ctrl_c_ends_a_run_and_its_workers(tmp_path, fixtures_dir):
    """SIGINT to the whole process group, as Ctrl-C sends it, ends a run
    without a traceback: the workers ignore it, and the run stops them."""
    path = write_config(tmp_path, fixtures_dir, grid={
        "n_values": [3], "x_values": [25], "temperatures": [0.0, 0.3],
        "lengths": [100, 200], "povs": ["first", "third"], "runs": 5})
    proc = subprocess.Popen(
        [sys.executable, "-m", "hirefair.cli", "run", "--config", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    try:
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        workers: list[str] = []
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            workers = children.read_text().split()
            time.sleep(0.01)
        time.sleep(0.2)  # the workers have set their SIGINT handler
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:  # a run that did not end is killed, workers included
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert len(workers) == 2
    assert proc.returncode == 1, err
    assert "Traceback" not in err, err
    deadline = time.monotonic() + 10
    while any(Path(f"/proc/{pid}").exists() for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(Path(f"/proc/{pid}").exists() for pid in workers)


# ---------------------------------------------------------------------------
# the summary grid, streamed in slices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_the_runs_measures_are_what_measure_makes(tmp_path, fixtures_dir, monkeypatch, n):
    """The measures file a run writes from each summary's step is, byte for
    byte, what `hirefair measure` writes for the run's summaries file, on one
    CPU and over the pool: one scan and one row builder."""
    cpus(monkeypatch, n)
    path = write_config(tmp_path, fixtures_dir, grid={
        "n_values": [3], "x_values": [25], "temperatures": [0.0, 0.3],
        "lengths": [100, 200], "povs": ["first", "third"], "runs": 2})
    assert CliRunner().invoke(main, ["run", "--config", str(path)]).exit_code == 0
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["measure", "--in", str(out / "summaries_gen.jsonl"),
                                       "--out", str(tmp_path / "measured.jsonl")])
    assert result.exit_code == 0, result.output
    assert result.output == "wrote 768 measure rows to " f"{tmp_path / 'measured.jsonl'}\n"
    assert (tmp_path / "measured.jsonl").read_bytes() == \
        (out / "measures_gen.jsonl").read_bytes()


#: Requests per slice in the slice tests; it does not divide their grids.
SLICE = 7


def grid_requests(config, draw: int = 0) -> list[CompletionRequest]:
    """The completion requests of one draw's summary grid, in run order."""
    resumes, _ = load_corpus(config.corpus_path)
    variants = build_variants(resumes, load_name_pools(), config, draw)
    grid = config.grid
    return [CompletionRequest(summary_prompt(resume, length, pov), temperature, length, run)
            for g in GROUP_CODES for _, resume in sorted(variants.resumes[f"name:{g}"].items())
            for temperature, length, pov in itertools.product(
                grid.temperatures, grid.lengths, grid.povs)
            for run in range(1, grid.runs + 1)]


def completion_key(backend: dict, request: CompletionRequest) -> str:
    return cache_key(backend["id"], backend["model_name"], {
        "op": "complete", "prompt": request.prompt, "temperature": request.temperature,
        "run_index": request.run_index, "max_words_hint": request.max_words_hint})


def outputs_of(out: Path) -> tuple[dict[str, bytes], list]:
    """Every artifact of a run's directory, and its cache rows in key order."""
    with closing(sqlite3.connect(out / "cache" / "responses.sqlite")) as db:
        rows = db.execute("SELECT key, response FROM responses ORDER BY key").fetchall()
    return {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}, rows


def batch_sizes(monkeypatch) -> list[int]:
    """The number of requests of each completion batch from now on, counted
    as the batch reads them."""
    sizes = []
    complete_batch = CompletionBackend.complete_batch

    def recorded(self, requests, *args, **kwargs):
        sizes.append(0)
        at = len(sizes) - 1

        def counted():
            for request in requests:
                sizes[at] += 1
                yield request

        return complete_batch(self, counted(), *args, **kwargs)

    monkeypatch.setattr(CompletionBackend, "complete_batch", recorded)
    return sizes


def window_sizes(monkeypatch, digests: set[str]) -> list[int]:
    """The number of keys of each cache lookup from now on whose keys all
    are of `digests`: the windows of the batches that request them."""
    sizes = []
    get_many = ResponseCache.get_many

    def recorded(self, keys):
        if set(keys) <= digests:
            sizes.append(len(keys))
        return get_many(self, keys)

    monkeypatch.setattr(ResponseCache, "get_many", recorded)
    return sizes


def test_each_draw_embeds_its_jobs_and_variants_as_one_batch(tmp_path, fixtures_dir,
                                                             monkeypatch):
    batches = []
    embed_batch = EmbeddingBackend.embed_batch

    def recorded(self, texts):
        batches.append(list(texts))
        return embed_batch(self, batches[-1])

    monkeypatch.setattr(EmbeddingBackend, "embed_batch", recorded)
    config = load_run_config(write_config(tmp_path, fixtures_dir, grid=SLICED_GRID))
    run_audit(config)
    resumes, jobs = load_corpus(config.corpus_path)
    for draw, texts in enumerate(batches):
        variants = build_variants(resumes, load_name_pools(), config, draw)
        assert texts == [job.body for job in jobs] + [
            variants.resumes[vid][rid].body for vid in sorted(variants.resumes)
            for rid in sorted(variants.resumes[vid])]
    assert len(batches) == config.grid.draws * len(config.embedding_backends()) == 2


#: The request that refused_one answers without a word: (prompt, run index).
REFUSED = None


def refused_one(config, request):
    """The mock summary of `request`, but none for REFUSED."""
    if (request.prompt, request.run_index) == REFUSED:
        return "..."
    return MOCK_SUMMARY(config, request)


MOCK_SUMMARY = backends.PROTOCOLS["completion", "mock"].call
SLICED_GRID = {"n_values": [3], "x_values": [25], "temperatures": [0.0], "lengths": [100],
               "povs": ["third"], "runs": 2, "draws": 2}


def test_an_in_process_grid_in_slices(tmp_path, fixtures_dir, monkeypatch):
    """On the pool, a grid sent as one batch and looked up 7 requests at a
    time writes the bytes and cache rows of the default run; no task sent to
    the pool carries a summary's text (or its row, which holds it); and a
    refusal in the second window ends the run with exit 3, the answers that
    validated before it kept."""
    cpus(monkeypatch, 2)
    default = tmp_path / "default"
    run_audit(load_run_config(write_config(tmp_path, fixtures_dir, out_dir=str(default),
                                           grid=SLICED_GRID)))

    monkeypatch.setattr(backends, "READ_CHUNK", SLICE)
    path = write_config(tmp_path, fixtures_dir, out_dir=str(tmp_path / "sliced"),
                        grid=SLICED_GRID)
    config = load_run_config(path)
    gen = dataclasses.asdict(config.completion_backends()[0])
    sizes, tasks = batch_sizes(monkeypatch), recorded_tasks(monkeypatch)
    windows = window_sizes(monkeypatch, {completion_key(gen, request) for draw in (0, 1)
                                         for request in grid_requests(config, draw)})
    run_audit(config)
    assert sizes == [96, 96]
    assert windows == ([SLICE] * (96 // SLICE) + [96 % SLICE]) * 2
    assert outputs_of(tmp_path / "sliced") == outputs_of(default)
    texts = {r.text for name in ("summaries_gen.jsonl", "summaries_gen@d1.jsonl")
             for r in read_summaries(default / name)}
    assert len(texts) > 96 and tasks
    assert not any(text.encode("utf-8") in pickle.dumps(task) for _, task in tasks
                   for text in texts)

    config = load_run_config(write_config(tmp_path, fixtures_dir, grid=SLICED_GRID))
    requests = grid_requests(config)
    monkeypatch.setattr(sys.modules[__name__], "REFUSED",
                        (requests[SLICE + 2].prompt, requests[SLICE + 2].run_index))
    monkeypatch.setitem(backends.PROTOCOLS, ("completion", "mock"),
                        backends.Protocol(call=refused_one))
    result = CliRunner().invoke(main, ["run", "--config", str(write_config(
        tmp_path, fixtures_dir, grid=SLICED_GRID))])
    assert result.exit_code == 3, result.output
    assert result.output.startswith("error: backend gen: completion without a word '...'")
    gen = config.completion_backends()[0]
    with ResponseCache(tmp_path / "out" / "cache") as cache:
        stored = [cached_response(cache, completion_key(dataclasses.asdict(gen), request))
                  for request in requests]
    assert [text is not None for text in stored] == [True] * (SLICE + 2) + \
        [False] * (len(requests) - SLICE - 2)
    assert multiprocessing.active_children() == []


def test_an_http_grid_in_slices(tmp_path, fixtures_dir, loopback, monkeypatch):
    """Over HTTP with regard at parallelism 4, a grid sent as one batch and
    fetched 7 requests at a time writes the bytes and cache rows of the
    default run, and the service receives each request once, as in the
    default run. A refusal in the second window ends the run with exit 3,
    and the first window's answers, regard included, stay cached."""
    def run(out):
        loopback.reset()
        run_audit(load_run_config(http_config(tmp_path, fixtures_dir, loopback.url, 4, out),
                                  draws=2))
        return [(r["target"], r["body"]) for r in loopback.received]

    default = run(tmp_path / "default")
    monkeypatch.setattr(backends, "WRITE_CHUNK", SLICE)
    config = load_run_config(http_config(tmp_path, fixtures_dir, loopback.url, 4,
                                         tmp_path / "sliced"), draws=2)
    gen = {"id": "gen", "model_name": "loop-chat"}
    sizes = batch_sizes(monkeypatch)
    windows = window_sizes(monkeypatch, {completion_key(gen, request) for draw in (0, 1)
                                         for request in grid_requests(config, draw)})
    sliced = run(tmp_path / "sliced")
    assert sizes == [192, 192]
    assert windows == ([SLICE] * (192 // SLICE) + [192 % SLICE]) * 2
    assert outputs_of(tmp_path / "sliced") == outputs_of(tmp_path / "default")
    assert collections.Counter(sliced) == collections.Counter(default)
    posted = collections.Counter(sliced)
    # the chat schema carries no run index, so runs 1 and 2 post one body
    assert {count for (target, _), count in posted.items()
            if target == "/v1/chat/completions"} == {2}
    assert {count for (target, _), count in posted.items()
            if target != "/v1/chat/completions"} == {1}

    out = tmp_path / "refused"
    path = http_config(tmp_path, fixtures_dir, loopback.url, 4, out)
    config = load_run_config(path)
    requests = grid_requests(config)
    refused = requests[SLICE + 1]  # run 1 of a version whose run 2 follows it
    answer = loopback.answer

    def refusing(target, body, digest):
        if target == "/v1/chat/completions" and \
                body["messages"][0]["content"] == refused.prompt:
            return None
        return answer(target, body, digest)

    monkeypatch.setattr(loopback, "answer", refusing)
    loopback.reset()
    result = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 3, result.output
    assert result.output.startswith("error: backend gen: HTTP 400"), result.output
    gen = {"id": "gen", "model_name": "loop-chat"}
    with ResponseCache(out / "cache") as cache:
        first = [cached_response(cache, completion_key(gen, request))
                 for request in requests[:SLICE]]
        assert None not in first
        assert all(cached_response(cache, cache_key("regard", config.regard_endpoint,
                                                    {"text": text})) is not None
                   for text in first)
        assert cached_response(cache, completion_key(gen, refused)) is None


def test_the_summary_stage_holds_one_slice_at_a_time(tmp_path, fixtures_dir, monkeypatch):
    """tracemalloc's peak over the summary stage of a grid looked up in eight
    windows stays well below the peak of the same grid in one window, and
    both write the same bytes: the stage streams the grid, so a change that
    gathers it again fails here."""
    config = load_run_config(write_config(tmp_path, fixtures_dir, grid={
        "n_values": [3], "x_values": [25]}))
    resumes, _ = load_corpus(config.corpus_path)
    variants = build_variants(resumes, load_name_pools(), config, 0)
    completer = build_backend(config.completion_backends()[0])
    size = len(grid_requests(config))
    assert size == 12 * 4 * 8 * 5
    peaks, outputs = {}, {}
    for slices in (8, 1):  # the one-window run finds the scan's memos filled
        monkeypatch.setattr(backends, "READ_CHUNK", size // slices)
        out = tmp_path / f"slices-{slices}"
        out.mkdir()
        tracemalloc.start()
        try:
            pipeline.summary_stage([completer], None, variants, "run", config, out)
            peaks[slices] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs[slices] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert outputs[8] == outputs[1]
    assert peaks[8] < peaks[1] / 2, peaks


@pytest.mark.parametrize("args, option", [
    (["audit", "summarization", "--measures", "{file}", "--alpha", "2"], "--alpha"),
    (["audit", "summarization", "--measures", "{file}", "--alpha", "-1"], "--alpha"),
    (["audit", "retrieval", "--scores", "{file}", "--metric", "nonuniformity",
      "--alpha", "5"], "--alpha"),
    (["rank", "--scores", "{file}", "--top", "-1"], "--top"),
    (["audit", "retrieval", "--scores", "{file}", "--metric", "exclusion", "--n", "0"], "--n"),
    (["audit", "retrieval", "--scores", "{file}", "--metric", "exclusion", "--n", "-3"], "--n"),
    (["audit", "retrieval", "--scores", "{file}", "--metric", "nonuniformity",
      "--x", "0"], "--x"),
    (["audit", "retrieval", "--scores", "{file}", "--metric", "nonuniformity",
      "--x", "100.5"], "--x"),
    (["audit", "summarization", "--measures", "{file}", "--alpha", "nan"], "--alpha"),
    (["audit", "retrieval", "--scores", "{file}", "--metric", "nonuniformity",
      "--x", "nan"], "--x"),
])
def test_stage_commands_refuse_numbers_out_of_range(tmp_path, args, option):
    """A significance level outside (0, 1), as `run` refuses it, a negative
    --top, a top-n below 1 and a top-x percentage outside (0, 100], as `run`
    refuses its n_values and x_values, are usage errors (exit 2), before any
    file is read; so is NaN, which is in no range."""
    path = tmp_path / "input"
    path.write_text("")
    result = CliRunner().invoke(main, [a.format(file=path) for a in args])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output


def test_a_regard_answer_outside_the_unit_interval_is_absent_and_never_cached(
        tmp_path, fixtures_dir, loopback, caplog):
    """A regard endpoint that answers NaN (a JSON literal Python parses) is
    refused like any unreadable answer: the run exits 0 with regard absent
    and caches nothing of it, so its rerun asks again and exits 0 too."""
    answer = loopback.answer

    def nan_regard(path, body, digest):
        if path == "/regard":
            return {"positive": math.nan, "negative": 0.5, "neutral": 0.25, "other": 0.25}
        return answer(path, body, digest)

    loopback.answer = nan_regard
    out = tmp_path / "out"
    path = write_config(tmp_path, fixtures_dir, regard_endpoint=f"{loopback.url}/regard")
    for run in (1, 2):
        with caplog.at_level(logging.WARNING, logger="hirefair.backends"):
            result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 0, result.output
        measured = read_measures(out / "measures_gen.jsonl")
        assert measured and all(mv.regard is None for _, mv in measured)
        absent = [r.getMessage() for r in caplog.records if "regard absent" in r.getMessage()]
        assert len(absent) == run and "outside [0, 1]" in absent[-1], absent
        assert set(loopback.regard_texts.values()) == {run}
