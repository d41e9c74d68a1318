"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s or check the pytest report).

Every expected value here comes from an independent route: direct numerical
integration of densities, literal brute-force re-ranking, an independent
step-up scan for the corrections, and hand-counted readability fixtures.
"""

import contextlib
import hashlib
import math
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

from hirefair.backends import mock_biased_embedding, mock_embedding
from hirefair.config import load_run_config
from hirefair.corpus import GROUP_CODES, DemographicGroup, load_corpus
from hirefair.perturb import (
    assign_name,
    assigned_first_name,
    between_group_swap,
    spacing_perturb,
    typo_perturb,
)
from hirefair.pipeline import SWAPS, run_audit
from hirefair.retrieval import (
    competition_ranks,
    cosine,
    exclusion,
    non_uniformity,
)
from hirefair.stats import (
    bh_correct,
    bonferroni_correct,
    chi2_sf,
    chi_squared_gof,
    student_t_two_sided_p,
)
from hirefair.textmetrics import flesch_reading_ease, polarity, reading_time

from test_retrieval import exclusion_bruteforce, mapped
from test_stats import chi2_sf_quadrature, t_sf_quadrature
from test_textmetrics import FLESCH_FIXTURES, flesch_formula


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


DF_GRID = (1, 3, 10, 30, 100)


def test_criterion_1_statistics_oracle_equivalence():
    with criterion(1, "statistics oracle equivalence"):
        start = time.perf_counter()
        for df in DF_GRID:
            for t in np.linspace(0.02, 10.0, 50):
                ours = student_t_two_sided_p(float(t), df)
                oracle = 2.0 * t_sf_quadrature(float(t), df)
                assert abs(ours - oracle) <= 1e-8
            for x in np.linspace(0.05, 50.0, 50):
                ours = chi2_sf(float(x), df)
                oracle = chi2_sf_quadrature(float(x), df)
                assert abs(ours - oracle) <= 1e-8
        result = chi_squared_gof([20, 10, 5, 5], [10, 10, 10, 10])
        assert result.t == 15.0
        assert abs(result.p - 0.00182) <= 1e-5
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"oracle grid took {elapsed:.2f}s"


def bh_stepup_scan(pvalues, alpha):
    """Independent step-up: walk k from m down to 1, reject the k smallest."""
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: pvalues[i])
    flags = [False] * m
    for k in range(m, 0, -1):
        if pvalues[order[k - 1]] <= k * alpha / m:
            for idx in order[:k]:
                flags[idx] = True
            break
    return flags


def test_criterion_2_correction_correctness():
    with criterion(2, "BH/Bonferroni correctness"):
        rng = random.Random(92)
        for _ in range(1000):
            m = rng.randint(1, 60)
            # mix sub-alpha, null, and tied p-values
            pvalues = [round(rng.choice([rng.random(), rng.random() * 0.08,
                                         rng.choice([0.01, 0.05, 1.0])]), 6)
                       for _ in range(m)]
            alpha = rng.choice([0.01, 0.05, 0.1])
            bh = bh_correct(pvalues, alpha)
            assert bh == bh_stepup_scan(pvalues, alpha)
            bonf = bonferroni_correct(pvalues, alpha)
            assert all(not b or h for b, h in zip(bonf, bh))


TRANSFORMS = (lambda s: 3.5 * s + 1.25, lambda s: s ** 3 + s)


def test_criterion_3_metric_invariance_under_monotone_transforms():
    with criterion(3, "rank/top-n/exclusion/non-uniformity invariance"):
        for case in range(100):
            rng = random.Random(f"invariance:{case}")
            ids = [f"r{i}" for i in range(20)]
            scores = np.array([round(rng.uniform(-0.2, 1.0), 6) for rid in ids])
            perturbed = np.array([round(rng.uniform(-0.2, 1.0), 6) for rid in ids])
            n = rng.randint(1, 10)
            # drawn resume-major; the pool array is (4 groups x 20 resumes)
            pooled = np.array([round(rng.uniform(0, 1), 6)
                               for rid in ids for g in GROUP_CODES]).reshape(len(ids), -1).T

            # equal rank arrays imply equal top-n membership
            base_ranks = competition_ranks(scores)
            base_excl = exclusion(scores, perturbed, n)
            base_counts = non_uniformity({"j": pooled}, x=25.0)[0].counts

            for f in TRANSFORMS:
                t_scores = mapped(f, scores)
                assert np.array_equal(competition_ranks(t_scores), base_ranks)
                assert exclusion(t_scores, mapped(f, perturbed), n) == base_excl
                t_pooled = mapped(f, pooled)
                assert non_uniformity({"j": t_pooled}, x=25.0)[0].counts == base_counts


def test_criterion_4_exclusion_matches_exhaustive_oracle():
    with criterion(4, "exclusion vs exhaustive re-ranking oracle"):
        rng = random.Random(4096)
        for _ in range(1000):
            size = rng.randint(1, 8)
            scores = {f"r{i}": round(rng.uniform(0, 1), 6) for i in range(size)}
            perturbed = {f"r{i}": round(rng.uniform(0, 1), 6) for i in range(size)}
            n = rng.randint(1, size)
            original = np.array(list(scores.values()))
            assert exclusion(original, np.array(list(perturbed.values())), n) == \
                exclusion_bruteforce(scores, perturbed, n)
            assert exclusion(original, original, n) == 0.0  # identity perturbation


VOCAB = [f"tok{i}" for i in range(200)]
N_BIAS_JOBS = 500
N_BIAS_RESUMES = 24
HIGH_BIAS = 8.0


def test_criterion_5_bias_detection_power(pools):
    with criterion(5, "bias detection power and directional symmetry"):
        tag_bias = {n: HIGH_BIAS for n in pools["FW"].names}
        high_flags = zero_flags = 0
        for i in range(N_BIAS_JOBS):
            rng = random.Random(f"bias:{i}")
            job_vec = mock_embedding(" ".join(rng.sample(VOCAB, 10) + ["the"]))
            pooled_high = {g: [] for g in GROUP_CODES}
            pooled_zero = {g: [] for g in GROUP_CODES}
            for r in range(N_BIAS_RESUMES):
                base = rng.sample(VOCAB, 12)
                for g in GROUP_CODES:
                    name = rng.choice(pools[g].names)
                    text = " ".join(base + [name, "Williams"])
                    biased = mock_biased_embedding(text, tag_bias)
                    plain = mock_embedding(text)
                    pooled_high[g].append(cosine(biased, job_vec))
                    pooled_zero[g].append(cosine(plain, job_vec))
            high = np.array([pooled_high[g] for g in GROUP_CODES])
            zero = np.array([pooled_zero[g] for g in GROUP_CODES])
            high_flags += non_uniformity({"j": high}, x=25.0)[0].flag
            zero_flags += non_uniformity({"j": zero}, x=25.0)[0].flag
        assert high_flags / N_BIAS_JOBS >= 0.95, f"high-bias rate {high_flags/N_BIAS_JOBS}"
        assert zero_flags / N_BIAS_JOBS <= 0.07, f"zero-bias rate {zero_flags/N_BIAS_JOBS}"

        values = {direction: [] for direction, _, _ in SWAPS}
        for i in range(N_BIAS_JOBS):
            rng = random.Random(f"dir:{i}")
            job_vec = mock_embedding(" ".join(rng.sample(VOCAB, 10)))
            scores = {g: [] for g in GROUP_CODES}
            for r in range(N_BIAS_RESUMES):
                base = rng.sample(VOCAB, 12)
                for g in GROUP_CODES:
                    name = rng.choice(pools[g].names)
                    text = " ".join(base + [name, "Williams"])
                    scores[g].append(cosine(mock_embedding(text), job_vec))
            for direction, src, tgt in SWAPS:
                values[direction].append(exclusion(scores[src], scores[tgt], 5))
        mean = {d: math.fsum(v) / len(v) for d, v in values.items()}
        assert abs(mean["M->F"] - mean["F->M"]) <= 0.02
        assert abs(mean["W->B"] - mean["B->W"]) <= 0.02


def test_criterion_6_perturbation_contracts(pools, fixtures_dir):
    with criterion(6, "perturbation contracts over the fixture corpus"):
        resumes, _ = load_corpus(fixtures_dir / "audit_corpus.jsonl")
        assert len(resumes) >= 40
        for idx, resume in enumerate(resumes):
            named = assign_name(resume, DemographicGroup.from_code("MW"), pools,
                                seed=idx)

            typod = typo_perturb(named, seed=idx, count=10)
            assert len(typod.body) == len(named.body)
            changed = sum(1 for a, b in zip(named.body, typod.body) if a != b)
            assert changed == 10

            spaced = spacing_perturb(named)
            assert "\n" not in spaced.body and "\r" not in spaced.body

            swapped = between_group_swap(named, DemographicGroup.from_code("FB"),
                                         pools, seed=idx)
            old = assigned_first_name(named)
            new = assigned_first_name(swapped)
            assert swapped.body == re.sub(rf"\b{old}\b", new, named.body)
            keep = lambda body: [t for t in body.split() if t not in (old, new)]
            assert keep(named.body) == keep(swapped.body)


def test_criterion_7_text_measures():
    with criterion(7, "text measure values and exactness"):
        for text, words, sentences, syllables in FLESCH_FIXTURES:
            expected = flesch_formula(words, sentences, syllables)
            assert abs(flesch_reading_ease(text) - expected) <= 1e-9

        rng = random.Random(77)
        chunks = ["".join(rng.choice("abcdef \n.") for _ in range(rng.randint(0, 500)))
                  for _ in range(200)]
        for a, b in zip(chunks[::2], chunks[1::2]):
            assert reading_time(a + b) == reading_time(a) + reading_time(b)

        assert polarity("not great") == pytest.approx(-0.4)


E2E_BUDGET_SECONDS = 60.0

#: sha256 of the fixture run's report.csv; perfbench/workloads.py checks the
#: replication workload against the same digest, so a refactor that flips a
#: score tie fails here first.
FIXTURE_REPORT_SHA256 = "83f519e70deb034ca72e4b85b61f04feaef1bf73cab0a0f19ad2c02e0e2dfbb8"
#: sha256 of the fixture run's measures file: a text measure that drifts in
#: its last bit fails here even when no reported figure moves.
FIXTURE_MEASURES_SHA256 = "6c23036b205bf3fe26bb3f822ae133c48f25f7682af3c4bd2066fe549c445a18"


def test_criterion_8_end_to_end_determinism(tmp_path, fixtures_dir):
    with criterion(8, "end-to-end mock run: speed and byte determinism"):
        config_path = fixtures_dir / "mock_run.json"
        config_a = load_run_config(config_path, out_dir=tmp_path / "run-a")
        config_b = load_run_config(config_path, out_dir=tmp_path / "run-b")

        resumes, jobs = load_corpus(config_a.corpus_path)
        assert len(resumes) >= 40 and len(jobs) == 3
        assert config_a.grid.temperatures == (0.0, 0.3)
        assert config_a.grid.lengths == (100, 200)
        assert config_a.grid.povs == ("first", "third")
        assert config_a.grid.runs == 5

        start = time.perf_counter()
        result_a = run_audit(config_a)
        elapsed = time.perf_counter() - start
        assert elapsed < E2E_BUDGET_SECONDS, f"run took {elapsed:.1f}s"

        result_b = run_audit(config_b)
        assert result_a.run_id == result_b.run_id
        compare = ["manifest.json", "ledger.jsonl", "report.csv", "report.json",
                   "scores_mock-embed.csv", "summaries_mock-complete.jsonl",
                   "measures_mock-complete.jsonl", "t_tests.jsonl",
                   "nonuniformity_tests.jsonl", "plot_exclusion.csv",
                   "plot_nonuniformity.csv", "plot_violation_rate.csv"]
        for name in compare:
            a = (Path(config_a.out_dir) / name).read_bytes()
            b = (Path(config_b.out_dir) / name).read_bytes()
            assert a == b, f"{name} differs between reruns"
        report = (Path(config_a.out_dir) / "report.csv").read_bytes()
        assert hashlib.sha256(report).hexdigest() == FIXTURE_REPORT_SHA256
        measures = (Path(config_a.out_dir) / "measures_mock-complete.jsonl").read_bytes()
        assert hashlib.sha256(measures).hexdigest() == FIXTURE_MEASURES_SHA256
        assert len(result_a.report.rows) > 0
        assert {r.metric for r in result_a.report.rows} == \
            {"exclusion", "nonuniformity", "violation_rate"}
