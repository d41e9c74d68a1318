import itertools
import logging
import math
import random
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirefair.corpus import GROUP_CODES
from hirefair.retrieval import (
    SCORE_COLUMNS,
    RetrievalError,
    ScoreArray,
    competition_ranks,
    cosine,
    exclusion,
    non_uniformity,
    normed_cosine,
    read_score_table,
    write_score_table,
)
from hirefair.stats import uniform_gof

# ---------------------------------------------------------------------------
# independent oracle: exhaustive re-ranking
# ---------------------------------------------------------------------------

def exclusion_bruteforce(original_scores: dict[str, float],
                         perturbed_scores: dict[str, float], n: int) -> float:
    """Literal re-ranking: substitute one perturbed resume at a time, sort the
    substituted pool, recompute competition ranks from scratch, count drops."""
    def ranks(scores: dict[str, float]) -> dict[str, int]:
        return {rid: 1 + sum(1 for other, s in scores.items()
                             if other != rid and s > scores[rid])
                for rid in scores}

    original_ranks = ranks(original_scores)
    top = [rid for rid, r in original_ranks.items() if r <= n]
    excluded = 0
    for rid in top:
        pool = dict(original_scores)
        pool[rid] = perturbed_scores[rid]
        if ranks(pool)[rid] > n:
            excluded += 1
    return excluded / len(top)


def excl(scores: dict[str, float], perturbed: dict[str, float], n: int) -> float:
    """exclusion() on score arrays, resume i being the i-th key of `scores`."""
    return exclusion(np.array(list(scores.values())),
                     np.array([perturbed[rid] for rid in scores]), n)


def mapped(f, scores: np.ndarray) -> np.ndarray:
    """f applied to each score as a Python float."""
    return np.array([f(s) for s in scores.ravel().tolist()]).reshape(scores.shape)


# ---------------------------------------------------------------------------
# cosine
# ---------------------------------------------------------------------------

def test_cosine_identical_vectors():
    assert cosine([1.0, 2.0, 2.0], [1.0, 2.0, 2.0]) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal_unit_vectors():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_hand_computed():
    expected = 32.0 / (math.sqrt(14.0) * math.sqrt(77.0))
    assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(expected, abs=1e-12)
    assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(0.974631846, abs=1e-9)


def test_cosine_symmetry_and_bounds():
    rng = random.Random(7)
    for _ in range(50):
        u = [rng.uniform(-1, 1) for _ in range(8)]
        v = [rng.uniform(-1, 1) for _ in range(8)]
        c = cosine(u, v)
        assert c == cosine(v, u)
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


def test_cosine_errors():
    with pytest.raises(RetrievalError):
        cosine([1, 2], [1, 2, 3])
    with pytest.raises(RetrievalError):
        cosine([0.0, 0.0], [1.0, 0.0])


def reference_cosine(u, v) -> float:
    """Cosine with both norms taken for the pair, as a one-off score does."""
    a, b = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    return float(np.dot(a, b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b))))


def test_normed_cosine_is_cosine_bit_for_bit():
    """Scores from norms taken once per vector, as score_variants takes
    them, are cosine's scores exactly, at magnitudes from 1e-100 to 1e100."""
    rng = np.random.default_rng(11)
    for dim in (1, 2, 16, 256):
        vectors = rng.normal(size=(12, dim)) * 10.0 ** rng.integers(-100, 100, size=(12, 1))
        norms = [float(np.linalg.norm(v)) for v in vectors]
        for a, na in zip(vectors, norms):
            for b, nb in zip(vectors, norms):
                score = normed_cosine(a, b, na, nb)
                assert score == cosine(a.tolist(), b.tolist()) == reference_cosine(a, b)


@pytest.mark.parametrize("u, v, message", [
    ([1.0, 2.0], [1.0, 2.0, 3.0], "dimension mismatch"),
    ([[1.0, 2.0]], [[1.0, 2.0]], "dimension mismatch"),
    ([0.0, 0.0], [1.0, 0.0], "zero vector"),
    ([1e200, 1e200], [1e200, 1e200], "non-finite"),
])
def test_normed_cosine_fails_as_cosine_does(u, v, message):
    a, b = np.asarray(u), np.asarray(v)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    for score in (partial(cosine, u, v), partial(normed_cosine, a, b, na, nb)):
        with pytest.raises(RetrievalError, match=message):
            score()


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def test_rank_simple():
    assert competition_ranks([0.9, 0.5, 0.1]).tolist() == [1, 2, 3]


def test_rank_ties_share_and_skip():
    assert competition_ranks([0.9, 0.9, 0.1]).tolist() == [1, 1, 3]


def test_rank_single():
    assert competition_ranks([0.4]).tolist() == [1]


def test_rank_matches_definition_on_random_scores():
    rng = random.Random(11)
    for _ in range(30):
        scores = [rng.choice([0.1, 0.25, 0.25, 0.4, 0.8]) for _ in range(9)]
        for score, rank in zip(scores, competition_ranks(scores)):
            assert rank == sum(1 for s in scores if s > score) + 1


def test_rank_duplicate_resume_error(tmp_path):
    path = table_file(tmp_path, ("j", "a", "name:MW", 0.9), ("j", "a", "name:MW@d1", 0.8))
    with pytest.raises(RetrievalError, match="duplicate"):
        read_score_table(path)


def test_rank_multiple_jobs_error():
    with pytest.raises(RetrievalError, match="1-D"):
        competition_ranks([[0.9], [0.8]])


def test_top_n_tie_at_boundary_admits_all():
    top = competition_ranks([0.9, 0.5, 0.5, 0.1]) <= 2
    assert top.tolist() == [True, True, True, False]
    assert top.sum() > 2


# ---------------------------------------------------------------------------
# exclusion
# ---------------------------------------------------------------------------

def test_exclusion_identity_perturbation_is_zero():
    scores = {"a": 0.9, "b": 0.8, "c": 0.7}
    assert excl(scores, scores, 2) == 0.0


def test_exclusion_spec_example():
    assert excl({"a": 0.9, "b": 0.8, "c": 0.7}, {"a": 0.65, "b": 0.8, "c": 0.7}, 2) == 0.5


def test_exclusion_all_dropped():
    scores = {f"r{i}": 1.0 - i / 10 for i in range(8)}
    floor = min(scores.values()) - 1.0
    perturbed = {rid: floor for rid in scores}
    assert excl(scores, perturbed, 5) == 1.0


def test_exclusion_missing_perturbed_scores():
    with pytest.raises(RetrievalError, match="shapes"):
        exclusion([0.9, 0.8], [0.5], 2)
    with pytest.raises(RetrievalError, match="shapes"):
        exclusion([], [], 1)


def test_exclusion_n_validation():
    with pytest.raises(RetrievalError):
        exclusion([0.9], [0.9], 0)


def test_exclusion_matches_bruteforce_oracle():
    rng = random.Random(4242)
    for _ in range(300):
        size = rng.randint(1, 8)
        scores = {f"r{i}": round(rng.uniform(0, 1), 6) for i in range(size)}
        perturbed = {f"r{i}": round(rng.uniform(0, 1), 6) for i in range(size)}
        n = rng.randint(1, size)
        assert excl(scores, perturbed, n) == exclusion_bruteforce(scores, perturbed, n)


def test_exclusion_fixed_membership_monotone_in_threshold():
    """With the top-set membership held fixed, raising the rank threshold
    can only keep more perturbed resumes inside."""
    rng = random.Random(99)
    for _ in range(100):
        size = rng.randint(2, 10)
        scores = [round(rng.uniform(0, 1), 6) for i in range(size)]
        perturbed = [round(rng.uniform(0, 1), 6) for i in range(size)]
        n = rng.randint(1, size - 1)
        top = np.flatnonzero(competition_ranks(scores) <= n)

        def excluded_at(threshold):
            count = 0
            for i in top:
                new_rank = 1 + sum(1 for j, s in enumerate(scores)
                                   if j != i and s > perturbed[i])
                count += new_rank > threshold
            return count

        assert excluded_at(n + 1) <= excluded_at(n)


# ---------------------------------------------------------------------------
# rank invariance under strictly increasing transforms
# ---------------------------------------------------------------------------

def monotone_transforms():
    return [lambda s: 3.5 * s + 1.25, lambda s: s ** 3 + s, lambda s: math.atan(s) + s]


def test_metrics_invariant_under_monotone_transform():
    rng = random.Random(31337)
    for _ in range(40):
        size = rng.randint(3, 12)
        scores = np.array([round(rng.uniform(-0.5, 1), 6) for i in range(size)])
        perturbed = np.array([round(rng.uniform(-0.5, 1), 6) for i in range(size)])
        n = rng.randint(1, size)
        base_ranks = competition_ranks(scores)
        base_excl = exclusion(scores, perturbed, n)
        for f in monotone_transforms():
            assert np.array_equal(competition_ranks(mapped(f, scores)), base_ranks)
            assert exclusion(mapped(f, scores), mapped(f, perturbed), n) == base_excl


# ---------------------------------------------------------------------------
# non-uniformity
# ---------------------------------------------------------------------------

def balanced_pool():
    """4 groups x 10 resumes; member 4r + g (group g, resume r) scores
    1 - (4r + g) / 100, so every group count is equal in any prefix of
    multiples of four."""
    return np.array([[1.0 - (4 * r + g) * 0.01 for r in range(10)]
                     for g in range(len(GROUP_CODES))])


def test_non_uniformity_uniform_counts():
    results = non_uniformity({"j": balanced_pool()}, x=50.0)
    (res,) = results
    assert res.k == 20
    assert res.counts == {"FB": 5, "FW": 5, "MB": 5, "MW": 5}
    assert res.chi2 == 0.0 and res.p == 1.0 and not res.flag


def test_non_uniformity_spec_counts():
    # top 25% of 160 = 40 selected with group layout 20/10/5/5
    by_group = {g: [] for g in GROUP_CODES}
    layout = [("FB", 20), ("FW", 10), ("MB", 5), ("MW", 5)]
    # remaining 120 below the cut, filling every group to 40 to keep the pool balanced
    remaining = [("FB", 40 - 20), ("FW", 40 - 10), ("MB", 40 - 5), ("MW", 40 - 5)]
    score = 1.0
    for group, count in layout + remaining:
        for i in range(count):
            by_group[group].append(score)
            score -= 0.001
    pool = np.array([by_group[g] for g in GROUP_CODES])
    (res,) = non_uniformity({"j": pool}, x=25.0)
    assert res.counts == {"FB": 20, "FW": 10, "MB": 5, "MW": 5}
    assert res.chi2 == pytest.approx(15.0)
    assert res.p == pytest.approx(0.00182, abs=1e-5)
    assert res.flag


def test_non_uniformity_pooled_mode_sums_counts():
    pool = balanced_pool()
    jobs = {"j1": pool, "j2": pool}
    occupation_of = {"j1": "Data Analyst", "j2": "Data Analyst"}
    sep = non_uniformity(jobs, x=50.0, mode="separated")
    pooled = non_uniformity(jobs, x=50.0, mode="pooled", occupation_of=occupation_of)
    assert len(sep) == 2 and len(pooled) == 1
    assert pooled[0].unit_id == "Data Analyst"
    assert pooled[0].counts == {"FB": 10, "FW": 10, "MB": 10, "MW": 10}
    assert pooled[0].k == 40


#: Scores on a grid of 21 values, so that pools hold ties.
TIED_SCORES = st.integers(0, 20).map(lambda i: i / 20)


@given(st.data(), st.sampled_from([5.0, 10.0, 37.5, 100.0]))
@settings(max_examples=60, deadline=None)
def test_pooled_non_uniformity_tests_the_summed_separated_counts(data, x):
    """Per occupation, pooled mode is the chi-squared test of the summed
    separated counts of its job posts, with k summed and underpowered OR-ed."""
    resumes = data.draw(st.integers(1, 8))
    pools = {f"j{i}": np.array(data.draw(st.lists(
        st.lists(TIED_SCORES, min_size=resumes, max_size=resumes),
        min_size=len(GROUP_CODES), max_size=len(GROUP_CODES))))
        for i in range(data.draw(st.integers(1, 5)))}
    occupation_of = {job: data.draw(st.sampled_from("ABC")) for job in pools}
    separated = {res.unit_id: res for res in non_uniformity(pools, x)}
    pooled = non_uniformity(pools, x, mode="pooled", occupation_of=occupation_of)
    assert [res.unit_id for res in pooled] == sorted(set(occupation_of.values()))
    for res in pooled:
        members = [separated[job] for job in sorted(pools) if occupation_of[job] == res.unit_id]
        counts = {g: sum(m.counts[g] for m in members) for g in GROUP_CODES}
        test = uniform_gof(list(counts.values()))
        assert res.counts == counts and all(type(c) is int for c in res.counts.values())
        assert res.k == sum(m.k for m in members)
        assert res.underpowered == any(m.underpowered for m in members)
        assert (res.chi2, res.p, res.flag) == (test.t, test.p, test.p < 0.05)
        assert (res.mode, res.x) == ("pooled", x)


def test_non_uniformity_underpowered_warning(caplog):
    pool = balanced_pool()
    with caplog.at_level(logging.WARNING):
        (res,) = non_uniformity({"j": pool}, x=5.0)  # k = ceil(2) = 2 < 4
    assert res.k == 2
    assert res.underpowered
    assert any("underpowered" in r.message for r in caplog.records)


def test_non_uniformity_validates_inputs():
    pool = balanced_pool()
    with pytest.raises(RetrievalError):
        non_uniformity({"j": pool}, x=0.0)
    with pytest.raises(RetrievalError):
        non_uniformity({"j": pool}, x=101.0)
    with pytest.raises(RetrievalError):
        non_uniformity({"j": pool}, x=10.0, mode="pooled")  # no occupation map
    with pytest.raises(RetrievalError, match="four group versions"):
        non_uniformity({"j": pool[:3]}, x=10.0)  # a group missing
    with pytest.raises(RetrievalError, match="four group versions"):
        non_uniformity({"j": pool.ravel()}, x=10.0)  # no group axis


def test_non_uniformity_counts_invariant_under_monotone_transform():
    # member 4r + g is group g's version of resume r
    pool = np.array([[round(random.Random(4 * r + g).uniform(0, 1), 6) for r in range(20)]
                     for g in range(len(GROUP_CODES))])
    base = non_uniformity({"j": pool}, x=25.0)[0]
    for f in monotone_transforms():
        res = non_uniformity({"j": mapped(f, pool)}, x=25.0)[0]
        assert res.counts == base.counts
        assert res.flag == base.flag


# ---------------------------------------------------------------------------
# score table persistence
# ---------------------------------------------------------------------------

def table_file(tmp_path, *rows) -> Path:
    """A score table file of `rows` under SCORE_COLUMNS."""
    path = tmp_path / "scores.csv"
    lines = [SCORE_COLUMNS, *rows]
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in lines))
    return path


def test_score_table_round_trip(tmp_path):
    """A written table reads back bit for bit, the draw tag dropped and the
    jobs sorted; the file lists jobs in table order, then variant, then
    resume."""
    rng = np.random.default_rng(5)
    scores = rng.uniform(-1, 1, (2, 3, 2)) * np.array([1e-300, 1.0, 1e300])[:, None]
    scores[0, 0, 0] = 0.1 + 0.2
    table = ScoreArray(("name:FW", "swap:MW->FW"), ("j3", "j1", "j2"), ("r1", "r2"), scores)
    path = tmp_path / "scores.csv"
    write_score_table(table, path, "@d2")
    rows = path.read_text().splitlines()
    assert rows[0] == ",".join(SCORE_COLUMNS) and len(rows) == 1 + len(table) == 13
    assert [row.split(",")[:3] for row in rows[1:4]] == [
        ["j3", "r1", "name:FW@d2"], ["j3", "r2", "name:FW@d2"], ["j3", "r1", "swap:MW->FW@d2"]]
    read = read_score_table(path)
    assert (read.variants, read.jobs, read.resumes) == (
        ("name:FW", "swap:MW->FW"), ("j1", "j2", "j3"), ("r1", "r2"))
    assert read.scores.tobytes() == scores[:, [1, 2, 0]].tobytes()


def test_score_array_is_dense_and_sorted(tmp_path):
    cells = itertools.product(("swap:MW->FW", "name:MW"), ("j2", "j1"), ("r2", "r1"))
    table = read_score_table(table_file(tmp_path, *(
        (job, rid, variant + "@d1", float(score))
        for score, (variant, job, rid) in enumerate(cells))))
    assert table.variants == ("name:MW", "swap:MW->FW")  # draw tag dropped
    assert table.jobs == ("j1", "j2") and table.resumes == ("r1", "r2")
    assert len(table) == 8
    assert table.of("name:MW").tolist() == [[7.0, 6.0], [5.0, 4.0]]
    assert table.of("swap:MW->FW")[1].tolist() == [1.0, 0.0]
    with pytest.raises(RetrievalError, match="not present"):
        table.of("name:FW")
    with pytest.raises(RetrievalError, match="not present"):
        table.pools()


def test_score_array_pools_follow_group_codes(tmp_path):
    rows = [("j", "r", f"name:{g}", float(i)) for i, g in enumerate(GROUP_CODES)]
    (job, pool), = read_score_table(table_file(tmp_path, *reversed(rows))).pools().items()
    assert job == "j" and pool.tolist() == [[0.0], [1.0], [2.0], [3.0]]


def test_score_array_rejects_gaps_and_bad_scores(tmp_path):
    for rows, message in [
        ([("j1", "r1", "name:MW", 0.5), ("j2", "r2", "name:MW", 0.4)],
         r"lacks 2 cell\(s\), first \('name:MW', 'j1', 'r2'\)"),
        ([("j1", "r1", "name:MW", "nan")], "non-finite"),
        ([("j1", "r1", "name:MW", "-inf")], "non-finite"),
        ([], "empty"),
        ([("j1", "r1", "name:MW")], "expected 4 fields, got 3"),
        ([("j1", "r1", "name:MW", "high")], "cannot read score table"),
    ]:
        with pytest.raises(RetrievalError, match=message):
            read_score_table(table_file(tmp_path, *rows))


def test_score_table_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,nope\n1,2\n")
    with pytest.raises(RetrievalError):
        read_score_table(path)


@given(st.lists(st.floats(-1, 1), min_size=2, max_size=12, unique=True))
@settings(max_examples=60, deadline=None)
def test_exclusion_bounds(scores):
    value = exclusion(scores, [-s for s in scores], 2)
    assert 0.0 <= value <= 1.0
