"""Similarity ranking and the retrieval fairness metrics.

The metrics work on numpy score arrays: one job's resumes on the last axis,
and for non-uniformity the four group versions of each resume on the first.
Ranks are competition ranks computed from strict score comparisons, so any
strictly increasing transform of the scores leaves ranks, top-n membership,
and both metrics unchanged.

The exclusion counterfactual re-ranks each perturbed resume one at a time
against the original competitor pool (all other resumes keep their original
scores). This pool choice is a configuration decision and is echoed into
reports rather than treated as ground truth.

A run's scores and a score table file are one ScoreArray (variant x job x
resume), which pipeline.score_variants fills pair by pair with normed_cosine
and write_score_table and read_score_table (used by `rank` and `audit
retrieval`) carry to and from a file. `cosine` is the tests' oracle.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from hirefair.corpus import GROUP_CODES
from hirefair.records import RetrievalError
from hirefair.stats import uniform_gof

logger = logging.getLogger(__name__)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of float64 vectors; every score and norm of the audit is one."""
    return np.dot(a, b)


def norm(x: np.ndarray) -> float:
    """The Euclidean norm of a float64 array, read flat: sqrt(dot(x, x))."""
    return math.sqrt(dot(x.ravel(), x.ravel()))


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    """Cosine similarity of two vectors."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    return normed_cosine(a, b, norm(a), norm(b))


def normed_cosine(a: np.ndarray, b: np.ndarray, na: float, nb: float) -> float:
    """cosine(a, b) of float64 arrays given their norms `na` and `nb`, so
    that scoring many pairs takes each vector's norm once."""
    if a.shape != b.shape or a.ndim != 1:
        raise RetrievalError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if na == 0.0 or nb == 0.0:
        raise RetrievalError("cosine undefined for zero vector")
    value = float(dot(a, b) / (na * nb))
    if not math.isfinite(value):
        raise RetrievalError("non-finite cosine similarity")
    return value


def competition_ranks(scores) -> np.ndarray:
    """Rank of each score among one job's scores: 1 + the number of strictly
    greater scores, so ties share a rank and the ranks after them skip."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise RetrievalError(f"ranks need one job's 1-D scores, got shape {scores.shape}")
    return 1 + scores.size - np.searchsorted(np.sort(scores), scores, side="right")


def exclusion(original, perturbed, n: int) -> float:
    """Fraction of the original top-n whose perturbed version falls outside top-n.

    original[i] and perturbed[i] are resume i's scores for one job before and
    after the perturbation. Each perturbed resume is re-ranked one at a time
    against the other resumes' original scores: its rank is 1 + the number
    of other originals above it, and it is excluded when that rank exceeds n.
    """
    if n < 1:
        raise RetrievalError(f"n must be >= 1, got {n}")
    original = np.asarray(original, dtype=np.float64)
    perturbed = np.asarray(perturbed, dtype=np.float64)
    if original.ndim != 1 or original.size == 0 or perturbed.shape != original.shape:
        raise RetrievalError(
            f"need one original and one perturbed score per resume, got shapes "
            f"{original.shape} and {perturbed.shape}"
        )
    top = competition_ranks(original) <= n
    new = perturbed[top]
    above = original.size - np.searchsorted(np.sort(original), new, side="right")
    above -= original[top] > new  # the resume's own original score
    return int(np.count_nonzero(1 + above > n)) / int(np.count_nonzero(top))


@dataclass(frozen=True)
class NonUniformityResult:
    # job id (separated) or occupation (pooled)
    unit_id: str = field(metadata={"key": "unit"})
    mode: str
    x: float
    k: int  # selected pool members (ties included)
    counts: dict[str, int] = field(compare=False)
    chi2: float = 0.0
    p: float = 1.0
    flag: bool = False
    underpowered: bool = False


def top_x_counts(pool, x: float) -> tuple[dict[str, int], int, bool]:
    """Per-group members of the top-x% of one job's (4 groups x R resumes)
    pool, rows in GROUP_CODES order; returns (counts, selected, underpowered).
    Every member whose competition rank is within the cut is selected."""
    pool = np.asarray(pool, dtype=np.float64)
    if pool.ndim != 2 or pool.shape[0] != len(GROUP_CODES) or pool.shape[1] == 0:
        raise RetrievalError(
            f"pool must contain every resume in all four group versions, "
            f"got shape {pool.shape}"
        )
    k = max(1, math.ceil(x / 100.0 * pool.size))
    selected = (competition_ranks(pool.ravel()) <= k).reshape(pool.shape)
    counts = dict(zip(GROUP_CODES, selected.sum(axis=1).tolist()))
    underpowered = k < len(GROUP_CODES)
    if underpowered:
        logger.warning("top-%s%% selects only %d resumes; test underpowered", x, k)
    return counts, int(selected.sum()), underpowered


def non_uniformity(
    scores_by_job: Mapping[str, np.ndarray],
    x: float,
    mode: str = "separated",
    occupation_of: Mapping[str, str] | None = None,
    alpha: float = 0.05,
) -> list[NonUniformityResult]:
    """Chi-squared test of group balance in the top-x% of the pooled corpus.

    Each job maps to its (4 groups x R resumes) score pool, rows in
    GROUP_CODES order. Separated mode tests each job post; pooled mode sums
    the per-job counts across each occupation's job posts and runs one test
    per occupation.
    """
    if not 0 < x <= 100:
        raise RetrievalError(f"x must be in (0, 100], got {x}")
    if mode not in ("separated", "pooled"):
        raise RetrievalError(f"unknown mode {mode!r}")
    if mode == "pooled" and occupation_of is None:
        raise RetrievalError("pooled mode requires an occupation mapping")

    per_job = {job_id: top_x_counts(scores_by_job[job_id], x)
               for job_id in sorted(scores_by_job)}

    def build(unit_id: str, counts: dict[str, int], k: int, underpowered: bool):
        result = uniform_gof([counts[g] for g in GROUP_CODES])
        return NonUniformityResult(
            unit_id=unit_id, mode=mode, x=x, k=k, counts=counts,
            chi2=result.t, p=result.p, flag=result.p < alpha,
            underpowered=underpowered,
        )

    if mode == "separated":
        return [build(job_id, *per_job[job_id]) for job_id in sorted(per_job)]

    by_occupation: dict[str, list[str]] = {}
    for job_id in per_job:
        by_occupation.setdefault(occupation_of[job_id], []).append(job_id)
    results = []
    for occupation in sorted(by_occupation):
        counts = {g: 0 for g in GROUP_CODES}
        k_total = 0
        underpowered = False
        for job_id in by_occupation[occupation]:
            job_counts, k, up = per_job[job_id]
            for g in GROUP_CODES:
                counts[g] += job_counts[g]
            k_total += k
            underpowered = underpowered or up
        results.append(build(occupation, counts, k_total, underpowered))
    return results


# ---------------------------------------------------------------------------
# score table
# ---------------------------------------------------------------------------

#: The columns of a score table file, one row per score.
SCORE_COLUMNS = ["job_id", "resume_id", "variant_id", "score"]


@dataclass(frozen=True)
class ScoreArray:
    """Scores as one dense array indexed (variant, job, resume), with the ids
    of each axis; its length is the number of scores. Variants and resumes
    are sorted; jobs are in corpus order in a run, and sorted in a table
    read from a file."""

    variants: tuple[str, ...]
    jobs: tuple[str, ...]
    resumes: tuple[str, ...]
    scores: np.ndarray

    def __len__(self) -> int:
        return self.scores.size

    def of(self, variant: str) -> np.ndarray:
        """The (job, resume) scores of one variant."""
        if variant not in self.variants:
            raise RetrievalError(f"variant {variant!r} not present in score table")
        return self.scores[self.variants.index(variant)]

    def pools(self) -> dict[str, np.ndarray]:
        """Per job, the (4 groups x R resumes) scores of the name:* variants,
        groups in GROUP_CODES order."""
        names = np.stack([self.of(f"name:{g}") for g in GROUP_CODES])
        return {job_id: names[:, j] for j, job_id in enumerate(self.jobs)}


def dense(variants: Sequence[str], jobs: Sequence[str], resumes: Sequence[str],
          cells: Iterable[tuple[tuple[int, int, int], float]]) -> ScoreArray:
    """The ScoreArray over these axes of `cells`, each a (variant, job,
    resume) index and its finite score; a cell that none gives is a
    RetrievalError naming the first."""
    axes = (tuple(variants), tuple(jobs), tuple(resumes))
    scores = np.full([len(axis) for axis in axes], np.nan)
    for at, score in cells:
        scores[at] = score
    missing = np.argwhere(np.isnan(scores))
    if missing.size:
        first = tuple(axis[i] for axis, i in zip(axes, missing[0]))
        raise RetrievalError(f"score table lacks {len(missing)} cell(s), first {first}")
    return ScoreArray(*axes, scores=scores)


def write_score_table(table: ScoreArray, path, tag: str = "") -> None:
    """Write scores as CSV so metrics can be recomputed without re-embedding:
    a SCORE_COLUMNS row per score, jobs in table order, then variant and
    resume, each variant id with the draw tag `tag` (@d1)."""
    scores = table.scores.tolist()
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_COLUMNS)
        for j, job_id in enumerate(table.jobs):
            for variant_id, by_job in zip(table.variants, scores):
                writer.writerows((job_id, resume_id, variant_id + tag, score)
                                 for resume_id, score in zip(table.resumes, by_job[j]))


def read_score_table(path) -> ScoreArray:
    """The ScoreArray of a score table file, every axis sorted; the draw tag
    of a variant id (name:MW@d1) is dropped. A file that is not a score
    table, a non-finite score, a (variant, job, resume) cell given twice, a
    missing one and an empty table are RetrievalErrors."""
    cells: dict[tuple[str, str, str], float] = {}
    try:
        with Path(path).open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != SCORE_COLUMNS:
                raise RetrievalError(f"unexpected score table header: {header}")
            for rec in reader:
                if len(rec) != len(SCORE_COLUMNS):
                    raise RetrievalError(f"{path}: line {reader.line_num}: expected "
                                         f"{len(SCORE_COLUMNS)} fields, got {len(rec)}")
                job_id, resume_id, variant_id, score = rec
                key = (variant_id.partition("@")[0], job_id, resume_id)
                score = float(score)
                if not math.isfinite(score):
                    raise RetrievalError(f"non-finite score for {key}")
                if key in cells:
                    raise RetrievalError(f"duplicate score for {key}")
                cells[key] = score
    except (OSError, UnicodeDecodeError, csv.Error, ValueError) as exc:
        raise RetrievalError(f"cannot read score table {path}: {exc}") from exc
    if not cells:
        raise RetrievalError("score table is empty")
    axes = [sorted({key[i] for key in cells}) for i in range(3)]
    index = [{name: i for i, name in enumerate(axis)} for axis in axes]
    return dense(*axes, ((tuple(ix[name] for ix, name in zip(index, key)), score)
                         for key, score in cells.items()))
