"""Similarity ranking and the retrieval fairness metrics.

Ranks are competition ranks computed from strict score comparisons, so any
strictly increasing transform of the scores leaves ranks, top-n membership,
and both metrics unchanged.

The exclusion counterfactual re-ranks each perturbed resume one at a time
against the original competitor pool (all other resumes keep their original
scores). This pool choice is a configuration decision and is echoed into
reports rather than treated as ground truth.
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
from hirefair.stats import uniform_gof

logger = logging.getLogger(__name__)

#: Aggregate perturbation directions and their constituent (source, target) swaps.
DIRECTIONS = {
    "M->F": (("MW", "FW"), ("MB", "FB")),
    "F->M": (("FW", "MW"), ("FB", "MB")),
    "W->B": (("MW", "MB"), ("FW", "FB")),
    "B->W": (("MB", "MW"), ("FB", "FW")),
}

_PAIR_TO_DIRECTION = {
    pair: direction for direction, pairs in DIRECTIONS.items() for pair in pairs
}


class RetrievalError(Exception):
    """Raised for invalid retrieval inputs."""


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    """Cosine similarity of two vectors."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise RetrievalError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise RetrievalError("cosine undefined for zero vector")
    value = float(np.dot(a, b) / (na * nb))
    if not math.isfinite(value):
        raise RetrievalError("non-finite cosine similarity")
    return value


@dataclass(frozen=True)
class SimilarityRecord:
    resume_id: str
    job_id: str
    score: float


@dataclass(frozen=True)
class RankedEntry:
    resume_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class RankedSet:
    """Resumes for one job ordered by nonincreasing score with competition ranks."""

    job_id: str
    entries: tuple[RankedEntry, ...]

    def top_n(self, n: int) -> "TopNSet":
        if n < 1:
            raise RetrievalError(f"n must be >= 1, got {n}")
        members = frozenset(e.resume_id for e in self.entries if e.rank <= n)
        return TopNSet(job_id=self.job_id, n=n, members=members)


@dataclass(frozen=True)
class TopNSet:
    """Membership set for rank <= n; ties at the boundary are all admitted."""

    job_id: str
    n: int
    members: frozenset[str]


def _competition_ranks(items: Sequence[tuple[str, float]]) -> list[RankedEntry]:
    # rank = 1 + number of strictly greater scores; ties share a rank
    ordered = sorted(items, key=lambda it: (-it[1], it[0]))
    entries: list[RankedEntry] = []
    rank = 1
    for i, (rid, score) in enumerate(ordered):
        if i > 0 and score < ordered[i - 1][1]:
            rank = i + 1
        entries.append(RankedEntry(resume_id=rid, score=score, rank=rank))
    return entries


def rank_resumes(records: Sequence[SimilarityRecord]) -> RankedSet:
    """Rank one job's similarity records: lower rank means higher similarity."""
    if not records:
        raise RetrievalError("no similarity records to rank")
    job_ids = {r.job_id for r in records}
    if len(job_ids) != 1:
        raise RetrievalError(f"records span multiple jobs: {sorted(job_ids)}")
    seen: set[str] = set()
    for r in records:
        if r.resume_id in seen:
            raise RetrievalError(f"duplicate resume_id {r.resume_id!r}")
        seen.add(r.resume_id)
    entries = _competition_ranks([(r.resume_id, r.score) for r in records])
    return RankedSet(job_id=records[0].job_id, entries=tuple(entries))


def exclusion(original: RankedSet, perturbed_scores: Mapping[str, float], n: int) -> float:
    """Fraction of the original top-n whose perturbed version falls outside top-n.

    Each perturbed resume d' is re-ranked one at a time against the other
    resumes' original scores; d' is excluded when its competition rank in
    that substituted pool exceeds n.
    """
    if n < 1:
        raise RetrievalError(f"n must be >= 1, got {n}")
    top = [e for e in original.entries if e.rank <= n]
    if not top:
        raise RetrievalError(f"empty top-{n} set for job {original.job_id!r}")
    missing = [e.resume_id for e in top if e.resume_id not in perturbed_scores]
    if missing:
        raise RetrievalError(
            f"perturbed scores missing for top-{n} members: {missing}"
        )
    excluded = 0
    for e in top:
        new_score = perturbed_scores[e.resume_id]
        new_rank = 1 + sum(
            1 for other in original.entries
            if other.resume_id != e.resume_id and other.score > new_score
        )
        if new_rank > n:
            excluded += 1
    return excluded / len(top)


@dataclass(frozen=True)
class PooledScore:
    """One scored member of the pooled four-group corpus for a job."""

    member_id: str  # unique within the pool, e.g. "r12@FW"
    group: str      # group code
    score: float


@dataclass(frozen=True)
class NonUniformityResult:
    unit_id: str  # job id (separated) or occupation (pooled)
    mode: str
    x: float
    k: int  # selected pool members (ties included)
    counts: dict[str, int] = field(compare=False)
    chi2: float = 0.0
    p: float = 1.0
    flag: bool = False
    underpowered: bool = False


def _top_x_counts(scores: Sequence[PooledScore], x: float) -> tuple[dict[str, int], int, bool]:
    pool_size = len(scores)
    k = max(1, math.ceil(x / 100.0 * pool_size))
    entries = _competition_ranks([(s.member_id, s.score) for s in scores])
    group_of = {s.member_id: s.group for s in scores}
    counts = {g: 0 for g in GROUP_CODES}
    selected = 0
    for e in entries:
        if e.rank <= k:
            counts[group_of[e.resume_id]] += 1
            selected += 1
    underpowered = k < len(GROUP_CODES)
    if underpowered:
        logger.warning("top-%s%% selects only %d resumes; test underpowered", x, k)
    return counts, selected, underpowered


def _validate_pool(scores: Sequence[PooledScore], unit: str) -> None:
    counts = {g: 0 for g in GROUP_CODES}
    for s in scores:
        if s.group not in counts:
            raise RetrievalError(f"{unit}: unknown group {s.group!r}")
        counts[s.group] += 1
    if len(set(counts.values())) != 1 or 0 in counts.values():
        raise RetrievalError(
            f"{unit}: pool must contain every resume in all four group versions, "
            f"got counts {counts}"
        )


def non_uniformity(
    scores_by_job: Mapping[str, Sequence[PooledScore]],
    x: float,
    mode: str = "separated",
    occupation_of: Mapping[str, str] | None = None,
    alpha: float = 0.05,
) -> list[NonUniformityResult]:
    """Chi-squared test of group balance in the top-x% of the pooled corpus.

    Separated mode tests each job post; pooled mode sums the per-job counts
    across each occupation's job posts and runs one test per occupation.
    """
    if not 0 < x <= 100:
        raise RetrievalError(f"x must be in (0, 100], got {x}")
    if mode not in ("separated", "pooled"):
        raise RetrievalError(f"unknown mode {mode!r}")
    if mode == "pooled" and occupation_of is None:
        raise RetrievalError("pooled mode requires an occupation mapping")

    per_job: dict[str, tuple[dict[str, int], int, bool]] = {}
    for job_id in sorted(scores_by_job):
        scores = scores_by_job[job_id]
        _validate_pool(scores, f"job {job_id!r}")
        per_job[job_id] = _top_x_counts(scores, x)

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


def direction_of(source: str, target: str) -> str | None:
    """Aggregate direction for a (source, target) group swap, if any."""
    return _PAIR_TO_DIRECTION.get((source, target))


@dataclass(frozen=True)
class SwapExclusion:
    """Exclusion measured for one job under one between-group swap."""

    source: str
    target: str
    value: float
    job_id: str = ""


@dataclass(frozen=True)
class DirectionResult:
    direction: str
    value: float  # mean exclusion across constituent swaps and jobs
    samples: int


def directional_exclusion(grid: Iterable[SwapExclusion]) -> list[DirectionResult]:
    """Partition per-swap exclusion values into the four aggregate directions."""
    sums: dict[str, list[float]] = {}
    for row in grid:
        direction = direction_of(row.source, row.target)
        if direction is None:
            raise RetrievalError(
                f"swap {row.source}->{row.target} maps to no aggregate direction"
            )
        sums.setdefault(direction, []).append(row.value)
    return [
        DirectionResult(direction=d, value=math.fsum(vals) / len(vals), samples=len(vals))
        for d, vals in sorted(sums.items())
    ]


# ---------------------------------------------------------------------------
# score table persistence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreRow:
    job_id: str
    resume_id: str
    variant_id: str
    score: float


SCORE_TABLE_FIELDS = ("job_id", "resume_id", "variant_id", "score")


def write_score_table(rows: Iterable[ScoreRow], path) -> None:
    """Write scores as CSV so metrics can be recomputed without re-embedding."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_TABLE_FIELDS)
        for r in rows:
            writer.writerow([r.job_id, r.resume_id, r.variant_id, repr(r.score)])


def read_score_table(path) -> list[ScoreRow]:
    path = Path(path)
    rows: list[ScoreRow] = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(SCORE_TABLE_FIELDS):
            raise RetrievalError(f"unexpected score table header: {header}")
        for rec in reader:
            rows.append(ScoreRow(job_id=rec[0], resume_id=rec[1],
                                 variant_id=rec[2], score=float(rec[3])))
    return rows
