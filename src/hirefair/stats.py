"""Statistical kernel: paired t-tests, chi-squared goodness-of-fit, multiple
comparison corrections, and invariance-violation aggregation.

Distribution tails are computed from first principles (regularized incomplete
beta / gamma functions via power series and Lentz continued fractions), so
results do not depend on any external statistics library. At the small
degrees of freedom an audit meets (3 for non-uniformity, resumes - 1 for a
t-test) the absolute error is well below 1e-10. It grows with df, to about
1e-9 for a t-test at df 1e7, and a series or fraction that has not converged
within _MAX_ITER terms raises StatsError instead of returning a partial sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

_EPS = 1e-16
_FPMIN = 1e-300
_MAX_ITER = 500


class StatsError(Exception):
    """Raised for invalid statistical inputs."""


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def _gamma_p_series(s: float, x: float) -> float:
    # lower regularized incomplete gamma P(s, x) by power series; x < s + 1
    term = 1.0 / s
    total = term
    denom = s
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise StatsError(f"gamma series did not converge at s={s:g}, x={x:g}")
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _lentz(c: float, d: float, a: float, b: float) -> tuple[float, float]:
    # one step of the modified Lentz method for a term a / (b + ...): the new
    # c and 1/d, each kept off zero by _FPMIN
    d = a * d + b
    if abs(d) < _FPMIN:
        d = _FPMIN
    c = b + a / c
    if abs(c) < _FPMIN:
        c = _FPMIN
    return c, 1.0 / d


def _gamma_q_contfrac(s: float, x: float) -> float:
    # upper regularized incomplete gamma Q(s, x) by continued fraction; x >= s + 1
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        b += 2.0
        c, d = _lentz(c, d, -i * (i - s), b)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise StatsError(f"gamma fraction did not converge at s={s:g}, x={x:g}")
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def regularized_upper_gamma(s: float, x: float) -> float:
    """Q(s, x) = Gamma(s, x) / Gamma(s) for s > 0, x >= 0."""
    if s <= 0:
        raise StatsError(f"shape must be positive, got {s}")
    if x < 0:
        raise StatsError(f"x must be non-negative, got {x}")
    if x == 0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_p_series(s, x)
    return _gamma_q_contfrac(s, x)


def _beta_contfrac(a: float, b: float, x: float) -> float:
    # Lentz's algorithm for the incomplete beta continued fraction
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        c, d = _lentz(c, d, m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0)
        h *= d * c
        c, d = _lentz(c, d, -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise StatsError(f"beta fraction did not converge at a={a:g}, b={b:g}")
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise StatsError("beta shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value P(|T| >= |t|)."""
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def chi2_sf(x: float, df: int) -> float:
    """Survival function P(X > x) of the chi-squared distribution."""
    if df < 1:
        raise StatsError(f"df must be >= 1, got {df}")
    if x < 0:
        raise StatsError(f"chi-squared statistic must be non-negative, got {x}")
    return regularized_upper_gamma(df / 2.0, x / 2.0)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

GENDER_COMPARISONS = ("MW-FW", "MB-FB")
RACE_COMPARISONS = ("MW-MB", "FW-FB")
ALL_COMPARISONS = GENDER_COMPARISONS + RACE_COMPARISONS


@dataclass(frozen=True)
class TestLabel:
    """Identifies one paired test within the experimental grid."""

    __test__ = False  # not a pytest class

    model: str
    measure: str
    comparison: str  # one of ALL_COMPARISONS
    temperature: float = 0.0
    length: int = 100
    pov: str = "third"

    def __post_init__(self):
        if self.comparison not in ALL_COMPARISONS:
            raise StatsError(f"unknown comparison {self.comparison!r}")

    @property
    def comparison_type(self) -> str:
        return "gender" if self.comparison in GENDER_COMPARISONS else "race"


@dataclass(frozen=True)
class PairedSample:
    """Per-resume score differences for one cell of the grid."""

    differences: tuple[float, ...]
    label: TestLabel

    def __post_init__(self):
        object.__setattr__(self, "differences", tuple(float(d) for d in self.differences))


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest class

    t: float
    df: int
    p: float
    degenerate: bool = False


def paired_t_test(sample: PairedSample | Sequence[float]) -> TestResult:
    """Two-sided paired t-test on a sample of differences.

    Zero-variance samples are degenerate: p = 1 when the mean is also zero
    (no effect, no evidence), p = 0 otherwise (a constant nonzero shift).
    """
    diffs = sample.differences if isinstance(sample, PairedSample) else tuple(sample)
    n = len(diffs)
    if n < 2:
        raise StatsError(f"paired t-test needs n >= 2 differences, got {n}")
    # Divide by the power of two just above max|d|. Power-of-two scaling is
    # exact, so t and p are invariant under it, and tiny differences (|d|
    # near 1e-162) no longer underflow when squared.
    exponent = math.frexp(max(abs(d) for d in diffs))[1]
    diffs = [math.ldexp(d, -exponent) for d in diffs]
    mean = math.fsum(diffs) / n
    ss = math.fsum((d - mean) ** 2 for d in diffs)
    df = n - 1
    if ss == 0.0:
        if mean == 0.0:
            return TestResult(t=0.0, df=df, p=1.0, degenerate=True)
        return TestResult(t=math.copysign(math.inf, mean), df=df, p=0.0, degenerate=True)
    sd = math.sqrt(ss / df)
    t = mean / (sd / math.sqrt(n))
    return TestResult(t=t, df=df, p=student_t_two_sided_p(t, df))


def chi_squared_gof(observed: Sequence[float], expected: Sequence[float]) -> TestResult:
    """Chi-squared goodness-of-fit test of observed counts against expected."""
    if len(observed) != len(expected):
        raise StatsError("observed and expected must have the same length")
    k = len(observed)
    if k < 2:
        raise StatsError(f"need at least 2 categories, got {k}")
    if any(e <= 0 for e in expected):
        raise StatsError("expected counts must all be positive")
    chi2 = math.fsum((o - e) ** 2 / e for o, e in zip(observed, expected))
    df = k - 1
    return TestResult(t=chi2, df=df, p=chi2_sf(chi2, df))


def uniform_gof(observed: Sequence[float]) -> TestResult:
    """Goodness-of-fit against the uniform distribution over the categories."""
    total = math.fsum(observed)
    if total <= 0:
        raise StatsError("total count must be positive")
    expected = [total / len(observed)] * len(observed)
    return chi_squared_gof(observed, expected)


# ---------------------------------------------------------------------------
# multiple-comparison corrections
# ---------------------------------------------------------------------------

def _check_pvalues(pvalues: Sequence[float]) -> None:
    for p in pvalues:
        if not (0.0 <= p <= 1.0):
            raise StatsError(f"p-value out of range: {p}")


def bh_correct(pvalues: Sequence[float], alpha: float = 0.05) -> list[bool]:
    """Benjamini-Hochberg step-up procedure; flags returned in input order."""
    _check_pvalues(pvalues)
    m = len(pvalues)
    if m == 0:
        return []
    order = sorted(range(m), key=lambda i: pvalues[i])
    k_max = 0
    for rank, idx in enumerate(order, start=1):
        if pvalues[idx] <= rank * alpha / m:
            k_max = rank
    flags = [False] * m
    for idx in order[:k_max]:
        flags[idx] = True
    return flags


def bonferroni_correct(pvalues: Sequence[float], alpha: float = 0.05) -> list[bool]:
    """Bonferroni correction: reject where p <= alpha / m."""
    _check_pvalues(pvalues)
    m = len(pvalues)
    if m == 0:
        return []
    threshold = alpha / m
    return [p <= threshold for p in pvalues]


CORRECTIONS = {"bh": bh_correct, "bonferroni": bonferroni_correct}


@dataclass(frozen=True)
class ViolationRate:
    model: str
    comparison_type: str  # "gender" | "race"
    total: int
    rejected: int

    @property
    def rate(self) -> float:
        return self.rejected / self.total


def invariance_violation_rate(
    results: Iterable[tuple[TestLabel, TestResult]],
    correction: str = "bh",
    alpha: float = 0.05,
    scope: str = "group",
) -> tuple[list[ViolationRate], list[bool]]:
    """Fraction of tests rejected per (model, comparison type) group, and
    whether each test was rejected, in input order.

    The correction runs within each group by default; scope="global" applies
    it once across all tests (sensitivity analysis) while still reporting
    per-group rates. Rows are ordered by (model, comparison_type).
    """
    if correction not in CORRECTIONS:
        raise StatsError(f"unknown correction {correction!r}")
    if scope not in ("group", "global"):
        raise StatsError(f"unknown correction scope {scope!r}")
    items = list(results)
    if not items:
        raise StatsError("no test results to aggregate")
    correct = CORRECTIONS[correction]

    groups: dict[tuple[str, str], list[int]] = {}
    for i, (label, _) in enumerate(items):
        groups.setdefault((label.model, label.comparison_type), []).append(i)

    # the global scope is one unit that holds every test
    units = groups.values() if scope == "group" else [range(len(items))]
    flags = [False] * len(items)
    for indices in units:
        for i, f in zip(indices, correct([items[i][1].p for i in indices], alpha)):
            flags[i] = f

    rows = []
    for (model, ctype), indices in sorted(groups.items()):
        rejected = sum(1 for i in indices if flags[i])
        rows.append(ViolationRate(model=model, comparison_type=ctype,
                                  total=len(indices), rejected=rejected))
    return rows, flags
