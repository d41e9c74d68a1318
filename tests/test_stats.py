import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hirefair.stats import (
    ALL_COMPARISONS,
    CORRECTIONS,
    PairedSample,
    StatsError,
    TestLabel,
    TestResult,
    bh_correct,
    bonferroni_correct,
    chi2_sf,
    chi_squared_gof,
    invariance_violation_rate,
    paired_t_test,
    student_t_two_sided_p,
    uniform_gof,
)

# ---------------------------------------------------------------------------
# independent oracles: direct numerical integration of the densities
# ---------------------------------------------------------------------------

def t_sf_quadrature(t: float, df: int) -> float:
    from scipy import integrate

    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)

    def density(x):
        return c * (1 + x * x / df) ** (-(df + 1) / 2)

    value, _ = integrate.quad(density, t, np.inf, epsabs=1e-12, epsrel=1e-12)
    return value


def chi2_sf_quadrature(x: float, df: int) -> float:
    from scipy import integrate

    c = 1.0 / (2 ** (df / 2) * math.exp(math.lgamma(df / 2)))

    def density(u):
        return c * u ** (df / 2 - 1) * math.exp(-u / 2)

    value, _ = integrate.quad(density, x, np.inf, epsabs=1e-12, epsrel=1e-12)
    return value


@pytest.mark.parametrize("df", [1, 3, 10, 30, 100])
def test_t_two_sided_matches_quadrature(df):
    for t in np.linspace(0.05, 8.0, 12):
        expected = 2.0 * t_sf_quadrature(float(t), df)
        assert student_t_two_sided_p(float(t), df) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("df", [1, 3, 10, 30, 100])
def test_chi2_sf_matches_quadrature(df):
    for x in np.linspace(0.05, 40.0, 12):
        expected = chi2_sf_quadrature(float(x), df)
        assert chi2_sf(float(x), df) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("df", [100_000, 1_000_000])
def test_chi2_sf_raises_rather_than_return_an_unconverged_tail(df):
    # the gamma series needs more than _MAX_ITER terms here; cut short, it
    # once returned 0.7393 at df 1e6, where the true value is 0.4998
    with pytest.raises(StatsError, match="did not converge"):
        chi2_sf(float(df), df)


# ---------------------------------------------------------------------------
# paired t-test
# ---------------------------------------------------------------------------

def test_all_zero_differences_degenerate():
    r = paired_t_test([0.0, 0.0, 0.0])
    assert r.degenerate and r.p == 1.0 and r.t == 0.0


def test_constant_nonzero_differences_degenerate():
    r = paired_t_test([2.0, 2.0, 2.0])
    assert r.degenerate and r.p == 0.0 and math.isinf(r.t)


def test_symmetric_differences_give_p_one():
    r = paired_t_test([1.0, -1.0, 1.0, -1.0])
    assert not r.degenerate
    assert r.t == 0.0 and r.p == 1.0


def test_one_two_three_four():
    # mean 2.5, sd sqrt(5/3): t = 2.5 / (sd/2) = 5/sqrt(5/3) = sqrt(15)
    r = paired_t_test([1.0, 2.0, 3.0, 4.0])
    assert r.df == 3
    assert r.t == pytest.approx(math.sqrt(15.0), abs=1e-12)
    assert r.p == pytest.approx(2.0 * t_sf_quadrature(math.sqrt(15.0), 3), abs=1e-10)
    assert r.p == pytest.approx(0.030466, abs=1e-5)


def test_t_test_needs_two_points():
    with pytest.raises(StatsError):
        paired_t_test([1.0])


@given(st.lists(st.floats(-100, 100), min_size=3, max_size=30),
       st.integers(min_value=-20, max_value=20))
@settings(max_examples=60, deadline=None)
@example(diffs=[1.5, 2.00001, 26.411188956495252, 46.93494187618634,
                57.076056499164736, 70.70979103621497, 75.98251624656166,
                -74.7018195161213, -86.70305234025442, -92.32442566510514,
                -96.24888165511378], k=-1)
@example(diffs=[1e-162, 2e-162, 4e-162], k=-20)
def test_t_statistic_invariant_under_power_of_two_scaling(diffs, k):
    scale = 2.0 ** k
    base = paired_t_test(diffs)
    scaled = paired_t_test([d * scale for d in diffs])
    if base.degenerate:
        assert scaled.degenerate
    else:
        assert scaled.t == base.t
        assert scaled.p == base.p


def test_t_statistic_invariant_under_general_positive_scaling():
    diffs = [0.3, -1.2, 2.4, 0.9, -0.1, 1.7]
    base = paired_t_test(diffs)
    for c in (0.001, 3.7, 1e6):
        scaled = paired_t_test([d * c for d in diffs])
        assert scaled.t == pytest.approx(base.t, rel=1e-12)
        assert scaled.p == pytest.approx(base.p, rel=1e-9)


# ---------------------------------------------------------------------------
# chi-squared goodness of fit
# ---------------------------------------------------------------------------

def test_chi2_observed_equals_expected():
    r = chi_squared_gof([10, 10, 10, 10], [10, 10, 10, 10])
    assert r.t == 0.0 and r.p == 1.0 and r.df == 3


def test_chi2_spec_case():
    r = chi_squared_gof([20, 10, 5, 5], [10, 10, 10, 10])
    assert r.t == 15.0
    assert r.df == 3
    assert r.p == pytest.approx(chi2_sf_quadrature(15.0, 3), abs=1e-10)
    assert r.p == pytest.approx(0.00182, abs=1e-5)


def test_chi2_homogeneity_doubling():
    base = chi_squared_gof([20, 10, 5, 5], [10, 10, 10, 10])
    doubled = chi_squared_gof([40, 20, 10, 10], [20, 20, 20, 20])
    assert doubled.t == 2.0 * base.t


def test_chi2_input_validation():
    with pytest.raises(StatsError):
        chi_squared_gof([1, 2], [1.0])
    with pytest.raises(StatsError):
        chi_squared_gof([5], [5])
    with pytest.raises(StatsError):
        chi_squared_gof([1, 2], [1, 0])


def test_uniform_gof_matches_explicit_expected():
    assert uniform_gof([20, 10, 5, 5]).t == 15.0
    with pytest.raises(StatsError):
        uniform_gof([0, 0, 0, 0])


def test_p_equals_one_iff_counts_equal():
    assert uniform_gof([7, 7, 7, 7]).p == 1.0
    assert uniform_gof([8, 7, 7, 6]).p < 1.0


# ---------------------------------------------------------------------------
# corrections
# ---------------------------------------------------------------------------

def bh_threshold_oracle(pvalues, alpha):
    """Reject i iff p_i <= the largest sorted p satisfying the step condition."""
    m = len(pvalues)
    ordered = sorted(pvalues)
    satisfying = [p for k, p in enumerate(ordered, start=1) if p <= k * alpha / m]
    if not satisfying:
        return [False] * m
    threshold = max(satisfying)
    return [p <= threshold for p in pvalues]


def test_bh_spec_example():
    assert bh_correct([0.01, 0.02, 0.03, 0.04], 0.05) == [True] * 4


def test_bh_all_ones():
    assert bh_correct([1.0, 1.0, 1.0], 0.05) == [False] * 3


def test_bh_single_p():
    assert bh_correct([0.04], 0.05) == [True]
    assert bh_correct([0.06], 0.05) == [False]


def test_bonferroni_spec_example():
    assert bonferroni_correct([0.01, 0.02, 0.03, 0.04], 0.05) == [True, False, False, False]


def test_bonferroni_single():
    assert bonferroni_correct([0.04], 0.05) == [True]


@given(st.lists(st.floats(0, 1), min_size=1, max_size=40),
       st.floats(0.001, 0.2))
@settings(max_examples=120, deadline=None)
def test_bh_matches_threshold_oracle_and_dominates_bonferroni(pvalues, alpha):
    bh = bh_correct(pvalues, alpha)
    assert bh == bh_threshold_oracle(pvalues, alpha)
    bonf = bonferroni_correct(pvalues, alpha)
    assert all(not b or h for b, h in zip(bonf, bh)), "Bonferroni must be a subset of BH"


@given(st.lists(st.floats(0, 1), min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_bh_flags_monotone_in_alpha(pvalues):
    lo = bh_correct(pvalues, 0.01)
    hi = bh_correct(pvalues, 0.10)
    assert all(not l or h for l, h in zip(lo, hi))


def test_pvalue_range_validated():
    with pytest.raises(StatsError):
        bh_correct([0.5, 1.5])
    with pytest.raises(StatsError):
        bonferroni_correct([-0.1])


# ---------------------------------------------------------------------------
# invariance violation aggregation
# ---------------------------------------------------------------------------

def _label(model, comparison, measure="polarity", temperature=0.0, length=100, pov="third"):
    return TestLabel(model=model, measure=measure, comparison=comparison,
                     temperature=temperature, length=length, pov=pov)


def test_comparison_type_partition():
    assert _label("m", "MW-FW").comparison_type == "gender"
    assert _label("m", "MB-FB").comparison_type == "gender"
    assert _label("m", "MW-MB").comparison_type == "race"
    assert _label("m", "FW-FB").comparison_type == "race"
    with pytest.raises(StatsError):
        _label("m", "MW-FB")


def test_all_degenerate_yields_zero_rate():
    results = [(_label("m", c), paired_t_test([0.0, 0.0, 0.0]))
               for c in ("MW-FW", "MB-FB", "MW-MB", "FW-FB")]
    rows, _ = invariance_violation_rate(results)
    assert {r.comparison_type for r in rows} == {"gender", "race"}
    assert all(r.rate == 0.0 for r in rows)


def test_rate_arithmetic():
    # 40 race tests: 8 tiny p-values that BH must keep, the rest at 1.0
    results = []
    for i in range(40):
        p = 1e-12 if i < 8 else 1.0
        results.append((_label("m", "MW-MB", temperature=0.0 if i % 2 else 0.3),
                        TestResult(t=0.0, df=10, p=p)))
    (row,), rejected = invariance_violation_rate(results)
    assert row.total == 40 and row.rejected == 8
    assert row.rate == pytest.approx(0.20)
    assert rejected == [i < 8 for i in range(40)]


def test_correction_scope_global():
    results = [
        (_label("m", "MW-FW"), TestResult(t=0.0, df=10, p=0.001)),
        (_label("m", "MW-MB"), TestResult(t=0.0, df=10, p=0.04)),
    ]
    grouped, _ = invariance_violation_rate(results, scope="group")
    global_, _ = invariance_violation_rate(results, scope="global")
    # per-group: each group has m=1, so both reject at alpha=0.05
    assert sum(r.rejected for r in grouped) == 2
    # global: m=2, step-up keeps both (0.04 <= 2/2*0.05)
    assert sum(r.rejected for r in global_) == 2


@given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from(ALL_COMPARISONS),
                          st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1e-12, 1.0]))),
                min_size=1, max_size=40),
       st.sampled_from(sorted(CORRECTIONS)), st.floats(0.001, 0.2))
@settings(max_examples=100, deadline=None)
def test_global_scope_flags_are_one_correction_of_every_p_value(tests, correction, alpha):
    """scope="global" flags each test as the correction of all p-values at
    once does, and each group's row counts its tests and their flags."""
    results = [(_label(model, comparison), TestResult(t=0.0, df=10, p=p))
               for model, comparison, p in tests]
    rows, flags = invariance_violation_rate(results, correction, alpha, scope="global")
    assert flags == CORRECTIONS[correction]([p for _, _, p in tests], alpha)
    groups = sorted({(label.model, label.comparison_type) for label, _ in results})
    assert [(row.model, row.comparison_type) for row in rows] == groups
    for row in rows:
        mine = [f for (label, _), f in zip(results, flags)
                if (label.model, label.comparison_type) == (row.model, row.comparison_type)]
        assert (row.total, row.rejected) == (len(mine), sum(mine))


def test_empty_results_error():
    with pytest.raises(StatsError):
        invariance_violation_rate([])


def test_planted_race_shift_detected_with_gender_clean():
    """Monte-Carlo: shift on race comparisons only; gender must stay silent."""
    rng = np.random.default_rng(20240810)
    hits = 0
    seeds = 60
    for _ in range(seeds):
        results = []
        for comparison in ("MW-FW", "MB-FB", "MW-MB", "FW-FB"):
            is_race = comparison in ("MW-MB", "FW-FB")
            for measure in ("reading_ease", "polarity"):
                for temperature in (0.0, 0.3):
                    for length in (100, 200):
                        shift = 1.0 if is_race else 0.0
                        diffs = rng.normal(shift, 1.0, size=40)
                        sample = PairedSample(
                            differences=tuple(diffs),
                            label=_label("m", comparison, measure=measure,
                                         temperature=temperature, length=length),
                        )
                        results.append((sample.label, paired_t_test(sample)))
        rows = {r.comparison_type: r for r in invariance_violation_rate(results)[0]}
        if rows["race"].rate > 0.0 and rows["gender"].rate == 0.0:
            hits += 1
    assert hits / seeds >= 0.95
