"""Tests for the autoregression-coefficient estimators and their asymptotics."""

import json
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import anderson, norm, normaltest

from armax_extremes import cli, estimation
from armax_extremes.armax import ProcessConfig, simulate_path
from armax_extremes.copulas import CopulaSpec
from armax_extremes.errors import UndefinedResultError
from armax_extremes.estimation import (
    VARIANCE_CONVENTIONS,
    _c_estimates,
    _normality_pvalue,
    asymptotic_variance,
    asymptotic_variance_exact,
    build_estimate_report,
    confidence_interval,
    cross_moment,
    cross_moment_exact,
    estimate_c_davis_resnick,
    estimate_c_lebedev,
    estimate_c_moment,
    hill_tail_index,
)
from armax_extremes.margins import MarginSpec

FRECHET1_ARMAX = ProcessConfig(
    1, (0.5,), (MarginSpec.frechet(1.0),), CopulaSpec.independence()
)


# ------------------------------------------------------------ point estimates


def test_moment_estimator_examples():
    # a constant series whose transform mean is exactly 2/3
    x = -1.0 / math.log(2.0 / 3.0)
    est = estimate_c_moment([x] * 10)
    assert est.u_bar == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert est.c_hat == pytest.approx(0.5, abs=1e-12)
    assert not est.misfit

    x = -1.0 / math.log(0.6)
    est = estimate_c_moment([x, x])
    assert est.c_hat == pytest.approx(2.0 - 1.0 / 0.6, abs=1e-12)


def test_moment_estimator_misfit_flag():
    est = estimate_c_moment([0.05] * 50)  # transform mean near zero
    assert est.u_bar < 0.5
    assert est.misfit


def test_moment_estimator_handles_nonpositive_entries():
    est = estimate_c_moment([-1.0, 0.0, 0.5])
    assert est.u_bar == pytest.approx(math.exp(-2.0) / 3.0, abs=1e-15)
    assert est.misfit


def test_moment_estimator_validation():
    with pytest.raises(ValueError):
        estimate_c_moment([])
    with pytest.raises(ValueError):
        estimate_c_moment(np.ones((3, 2)))


def test_lebedev_estimator_examples():
    est = estimate_c_lebedev([3.0, 2.0, 1.0, 4.0])
    assert est.p_tilde == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert est.c_hat == pytest.approx(0.5, abs=1e-15)
    assert not est.misfit and not est.boundary


def test_lebedev_estimator_degenerate_cases():
    inc = estimate_c_lebedev([1.0, 2.0, 3.0, 4.0])
    assert inc.p_tilde == 0.0
    assert math.isnan(inc.c_hat)
    assert inc.misfit

    dec = estimate_c_lebedev([4.0, 3.0, 2.0, 1.0])
    assert dec.p_tilde == 1.0
    assert dec.c_hat == 1.0
    assert dec.boundary


def test_lebedev_estimator_validation():
    with pytest.raises(ValueError):
        estimate_c_lebedev([1.0])


def test_davis_resnick_examples():
    assert estimate_c_davis_resnick([1.0, 0.5, 2.0, 1.0]) == 0.5
    assert estimate_c_davis_resnick([3.0, 3.0, 3.0]) == 1.0
    with pytest.raises(ValueError):
        estimate_c_davis_resnick([1.0, -2.0])
    with pytest.raises(ValueError):
        estimate_c_davis_resnick([2.0])


def test_davis_resnick_respects_recursion_bound():
    # X_i >= c X_{i-1} exactly, so the minimum ratio cannot fall below c
    # (up to one ulp of the c * x multiplication when c has no exact
    # binary representation)
    for c, slack in ((0.5, 0.0), (0.8, 1e-15)):
        cfg = ProcessConfig(
            1, (c,), (FRECHET1_ARMAX.margins[0],), CopulaSpec.independence()
        )
        path = simulate_path(cfg, 20_000, 21).data[:, 0]
        assert estimate_c_davis_resnick(path) >= c * (1.0 - slack)


@pytest.mark.parametrize("margin", [MarginSpec.frechet(1.0), MarginSpec.exponential(1.0),
                                    MarginSpec.uniform01(), MarginSpec.gpd(0.5),
                                    MarginSpec.weibull_min(2.0)], ids=lambda m: m.kind)
def test_davis_resnick_reads_c_to_one_ulp(margin):
    # a row whose innovation loses is X_i = fl(c X_{i-1}), whose ratio is
    # c or one ulp below it (at c = 0.3 and 0.9, the second in most
    # paths); 2000 rows hold such a row at every c here
    for c in (0.3, 0.5, 0.9):
        cfg = ProcessConfig(1, (c,), (margin,), CopulaSpec.independence())
        for seed in range(10):
            path = simulate_path(cfg, 2_000, seed).data[:, 0]
            assert abs(estimate_c_davis_resnick(path) - c) <= math.ulp(c)


def test_moment_is_permutation_invariant_lebedev_is_not():
    base = simulate_path(FRECHET1_ARMAX, 1_000, 8).data[:, 0]
    reordered = base[::-1].copy()
    assert estimate_c_moment(reordered).c_hat == pytest.approx(
        estimate_c_moment(base).c_hat, abs=1e-12
    )
    assert estimate_c_lebedev(reordered).p_tilde != estimate_c_lebedev(base).p_tilde


def test_moment_estimator_propagates_nan():
    # a nan entry is no transform value of 0: u_bar and c_hat are nan,
    # a misfit, and the report has no interval
    est = estimate_c_moment([1.0, math.nan, 2.0])
    assert math.isnan(est.u_bar) and math.isnan(est.c_hat) and est.misfit
    path = simulate_path(FRECHET1_ARMAX, 1_000, 4).data[:, 0].copy()
    assert not estimate_c_moment(path).misfit
    path[500] = math.nan
    est = estimate_c_moment(path)
    assert math.isnan(est.u_bar) and math.isnan(est.c_hat) and est.misfit
    report = build_estimate_report(path)
    assert math.isnan(report.c_moment) and math.isnan(report.sigma2)
    assert {"moment_misfit", "ci_unavailable"} <= set(report.flags)


# the single-series formulas as written before the (K, n) kernel: the
# kernel and the public estimators must give their bits
def _written_u_bar(x):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.where(x <= 0, 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)))
    return float(np.mean(w))


def _written_p_tilde(x):
    return float(np.mean(x[1:] <= x[:-1]))


def _written_min_ratio(x):
    if np.any(x <= 0):
        return None
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.min(x[1:] / x[:-1]))


_ENTRIES = (
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 0.5, 1.0, 2.0])
    | st.floats(-10.0, 10.0)
    | st.floats(allow_nan=False)
)


def _same(a, b) -> bool:
    return np.array_equal(np.float64(a).view(np.int64), np.float64(b).view(np.int64))


@settings(max_examples=150)
@given(st.data())
def test_kernel_rows_equal_the_single_series_estimators_bit_for_bit(data):
    k = data.draw(st.integers(1, 9), label="K")
    n = data.draw(st.integers(2, 60), label="n")
    # rows of clean positive values, of special entries, or of ties
    rows = []
    for _ in range(k):
        kind = data.draw(st.sampled_from(["positive", "mixed", "ties"]), label="row kind")
        if kind == "positive":
            row = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n), label="row")
        elif kind == "mixed":
            row = data.draw(st.lists(_ENTRIES, min_size=n, max_size=n), label="row")
        else:
            row = data.draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n), label="row")
        rows.append(row)
    # column 0 of a (K, n, 2) block, a strided view as montecarlo passes
    # its paths, with scratch holding stale values and room to spare
    block = np.zeros((k, n, 2))
    block[:, :, 0] = rows
    x = block[:, :, 0]
    scratch = np.full(x.size + 7, math.nan)
    for row, got in zip(x, _c_estimates(x, scratch)):
        row = row.copy()
        moment = estimate_c_moment(row)
        lebedev = estimate_c_lebedev(row)
        assert _same(got.u_bar, moment.u_bar) and _same(got.u_bar, _written_u_bar(row))
        assert _same(got.c_moment, moment.c_hat)
        assert _same(got.c_lebedev, lebedev.c_hat)
        assert _same(lebedev.p_tilde, _written_p_tilde(row))
        ratio = _written_min_ratio(row)
        if ratio is None:
            with pytest.raises(ValueError):
                estimate_c_davis_resnick(row)
            assert math.isnan(got.c_dr) and "davis_resnick_unavailable" in got.flags
        else:
            assert _same(got.c_dr, estimate_c_davis_resnick(row)) and _same(got.c_dr, ratio)
        alone = _c_estimates(row[None])[0]
        assert all(_same(a, b) for a, b in zip(got[:4], alone[:4])) and got.flags == alone.flags


def test_kernel_allocates_no_block_sized_temporary():
    # the estimator pass over a batch of 8 paths of 10^4 values writes
    # its intermediates into the scratch: its peak stays below one
    # (8, 10^4) float block of 640 kB
    x = np.stack([simulate_path(FRECHET1_ARMAX, 10_000, (9, k)).data[:, 0] for k in range(8)])
    scratch = np.empty(x.size)
    _c_estimates(x, scratch)
    tracemalloc.start()
    try:
        estimates = _c_estimates(x, scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(estimates) == 8
    assert peak < x.nbytes


# ------------------------------------------------------- moments and variance


def test_cross_moment_values():
    assert cross_moment(0.5, 1) == pytest.approx(4.0 / 9.0, abs=1e-15)
    # at c = 1/2 the denominator factor collapses to 1.5 (1 - 0.5**r)
    # and the lag dependence cancels entirely
    for r in (1, 2, 3, 10, 50):
        assert cross_moment(0.5, r) == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert cross_moment(1e-9, 1) == pytest.approx(0.25, abs=1e-8)
    with pytest.raises(ValueError):
        cross_moment(0.0, 1)
    with pytest.raises(ValueError):
        cross_moment(0.5, 0)
    with pytest.raises(ValueError, match="r must be an integer"):
        cross_moment(0.5, 1.5)


@pytest.mark.xfail(
    strict=True,
    reason="the closed-form cross moment escapes (0, 1) at large c: the "
    "denominator factor 2 - c - c**r - c**(r+1) changes sign",
)
def test_cross_moment_always_a_probability():
    for c in np.arange(0.1, 0.95, 0.1):
        for r in range(1, 6):
            value = cross_moment(float(c), r)
            assert 0.0 < value < 1.0


def test_cross_moment_sign_change_pinned():
    # documented counterexamples to the (0, 1) range: at c=0.8 the r=1
    # denominator factor is 2 - 0.8 - 0.8 - 0.64 = -0.24
    assert cross_moment(0.8, 1) == pytest.approx(-25.0 / 36.0, abs=1e-12)
    assert cross_moment(0.8, 2) == pytest.approx(6.25, abs=1e-12)


def test_asymptotic_variance_values():
    assert asymptotic_variance(0.5) == pytest.approx(1.0 / 18.0, abs=1e-12)
    assert asymptotic_variance(1e-9) == pytest.approx(1.0 / 12.0, abs=1e-9)
    with pytest.raises(ValueError):
        asymptotic_variance(1.0)


@pytest.mark.xfail(
    strict=True,
    reason="the covariance series is negative on parts of (0, 1), so the "
    "closed form is not a variance there",
)
def test_asymptotic_variance_positive_on_grid():
    for c in np.arange(0.1, 0.95, 0.1):
        assert asymptotic_variance(float(c)) > 0.0


def test_asymptotic_variance_sign_structure_pinned():
    # where the series actually is positive/negative on the usual grid
    for c in (0.1, 0.2, 0.5, 0.6, 0.7, 0.8):
        assert asymptotic_variance(c) > 0.0
    for c in (0.3, 0.4, 0.9):
        assert asymptotic_variance(c) < 0.0


# ------------------------------------------------ the exact variance series


@pytest.mark.parametrize("c", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("r", [1, 2, 5])
def test_cross_moment_exact_matches_the_recursion(c, r):
    # U_0 has the law u**a and U_r = max(U_0**(c**-r), V), V independent
    # of law v**b: integrate E(U_0 U_r) numerically from that alone
    a, b = 1.0 / (1.0 - c), (1.0 - c**r) / (1.0 - c)

    def given_u0(u):
        w = u ** (c**-r)
        inner = quad(lambda v: max(w, v) * b * v ** (b - 1.0), 0.0, 1.0, points=[w])[0]
        return u * inner * a * u ** (a - 1.0)

    # w = u**(c**-r) rises from 0 to 1 in a thin layer below u = 1
    layer = [p ** (c**r) for p in (1e-6, 0.01, 0.5, 0.99)]
    expected = quad(given_u0, 0.0, 1.0, points=layer, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
    assert cross_moment_exact(c, r) == pytest.approx(expected, rel=1e-8)


def test_cross_moment_exact_tends_to_the_independent_value():
    for c in (0.3, 0.5, 0.9):
        assert cross_moment_exact(c, 400) == pytest.approx(1.0 / (2.0 - c) ** 2, rel=1e-12)
        assert 1.0 / (2.0 - c) ** 2 < cross_moment_exact(c, 3) < 1.0 / (3.0 - 2.0 * c)


@pytest.mark.parametrize("c, value, terms", [(0.3, 0.1488473, 25), (0.5, 0.1892793, 43),
                                             (0.9, 0.1366140, 260)])
def test_asymptotic_variance_exact_pinned(monkeypatch, c, value, terms):
    # the values and series lengths of the first-principles form
    calls = []
    real = estimation.cross_moment_exact
    monkeypatch.setattr(estimation, "cross_moment_exact", lambda c, r: calls.append(r) or real(c, r))
    assert asymptotic_variance_exact(c) == pytest.approx(value, abs=5e-8)
    assert len(calls) == terms


def test_asymptotic_variance_exact_positive_on_grid():
    assert all(asymptotic_variance_exact(c) > 0.0 for c in np.linspace(0.01, 0.99, 99))
    for bad in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="c must lie in"):
            asymptotic_variance_exact(bad)
    with pytest.raises(ValueError, match="r must be a positive integer"):
        cross_moment_exact(0.5, 0)
    with pytest.raises(ValueError, match="r must be an integer"):
        cross_moment_exact(0.5, True)


# ------------------------------------------------------- confidence intervals


def test_confidence_interval_conventions():
    z = float(norm.ppf(0.975))
    lo, hi = confidence_interval(0.5, 100, "delta_pow4")
    assert (hi - lo) / 2 == pytest.approx(z * math.sqrt(0.28125 / 100), abs=1e-12)
    assert lo <= 0.5 <= hi
    lo, hi = confidence_interval(0.5, 100, "paper_3m2c")
    assert (hi - lo) / 2 == pytest.approx(z * math.sqrt((1.0 / 9.0) / 100), abs=1e-12)
    assert VARIANCE_CONVENTIONS == ("delta_pow4", "paper_3m2c")


def test_confidence_interval_level_zero_degenerate():
    assert confidence_interval(0.5, 100, level=0.0) == (0.5, 0.5)


def test_confidence_interval_negative_variance():
    with pytest.raises(UndefinedResultError):
        confidence_interval(0.3, 100)


def test_confidence_interval_validation():
    with pytest.raises(ValueError):
        confidence_interval(0.0, 100)
    with pytest.raises(ValueError):
        confidence_interval(0.5, 0)
    with pytest.raises(ValueError):
        confidence_interval(0.5, 100, "bogus")
    with pytest.raises(ValueError):
        confidence_interval(0.5, 100, level=1.0)


def test_normal_quantile_matches_scipy():
    # the interval's z = NormalDist().inv_cdf((1 + level) / 2)
    for level in (0.5, 0.9, 0.95, 0.99, 0.999):
        p = 0.5 * (1.0 + level)
        assert NormalDist().inv_cdf(p) == pytest.approx(float(norm.ppf(p)), rel=2e-15, abs=0.0)


# ------------------------------------------------------------ normality test


@pytest.mark.parametrize("n", [20, 100, 1000])
def test_normality_pvalue_matches_scipy(n):
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), rng.uniform(size=n), rng.standard_t(5, n)):
        expected = float(normaltest(x).pvalue)
        assert _normality_pvalue(x) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_normality_pvalue_undefined_cases():
    # no variance, or a non-finite value, leaves K2 undefined; no
    # RuntimeWarning may escape (the suite turns them into errors)
    assert _normality_pvalue(np.full(30, 2.5)) is None
    assert _normality_pvalue(np.r_[np.ones(29), 2.0, math.nan]) is None
    assert _normality_pvalue(np.r_[np.arange(29.0), math.inf]) is None
    with pytest.raises(ValueError):
        _normality_pvalue(np.arange(7.0))


# ------------------------------------------------------------ hill estimator


def test_hill_on_exact_pareto():
    rng = np.random.default_rng(0)
    pareto = (1.0 - rng.random(100_000)) ** (-0.5)  # tail index 2
    assert hill_tail_index(pareto, 1_000) == pytest.approx(2.0, abs=0.2)


def test_hill_scale_invariance():
    rng = np.random.default_rng(1)
    x = (1.0 - rng.random(10_000)) ** (-1.0)
    assert hill_tail_index(4.0 * x, 500) == hill_tail_index(x, 500)


def test_hill_on_armax_stationary_margin():
    # the stationary margin of a unit-Frechet ARMAX keeps tail index 1
    path = simulate_path(FRECHET1_ARMAX, 100_000, 12).data[:, 0]
    assert hill_tail_index(path, 1_000) == pytest.approx(1.0, abs=0.2)


def test_hill_refuses_a_non_integral_k():
    # k counts order statistics: a fraction failed in a slice
    x = np.arange(1.0, 101.0)
    for k in (1.5, 10.0, True, math.nan):
        with pytest.raises(ValueError, match="k must be an integer"):
            hill_tail_index(x, k)
    assert hill_tail_index(x, np.int64(10)) == hill_tail_index(x, 10)


def test_hill_validation():
    with pytest.raises(ValueError):
        hill_tail_index([1.0, 2.0], 2)
    with pytest.raises(UndefinedResultError):
        hill_tail_index(np.ones(100), 10)
    with pytest.raises(ValueError):
        hill_tail_index(np.concatenate([np.zeros(50), -np.ones(50)]), 10)


def _hill_by_full_sort(x, k):
    # the Hill index read off a full sort of the series
    x_sorted = np.sort(np.asarray(x, dtype=float))
    pivot, top = x_sorted[-k - 1], x_sorted[-k:]
    if pivot <= 0:
        raise ValueError("the top k+1 order statistics must be positive")
    with np.errstate(invalid="ignore", over="ignore"):
        denom = float(np.sum(np.log(top / pivot)))
    if denom == 0.0 or not math.isfinite(denom):
        raise UndefinedResultError
    return k / denom


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from([1.0, 2.0, 0.5, 0.0, -1.0, math.inf, math.nan]),
            st.floats(1e-300, 1e300),
        ),
        min_size=2,
        max_size=60,
    ),
    st.data(),
)
def test_hill_selection_matches_a_full_sort(values, data):
    # the partial selection of the top k + 1 order statistics gives the
    # full sort's index bit for bit, or refuses the series alike
    k = data.draw(st.integers(1, len(values) - 1))
    try:
        expected = _hill_by_full_sort(values, k)
    except (ValueError, UndefinedResultError) as exc:
        with pytest.raises(type(exc)):
            hill_tail_index(values, k)
    else:
        assert hill_tail_index(values, k) == expected


@pytest.mark.parametrize(
    "series", [[1.0, math.nan, 2.0], [1.0, math.inf, math.inf, 2.0]], ids=["nan", "inf"]
)
def test_hill_refuses_a_denominator_that_is_not_finite(series):
    # nan and inf / inf gave a nan denominator, inf / 2 an infinite one
    # (an index of 0.0); neither is an index
    with pytest.raises(UndefinedResultError, match="not finite"):
        hill_tail_index(series, 2)
    report = build_estimate_report(series)
    assert report.alpha_hill is None and "hill_unavailable" in report.flags


# ------------------------------------------------------------------- reports


def test_report_on_clean_path():
    path = simulate_path(FRECHET1_ARMAX, 50_000, 1).data[:, 0]
    report = build_estimate_report(path)
    assert report.flags == ()
    assert report.n == 50_000
    assert report.c_moment == pytest.approx(0.5, abs=0.05)
    assert report.c_lebedev == pytest.approx(0.5, abs=0.05)
    assert report.c_davis_resnick >= 0.5
    assert report.sigma2 > 0.0
    assert report.ci[0] <= report.c_moment <= report.ci[1]
    assert report.alpha_hill == pytest.approx(1.0, abs=0.3)
    assert report.variance_convention == "delta_pow4"


def test_report_variance_is_positive_where_the_paper_form_is_negative():
    cfg = ProcessConfig(
        1, (0.3,), (FRECHET1_ARMAX.margins[0],), CopulaSpec.independence()
    )
    path = simulate_path(cfg, 50_000, 2).data[:, 0]
    report = build_estimate_report(path)
    # the paper's series is negative here, the exact one is not
    assert asymptotic_variance(report.c_moment) < 0.0
    assert report.flags == ()
    assert report.sigma2 == asymptotic_variance_exact(report.c_moment) > 0.0
    assert math.isfinite(report.ci[0]) and math.isfinite(report.ci[1])
    assert report.ci[0] < report.c_moment < report.ci[1]
    assert report.c_moment == pytest.approx(0.3, abs=0.05)


def test_report_evaluates_the_variance_series_once(monkeypatch):
    # sigma2 and the interval share one evaluation of the exact series
    calls = []
    real = estimation.asymptotic_variance_exact

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(estimation, "asymptotic_variance_exact", counted)
    monkeypatch.setattr(estimation, "asymptotic_variance", None)
    path = simulate_path(FRECHET1_ARMAX, 5000, 1).data[:, 0]
    report = build_estimate_report(path)
    assert calls == [report.c_moment]
    assert report.sigma2 == real(report.c_moment)
    z = NormalDist().inv_cdf(0.975)
    half = z * math.sqrt(report.sigma2 * (2.0 - report.c_moment) ** 4 / 5000)
    assert report.ci == (report.c_moment - half, report.c_moment + half)


def test_report_on_unsuitable_data():
    report = build_estimate_report(np.arange(1.0, 101.0))
    assert "lebedev_misfit" in report.flags
    assert math.isnan(report.c_lebedev)


def test_report_on_contaminated_data():
    x = np.concatenate([[-1.0], np.arange(1.0, 50.0)])
    report = build_estimate_report(x)
    assert "davis_resnick_unavailable" in report.flags
    assert math.isnan(report.c_davis_resnick)


def test_report_validation():
    with pytest.raises(ValueError):
        build_estimate_report([1.0])


@pytest.mark.parametrize(
    "series", [[-1.0, -2.0, -3.0, 1.0], [1.0, 2.0, 1.5, 1.2, 3.0, 2.5]], ids=["no-ci", "ci"]
)
@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"convention": "bogus"}, "convention must be one of"),
        ({"level": 5.0}, "level must lie in"),
        ({"convention": "bogus", "level": 5.0}, "convention must be one of"),
    ],
)
def test_report_refuses_bad_interval_arguments_whatever_the_estimate(series, kwargs, match):
    # a series whose moment estimate lies outside (0, 1) forms no
    # interval, and its bad arguments were once written into the report
    with pytest.raises(ValueError, match=match):
        build_estimate_report(series, **kwargs)


# ------------------------------------------------------------- monte carlo


def test_mc_moment_estimator_unbiased(mc_study):
    assert float(np.mean(mc_study["c_moment"])) == pytest.approx(
        mc_study["c_true"], abs=0.01
    )


def test_mc_lebedev_estimator_unbiased(mc_study):
    assert float(np.mean(mc_study["c_lebedev"])) == pytest.approx(
        mc_study["c_true"], abs=0.03
    )


def test_mc_davis_resnick_bounded_below(mc_study):
    assert min(mc_study["c_dr"]) >= mc_study["c_true"]


def test_mc_normality_of_moment_estimator(mc_study):
    # standardized under the delta_pow4 convention, the replicate
    # estimates pass Anderson-Darling at the 1% level
    n, c = mc_study["n"], mc_study["c_true"]
    scale = math.sqrt(asymptotic_variance(c) * (2.0 - c) ** 4)
    z = np.sqrt(n) * (np.asarray(mc_study["c_moment"]) - c) / scale
    result = anderson(z, dist="norm", method="interpolate")
    assert result.pvalue > 0.01


def test_mc_exact_intervals_cover_c_true(mc_study):
    # 1000 replicates: 3 binomial standard deviations around 0.95 are 0.021
    summary = mc_study["summary"]
    assert summary["sigma2_exact_at_c_true"] == asymptotic_variance_exact(0.5)
    assert summary["ci_coverage"] == pytest.approx(0.95, abs=0.021)
    half = NormalDist().inv_cdf(0.975) * math.sqrt(
        asymptotic_variance_exact(0.5) * 1.5**4 / mc_study["n"]
    )
    covered = np.abs(np.asarray(mc_study["c_moment"]) - 0.5) <= half
    assert summary["ci_coverage"] == float(np.mean(covered))


def test_mc_exact_variance_matches_the_simulated_one(mc_study):
    # n Var(U_bar) over 1000 replicates has a standard error of about
    # sigma2 sqrt(2 / 999), 0.0085 at c = 0.5
    simulated = mc_study["summary"]["empirical_var_sqrt_n_u_bar"]
    assert simulated == pytest.approx(asymptotic_variance_exact(0.5), abs=3 * 0.0085)


def test_mc_summary_prefers_delta_convention(mc_study):
    assert mc_study["summary"]["matching_convention"] == "delta_pow4"


def test_mc_summary_predicted_variances(mc_study):
    # the same products, in the same order, as confidence_interval forms
    summary, c = mc_study["summary"], mc_study["c_true"]
    assert summary["sigma2_at_c_true"] == asymptotic_variance(c)
    assert summary["predicted_var_delta_pow4"] == asymptotic_variance(c) * (2.0 - c) ** 4
    assert summary["predicted_var_paper_3m2c"] == asymptotic_variance(c) * (3.0 - 2.0 * c)


def test_rmse_shrinks_with_sample_size(tmp_path):
    # consistency sweep: each estimator's RMSE at n=10^5 is no worse
    # than at n=10^3, across low/mid/high c
    rmse = {}
    for c_true in (0.2, 0.5, 0.8):
        for n in (1_000, 100_000):
            out = tmp_path / f"mc_{c_true}_{n}.csv"
            config = cli.resolve_run_config(
                cli.run_config_from_dict(
                    {
                        "command": "montecarlo",
                        "process": {
                            "d": 1,
                            "c": [c_true],
                            "margins": [{"kind": "frechet", "alpha": 1.0}],
                            "copula": {"kind": "independence"},
                        },
                        "n": n,
                        "seed": 515,
                        "replicates": 100,
                        "output_path": str(out),
                    }
                )
            )
            assert cli.run(config) == 0
            with open(str(out) + ".summary.json") as fh:
                summary = json.load(fh)
            rmse[(c_true, n)] = {
                key: summary[f"rmse_{key}"]
                for key in ("c_moment", "c_lebedev", "c_dr")
            }
    for c_true in (0.2, 0.5, 0.8):
        small, large = rmse[(c_true, 1_000)], rmse[(c_true, 100_000)]
        assert large["c_moment"] < small["c_moment"]
        assert large["c_lebedev"] < small["c_lebedev"]
        # the ratio estimator can hit its floor (the exact c) already at
        # n=10^3, so only require no degradation
        assert large["c_dr"] <= small["c_dr"] + 1e-12
