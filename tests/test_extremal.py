"""Tests for theoretical and empirical extremal indices."""

import math

import numpy as np
import pytest

from armax_extremes.armax import ProcessConfig, simulate_path
from armax_extremes.copulas import CopulaSpec, DerivedCopula
from armax_extremes.errors import UndefinedResultError
from armax_extremes.extremal import (
    empirical_extremal_index_runs,
    empirical_mv_extremal_index,
    marginal_extremal_index,
    process_mv_extremal_index,
    theoretical_mv_extremal_index,
)
from armax_extremes.margins import MarginSpec, attraction_domain

FRECHET1 = MarginSpec.frechet(1.0)
FRE_DOM = attraction_domain(FRECHET1)
GUM_DOM = attraction_domain(MarginSpec.exponential(1.0))
INDEP = CopulaSpec.independence()


# ------------------------------------------------------------- marginal index


def test_marginal_index_values():
    assert marginal_extremal_index(0.8, FRE_DOM) == 1.0 - 0.8
    assert marginal_extremal_index(0.8, FRE_DOM) == pytest.approx(0.2, abs=1e-15)
    assert marginal_extremal_index(0.3, GUM_DOM) == 1.0
    assert marginal_extremal_index(0.9, GUM_DOM) == 1.0
    dom2 = attraction_domain(MarginSpec.frechet(2.0))
    assert marginal_extremal_index(0.5, dom2) == pytest.approx(0.75, abs=1e-15)


def test_marginal_index_validation():
    with pytest.raises(ValueError):
        marginal_extremal_index(0.0, FRE_DOM)
    with pytest.raises(ValueError):
        marginal_extremal_index(1.0, FRE_DOM)


# ---------------------------------------------------------- theoretical index


def test_theoretical_index_empty_index_set():
    for tau in ([1.0, 1.0], [0.5, 3.0], [0.0, 2.0]):
        res = theoretical_mv_extremal_index(
            CopulaSpec.gumbel(2.0), [GUM_DOM, GUM_DOM], [0.4, 0.6], tau
        )
        assert res.theta == 1.0
        assert res.index_set == ()
        assert res.marginal_thetas == (1.0, 1.0)


def test_theoretical_index_mixed_domains():
    # two non-clustering components and one Frechet(1) component with
    # c=0.5 under the product copula: theta = 1 - 0.5/3
    res = theoretical_mv_extremal_index(
        CopulaSpec.gumbel(1.0),
        [GUM_DOM, GUM_DOM, FRE_DOM],
        [0.3, 0.6, 0.5],
        [1.0, 1.0, 1.0],
    )
    assert res.theta == pytest.approx(1.0 - 0.5 / 3.0, abs=1e-14)
    assert res.index_set == (2,)
    assert res.marginal_thetas == (1.0, 1.0, 0.5)


def test_theoretical_index_comonotone_pair():
    res = theoretical_mv_extremal_index(
        CopulaSpec.comonotone(), [FRE_DOM, FRE_DOM], [0.8, 0.1], [1.0, 1.0]
    )
    # 1 - max(0.8, 0.1)/max(1, 1), computed without rounding
    assert res.theta == 1.0 - 0.8


def test_theoretical_index_accepts_derived_copula():
    dc = DerivedCopula(CopulaSpec.gumbel(2.0), (0.5, 0.5))
    res = theoretical_mv_extremal_index(dc, [FRE_DOM, FRE_DOM], [0.5, 0.5], [1.0, 1.0])
    base = theoretical_mv_extremal_index(
        CopulaSpec.gumbel(2.0), [FRE_DOM, FRE_DOM], [0.5, 0.5], [1.0, 1.0]
    )
    # equal theta reduces the derived copula to its base
    assert res.theta == pytest.approx(base.theta, abs=1e-14)


def test_theoretical_index_derived_mixed_domains_pinned():
    # a derived Gumbel copula, a Gumbel-domain middle component and one
    # zero tau entry per direction; values computed with the separate
    # denominator and numerator evaluations this joint one replaced
    dc = DerivedCopula(CopulaSpec.gumbel(2.0), (0.5, 0.7, 0.9))
    domains = [FRE_DOM, GUM_DOM, attraction_domain(MarginSpec.frechet(2.5))]
    for tau, theta in (
        ((1.0, 0.0, 2.0), 0.7426031559657436),
        ((0.5, 2.0, 0.0), 0.8771360607199039),
        ((0.0, 1.0, 3.0), 0.9520416947723732),
    ):
        res = theoretical_mv_extremal_index(dc, domains, [0.5, 0.7, 0.3], tau)
        assert res.theta == theta
        assert res.tau == tau
        assert res.index_set == (0, 2)
        assert res.marginal_thetas == (0.5, 1.0, 1.0 - 0.3**2.5)


def test_theoretical_index_homogeneous_in_tau():
    rng = np.random.default_rng(5)
    for _ in range(50):
        tau = rng.random(3) * 4 + 0.1
        c = rng.random(3) * 0.9 + 0.05
        spec = CopulaSpec.gumbel(1.0 + rng.random() * 4)
        base = theoretical_mv_extremal_index(spec, [FRE_DOM] * 3, c, tau).theta
        for s in (2.0, 10.0):
            scaled = theoretical_mv_extremal_index(spec, [FRE_DOM] * 3, c, s * tau).theta
            assert scaled == pytest.approx(base, abs=1e-10)


def test_theoretical_index_matches_marginal_on_axes():
    c = [0.3, 0.6, 0.8]
    for j in range(3):
        tau = np.zeros(3)
        tau[j] = 2.0
        res = theoretical_mv_extremal_index(CopulaSpec.gumbel(2.0), [FRE_DOM] * 3, c, tau)
        assert res.theta == pytest.approx(
            marginal_extremal_index(c[j], FRE_DOM), abs=1e-10
        )


def test_theoretical_index_bounds():
    rng = np.random.default_rng(6)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        tau = rng.random(d) * 5
        if not np.any(tau > 0):
            tau[0] = 1.0
        c = rng.random(d) * 0.9 + 0.05
        spec = CopulaSpec.gumbel(1.0 + rng.random() * 4)
        res = theoretical_mv_extremal_index(spec, [FRE_DOM] * d, c, tau)
        assert 0.0 < res.theta <= 1.0 + 1e-12


def test_theoretical_index_monotone_in_c():
    # stronger autoregression means more clustering, hence smaller theta
    prev = None
    for c1 in np.linspace(0.05, 0.95, 19):
        theta = theoretical_mv_extremal_index(
            CopulaSpec.comonotone(), [FRE_DOM] * 2, [c1, 0.1], [1.0, 1.0]
        ).theta
        if prev is not None:
            assert theta <= prev + 1e-12
        prev = theta


def test_theoretical_index_validation():
    with pytest.raises(ValueError):
        theoretical_mv_extremal_index(INDEP, [FRE_DOM] * 2, [0.5, 0.5], [0.0, 0.0])
    with pytest.raises(ValueError):
        theoretical_mv_extremal_index(INDEP, [FRE_DOM] * 2, [0.5, 0.5], [-1.0, 1.0])
    with pytest.raises(ValueError):
        theoretical_mv_extremal_index(INDEP, [FRE_DOM] * 2, [0.5], [1.0, 1.0])
    with pytest.raises(ValueError):
        theoretical_mv_extremal_index(INDEP, [FRE_DOM] * 2, [0.5, 1.5], [1.0, 1.0])


def test_process_index_matches_theoretical_for_independence():
    # with an independence innovation copula the components are fully
    # independent processes, so the stationary copula is independence too
    cfg = ProcessConfig(2, (0.5, 0.7), (FRECHET1, FRECHET1), INDEP)
    a = process_mv_extremal_index(cfg, [1.0, 2.0])
    b = theoretical_mv_extremal_index(INDEP, [FRE_DOM] * 2, [0.5, 0.7], [1.0, 2.0])
    assert a.theta == pytest.approx(b.theta, abs=1e-10)
    assert a.index_set == b.index_set == (0, 1)
    assert a.marginal_thetas == b.marginal_thetas


def test_process_index_mixed_margins_pinned():
    # denominator and numerator in one joint evaluation, pinned to the
    # value of two separate evaluations; with tau = 0 on the only
    # Frechet-domain component the numerator row is all inf and theta = 1
    cfg = ProcessConfig(
        3,
        (0.5, 0.7, 0.9),
        (FRECHET1, MarginSpec.exponential(1.0), MarginSpec.weibull_min(2.0)),
        CopulaSpec.gumbel(2.0),
    )
    theta = process_mv_extremal_index(cfg, (0.5, 2.0, 1.0)).theta
    assert theta == pytest.approx(0.8916625347434064, rel=1e-15, abs=0.0)
    assert process_mv_extremal_index(cfg, (0.0, 2.0, 1.0)).theta == 1.0


def test_process_index_validation():
    cfg = ProcessConfig(2, (0.5, 0.7), (FRECHET1, FRECHET1), INDEP)
    with pytest.raises(ValueError):
        process_mv_extremal_index(cfg, [0.0, 0.0])
    with pytest.raises(ValueError):
        process_mv_extremal_index(cfg, [1.0])


# -------------------------------------------------------------- runs estimator


def test_runs_isolated_exceedances():
    x = np.zeros(100)
    x[[10, 40, 80]] = 5.0
    assert empirical_extremal_index_runs(x, 1.0) == 1.0


def test_runs_single_block():
    x = np.zeros(100)
    x[50:54] = 5.0
    assert empirical_extremal_index_runs(x, 1.0) == 0.25


def test_runs_gap_merges_clusters():
    x = np.zeros(100)
    x[[10, 12]] = 5.0  # one sub-threshold step between exceedances
    assert empirical_extremal_index_runs(x, 1.0, run_gap=1) == 1.0
    assert empirical_extremal_index_runs(x, 1.0, run_gap=2) == 0.5


def test_runs_no_exceedance():
    with pytest.raises(UndefinedResultError):
        empirical_extremal_index_runs(np.zeros(10), 1.0)


def test_runs_validation():
    with pytest.raises(ValueError):
        empirical_extremal_index_runs([], 1.0)
    with pytest.raises(ValueError):
        empirical_extremal_index_runs([1.0, 2.0], 1.0, run_gap=0)


def test_runs_on_simulated_path():
    cfg = ProcessConfig(1, (0.8,), (FRECHET1,), INDEP)
    x = simulate_path(cfg, 100_000, 2024).data[:, 0]
    threshold = np.quantile(x, 0.995)
    theta = empirical_extremal_index_runs(x, threshold, run_gap=5)
    assert theta == pytest.approx(0.2, abs=0.05)


def test_runs_identical_on_duplicated_columns():
    cfg = ProcessConfig(2, (0.5, 0.5), (FRECHET1, FRECHET1), CopulaSpec.comonotone())
    data = simulate_path(cfg, 20_000, 17).data
    threshold = np.quantile(data[:, 0], 0.99)
    assert empirical_extremal_index_runs(
        data[:, 0], threshold
    ) == empirical_extremal_index_runs(data[:, 1], threshold)


# ---------------------------------------------------------- rank-based index


def test_empirical_mv_univariate_reduction():
    # with ranks, the d=1 empirical stable tail dependence function is
    # piecewise linear in its argument regardless of the data, so the
    # estimate is deterministic given (n, k, c_est)
    cfg = ProcessConfig(1, (0.5,), (FRECHET1,), INDEP)
    path = simulate_path(cfg, 10_000, 123)
    theta = empirical_mv_extremal_index(path, [FRE_DOM], [0.5], None, [1.0])
    assert theta == 0.5


def test_empirical_mv_empty_index_set():
    rng = np.random.default_rng(99)
    iid = rng.exponential(size=(5_000, 2))
    theta = empirical_mv_extremal_index(iid, [GUM_DOM] * 2, [0.5, 0.5], None, [1.0, 1.0])
    assert theta == 1.0


def test_empirical_mv_comonotone_pair():
    # a perfectly dependent pair with c = (0.8, 0.1): one driving ARMAX
    # column and a rescaled copy whose stationary level sets match
    cfg = ProcessConfig(1, (0.8,), (FRECHET1,), INDEP)
    lead = simulate_path(cfg, 100_000, 31).data[:, 0]
    pair = np.column_stack([lead, lead * ((1 - 0.8) / (1 - 0.1))])
    theta = empirical_mv_extremal_index(pair, [FRE_DOM] * 2, [0.8, 0.1], None, [1.0, 1.0])
    assert theta == pytest.approx(0.2, abs=0.05)


def test_empirical_mv_validation():
    cfg = ProcessConfig(1, (0.5,), (FRECHET1,), INDEP)
    path = simulate_path(cfg, 100, 1)
    with pytest.raises(ValueError):
        empirical_mv_extremal_index(path, [FRE_DOM], [0.5], None, [0.0])
    with pytest.raises(ValueError):
        empirical_mv_extremal_index(path, [FRE_DOM], [0.5], 100, [1.0])  # k = n
    with pytest.raises(ValueError):
        empirical_mv_extremal_index(path, [FRE_DOM, FRE_DOM], [0.5], None, [1.0])


def test_empirical_mv_grid_matches_rows():
    cfg = ProcessConfig(3, (0.5, 0.9, 0.3), (FRECHET1,) * 3, CopulaSpec.gumbel(2.0))
    cont = simulate_path(cfg, 3_000, 11).data
    nan_col = cont.copy()
    nan_col[5, 1] = math.nan
    with_inf = cont.copy()
    with_inf[::7, 0] = math.inf
    grid = np.array(
        [[1.0, 1.0, 1.0], [0.5, 0.0, 2.0], [3.0, 0.25, 0.0], [1e9, 0.0, 0.0], [0.0, 2.0, 1.0]]
    )
    domains = [FRE_DOM, attraction_domain(MarginSpec.frechet(2.0)), GUM_DOM]
    for data in (cont, np.round(cont, 1), nan_col, with_inf):
        for doms in (domains, [GUM_DOM] * 3):
            for k in (None, 7, 300):
                got = empirical_mv_extremal_index(data, doms, [0.5, 0.9, 0.3], k, grid)
                assert got.shape == (5,)
                rows = [
                    empirical_mv_extremal_index(data, doms, [0.5, 0.9, 0.3], k, tau)
                    for tau in grid
                ]
                assert all(isinstance(v, float) for v in rows)
                assert got.tolist() == rows
    # a row weighting only the nan column has no exceedance, and fails
    # the whole grid as it fails alone
    with pytest.raises(UndefinedResultError):
        empirical_mv_extremal_index(nan_col, domains, [0.5, 0.9, 0.3], None, [0.0, 1.0, 0.0])
    with pytest.raises(UndefinedResultError):
        empirical_mv_extremal_index(
            nan_col, domains, [0.5, 0.9, 0.3], None, [[1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]
        )
    for bad in ([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], [[1.0, 1.0]], [[[1.0, 1.0, 1.0]]]):
        with pytest.raises(ValueError):
            empirical_mv_extremal_index(cont, domains, [0.5, 0.9, 0.3], None, bad)


def test_empirical_mv_result_in_unit_interval():
    rng = np.random.default_rng(21)
    cfg = ProcessConfig(2, (0.5, 0.7), (FRECHET1, FRECHET1), CopulaSpec.gumbel(2.0))
    path = simulate_path(cfg, 5_000, 77)
    for _ in range(10):
        tau = rng.random(2) * 3
        if not np.any(tau > 0):
            tau[0] = 1.0
        theta = empirical_mv_extremal_index(
            path, [FRE_DOM] * 2, [0.5, 0.7], None, tau
        )
        assert 0.0 <= theta <= 1.0
