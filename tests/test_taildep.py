"""Tests for lag-r tail dependence and tail independence coefficients."""

import math

import numpy as np
import pytest

from armax_extremes.armax import ProcessConfig, simulate_path
from armax_extremes.copulas import CopulaSpec
from armax_extremes.errors import NumericLimitError, UndefinedResultError
from armax_extremes.margins import MarginSpec
from armax_extremes.taildep import (
    DEFAULT_T_GRID,
    REGIME_BAND,
    classify_tail_regime,
    empirical_eta,
    empirical_tdc,
    eta_bounds_within_series,
    lag_tdc_diagnostics,
    tdc_bounds,
    theoretical_lag_tdc,
)

FRECHET1 = MarginSpec.frechet(1.0)
INDEP = CopulaSpec.independence()
D1 = ProcessConfig(1, (0.5,), (FRECHET1,), INDEP)


# ------------------------------------------------------------- theoretical


def test_within_series_tdc_frechet():
    # the diagonal pair copula is comonotone and the Frechet substitution
    # turns the limit into c**(alpha * r)
    assert theoretical_lag_tdc(D1, 0, 0, 2) == pytest.approx(0.25, abs=1e-6)
    assert theoretical_lag_tdc(D1, 0, 0, 0) == 1.0


@pytest.mark.parametrize(
    "margin", [MarginSpec.exponential(1.0), MarginSpec.gpd(0.2, 1.0)], ids=["exponential", "gpd"]
)
def test_within_series_tdc_r0_is_one(margin):
    # F(w_t) = 1 - t holds exactly at lag 0, whatever the margin
    cfg = ProcessConfig(1, (0.7,), (margin,), INDEP)
    assert theoretical_lag_tdc(cfg, 0, 0, 0) == 1.0


def test_tdc_vanishes_for_finite_endpoint_margin():
    cfg = ProcessConfig(1, (0.5,), (MarginSpec.uniform01(),), INDEP)
    assert theoretical_lag_tdc(cfg, 0, 0, 1) == pytest.approx(0.0, abs=1e-9)


def test_tdc_comonotone_pair_r0():
    cfg = ProcessConfig(2, (0.5, 0.5), (FRECHET1, FRECHET1), CopulaSpec.comonotone())
    assert theoretical_lag_tdc(cfg, 0, 1, 0) == 1.0


def test_tdc_cross_pair_gumbel_r0():
    # with equal c and unit Frechet margins the stationary pair copula is
    # again Gumbel(gamma), whose TDC is 2 - 2**(1/gamma)
    cfg = ProcessConfig(2, (0.5, 0.5), (FRECHET1, FRECHET1), CopulaSpec.gumbel(2.0))
    assert theoretical_lag_tdc(cfg, 0, 1, 0) == pytest.approx(
        2.0 - math.sqrt(2.0), abs=1e-5
    )


def test_tdc_nonincreasing_in_lag():
    lams = [theoretical_lag_tdc(D1, 0, 0, r) for r in range(6)]
    for a, b in zip(lams, lams[1:]):
        assert b <= a + 1e-12


def test_tdc_diagnostics_envelope_and_clamp():
    configs = [
        (D1, 0, 0, 1),
        (D1, 0, 0, 2),
        (ProcessConfig(1, (0.8,), (MarginSpec.frechet(2.0),), INDEP), 0, 0, 1),
        (
            ProcessConfig(2, (0.5, 0.7), (FRECHET1, FRECHET1), CopulaSpec.gumbel(2.0)),
            0,
            1,
            1,
        ),
    ]
    for cfg, j, jp, r in configs:
        diag = lag_tdc_diagnostics(cfg, j, jp, r)
        for lower, middle, upper in zip(diag.lower, diag.middle, diag.upper):
            assert lower <= middle + 1e-12
            assert middle <= upper + 1e-12
        # the clamped value sits inside the envelope exactly; the raw
        # extrapolation may poke out only by numerical fuzz
        lo, hi = diag.bounds
        assert lo <= diag.lam <= hi
        assert max(lo - diag.lam_extrapolated, diag.lam_extrapolated - hi, 0.0) < 1e-3


def test_tdc_lam_grid_pinned_non_frechet_cell():
    # an off-diagonal cell with a GPD target margin: root-found levels and
    # the whole grid through one joint evaluation, pinned to the values
    # of the one-point-at-a-time evaluation
    cfg = ProcessConfig(
        2,
        (0.7, 0.3),
        (MarginSpec.exponential(1.0), MarginSpec.gpd(0.2, 1.0)),
        CopulaSpec.gumbel(2.0),
    )
    pinned = (
        0.021963319149653104,
        0.0073288756993785675,
        0.004455615013479575,
        0.0034931680269432164,
    )
    lam_grid = lag_tdc_diagnostics(cfg, 0, 1, 1).lam_grid
    assert lam_grid == pytest.approx(pinned, rel=1e-15, abs=0.0)


def test_tdc_grid_oscillation_raises():
    with pytest.raises(NumericLimitError):
        theoretical_lag_tdc(D1, 0, 0, 2, t_grid=(0.01, 0.0099, 1e-06))


def test_tdc_grid_validation():
    with pytest.raises(ValueError):
        theoretical_lag_tdc(D1, 0, 0, 2, t_grid=(0.01,))
    with pytest.raises(ValueError):
        theoretical_lag_tdc(D1, 0, 0, 2, t_grid=(0.01, 0.02))
    with pytest.raises(ValueError):
        theoretical_lag_tdc(D1, 0, 0, 2, t_grid=(0.5, 0.0))
    with pytest.raises(ValueError):
        theoretical_lag_tdc(D1, 0, 0, -1)
    with pytest.raises(ValueError):
        theoretical_lag_tdc(D1, 0, 1, 0)  # index out of range
    assert DEFAULT_T_GRID == (1e-2, 1e-3, 1e-4, 1e-5)


def test_tdc_bounds_values():
    assert tdc_bounds(0.5, 1.0, 2) == (0.0, 0.25)
    assert tdc_bounds(0.5, 1.0, 0) == (0.0, 1.0)
    assert tdc_bounds(0.5, 2.0, 1) == (0.0, 0.25)
    with pytest.raises(ValueError):
        tdc_bounds(1.0, 1.0, 1)
    with pytest.raises(ValueError):
        tdc_bounds(0.5, 0.0, 1)
    with pytest.raises(ValueError):
        tdc_bounds(0.5, 1.0, -1)


# --------------------------------------------------------------- empirical


def test_empirical_tdc_identical_columns():
    x = simulate_path(D1, 5_000, 3).data[:, 0]
    pair = np.column_stack([x, x])
    assert empirical_tdc(pair, 0, 1, 0, 0.05) == 1.0
    assert empirical_tdc(pair, 0, 1, 0, 0.2) == 1.0


def test_empirical_tdc_independent_columns():
    rng = np.random.default_rng(77)
    iid = rng.random((100_000, 2))
    assert empirical_tdc(iid, 0, 1, 0, 0.05) == pytest.approx(0.05, abs=0.02)


def test_empirical_tdc_lagged_armax():
    path = simulate_path(D1, 1_000_000, 7)
    assert empirical_tdc(path, 0, 0, 2, 0.02) == pytest.approx(0.25, abs=0.05)


def test_empirical_tdc_validation():
    x = np.arange(100.0).reshape(-1, 1)
    pair = np.column_stack([x, x])
    with pytest.raises(ValueError):
        empirical_tdc(pair, 0, 1, 0, 0.05)  # t * n < 10
    with pytest.raises(ValueError):
        empirical_tdc(pair, 0, 1, 0, 1.5)
    with pytest.raises(ValueError):
        empirical_tdc(pair, 0, 1, -1, 0.5)
    with pytest.raises(ValueError):
        empirical_tdc(pair, 0, 1, 99, 0.5)  # one lagged row left


def test_empirical_rank_invariance():
    # strictly increasing transforms leave ranks, and hence both
    # estimators, exactly unchanged
    path = simulate_path(D1, 5_000, 3)
    pair = np.column_stack([path.data[:, 0], np.roll(path.data[:, 0], 1)])
    cubed = pair.copy()
    cubed[:, 1] = cubed[:, 1] ** 3
    assert empirical_tdc(pair, 0, 1, 0, 0.05) == empirical_tdc(cubed, 0, 1, 0, 0.05)
    assert empirical_eta(pair, 0, 1, 1) == empirical_eta(cubed, 0, 1, 1)


def test_empirical_eta_independent_columns():
    rng = np.random.default_rng(78)
    iid = rng.random((100_000, 2))
    assert empirical_eta(iid, 0, 1, 0) == pytest.approx(0.5, abs=0.1)


def test_empirical_eta_tail_dependent_series():
    path = simulate_path(D1, 100_000, 12)
    assert empirical_eta(path, 0, 0, 1) == pytest.approx(1.0, abs=0.1)


def test_empirical_eta_exponential_margin():
    cfg = ProcessConfig(1, (0.8,), (MarginSpec.exponential(1.0),), INDEP)
    path = simulate_path(cfg, 100_000, 9)
    eta = empirical_eta(path, 0, 0, 1)
    lo, hi = eta_bounds_within_series(MarginSpec.exponential(1.0), 0.8, 1)
    assert lo - 0.1 <= eta <= hi + 0.1


def test_empirical_eta_never_exceeds_one():
    for seed in range(4, 10):
        x = simulate_path(D1, 2_000, seed).data[:, 0]
        pair = np.column_stack([x, x])
        eta = empirical_eta(pair, 0, 1, 0)
        assert 0.9 < eta <= 1.0


def test_empirical_eta_validation():
    path = simulate_path(D1, 100, 1)
    with pytest.raises(ValueError):
        empirical_eta(path, 0, 0, 0, k=100)
    with pytest.raises(ValueError):
        empirical_eta(path, 0, 0, -1)
    with pytest.raises(UndefinedResultError):
        # both structure-variable values tie, so the Hill slope is zero
        empirical_eta(np.array([[1.0, 2.0], [2.0, 1.0]]), 0, 1, 0, k=1)


# ------------------------------------------------------- eta bounds / regimes


def test_eta_bounds_branches():
    assert eta_bounds_within_series(FRECHET1, 0.5, 0) == (1.0, 1.0)
    assert eta_bounds_within_series(FRECHET1, 0.5, 2) == (1.0, 1.0)
    assert eta_bounds_within_series(MarginSpec.uniform01(), 0.5, 1) == (0.5, 0.5)
    assert eta_bounds_within_series(MarginSpec.gpd(-0.5, 1.0), 0.5, 1) == (0.5, 0.5)
    assert eta_bounds_within_series(MarginSpec.exponential(1.0), 0.8, 1) == (0.5, 0.8)
    lo, hi = eta_bounds_within_series(MarginSpec.weibull_min(2.0), 0.8, 1)
    assert (lo, hi) == (0.5, pytest.approx(0.64, abs=1e-12))
    # far lags push the upper bound down to the 1/2 floor
    assert eta_bounds_within_series(MarginSpec.exponential(1.0), 0.5, 10) == (0.5, 0.5)
    with pytest.raises(ValueError):
        eta_bounds_within_series(FRECHET1, 1.5, 1)
    with pytest.raises(ValueError):
        eta_bounds_within_series(FRECHET1, 0.5, -1)


def test_classify_tail_regime():
    assert classify_tail_regime(None, 0.5) == "near_independent"
    assert classify_tail_regime(0.25, 1.0) == "dependent"
    assert classify_tail_regime(None, 0.3) == "negatively_associated"
    assert classify_tail_regime(None, 0.7) == "positively_associated"
    # eta near one without positive lambda falls back to association
    assert classify_tail_regime(0.0, 1.0) == "positively_associated"
    assert classify_tail_regime(None, 1.0) == "positively_associated"
    assert REGIME_BAND == 0.05


def test_classify_validation():
    with pytest.raises(ValueError):
        classify_tail_regime(None, 0.0)
    with pytest.raises(ValueError):
        classify_tail_regime(None, 1.2)
    with pytest.raises(ValueError):
        classify_tail_regime(-0.1, 0.9)
