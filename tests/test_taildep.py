"""Tests for lag-r tail dependence and tail independence coefficients."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armax_extremes import armax
from armax_extremes.armax import ProcessConfig, simulate_path
from armax_extremes.copulas import CopulaSpec
from armax_extremes.errors import NumericLimitError, UndefinedResultError
from armax_extremes.margins import MarginSpec
from armax_extremes.taildep import (
    DEFAULT_T_GRID,
    REGIME_BAND,
    check_tail_dep_parameters,
    classify_tail_regime,
    empirical_cells,
    empirical_eta,
    empirical_tdc,
    eta_bounds_within_series,
    lag_tdc_diagnostics,
    tdc_bounds,
    theoretical_lag_tdc,
)
from test_ranks import _rankdata

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
    # an off-diagonal cell with a GPD target margin: bit-searched levels and
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
        0.007328875699489146,
        0.004455615013479575,
        0.0034931680269432164,
    )
    lam_grid = lag_tdc_diagnostics(cfg, 0, 1, 1).lam_grid
    assert lam_grid == pytest.approx(pinned, rel=1e-15, abs=0.0)


# a d = 4 process with one margin of each tail type: Frechet(1),
# exponential(1), GPD(0.2, 1) and Weibull-min(2), Gumbel(2) innovations
MIXED4 = ProcessConfig(
    4,
    (0.5, 0.7, 0.3, 0.9),
    (
        FRECHET1,
        MarginSpec.exponential(1.0),
        MarginSpec.gpd(0.2, 1.0),
        MarginSpec.weibull_min(2.0),
    ),
    CopulaSpec.gumbel(2.0),
)


@pytest.mark.parametrize(
    "cell, extrapolated, lam",
    [
        # clamped to the Frechet-domain envelope 0.3**(5 * 3)
        ((1, 2, 3), "0x1.894efedc71bc9p-26", "0x1.ed06521bf3accp-27"),
        ((2, 1, 1), "0x1.7d55f0214eb72p-8", "0x1.7d55f0214eb72p-8"),
        ((3, 0, 2), "0x1.3b3c1ec312045p-3", "0x1.3b3c1ec312045p-3"),
        # a within-series cell, clamped to 0
        ((1, 1, 2), "-0x1.09c8464671c70p-21", "0x0.0p+0"),
    ],
)
def test_tdc_mixed_cells_pinned_bit_for_bit(cell, extrapolated, lam):
    # the bits of the evaluation that took F(z_t) in a call of its own;
    # every cell now takes it in its one stationary-law batch
    diag = lag_tdc_diagnostics(MIXED4, *cell)
    assert (diag.lam_extrapolated.hex(), diag.lam.hex()) == (extrapolated, lam)
    assert theoretical_lag_tdc(MIXED4, *cell).hex() == lam


def test_tdc_cell_runs_the_product_kernel_at_most_once(monkeypatch):
    # F(z_t) rides in the cell's one stationary-law batch, after the pair
    # law of a cross cell, so no cell evaluates the truncated product
    # twice once its quantiles are cached; a diagonal cell whose F(z_t)
    # is exact (r = 0) or a Frechet substitution needs none.  lam alone
    # and the record make the same calls
    calls = []
    kernel = armax._log_product

    def counted(*args):
        calls.append(args[1].shape)
        return kernel(*args)

    for j, jp, r in itertools.product(range(4), range(4), range(6)):
        theoretical_lag_tdc(MIXED4, j, jp, r)  # solves and caches the quantiles
        for call in (theoretical_lag_tdc, lag_tdc_diagnostics):
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(armax, "_log_product", counted)
                call(MIXED4, j, jp, r)
            assert len(calls) == (0 if j == jp and (jp == 0 or r == 0) else 1), (call, j, jp, r, calls)
            # a cell with a product F(z_t) takes it as 4 rows, after the 4
            # of a cross cell's pair law
            if jp != 0 and r > 0:
                assert calls == [(8 if j != jp else 4, 4)]


# a cell whose grid diverges: its last increment, -1.09e-3, is far above
# 10x the previous one (5.2e-5) plus the noise floor (1e-6 at c = 0.9)
DIVERGING = ProcessConfig(
    2, (0.3, 0.9), (FRECHET1, MarginSpec.exponential(1.0)), CopulaSpec.gumbel(4.0)
)


def test_tdc_grid_oscillation_raises():
    with pytest.raises(NumericLimitError, match="last increment -1.094e-03"):
        theoretical_lag_tdc(DIVERGING, 1, 0, 1)


# every margin kind, a Frechet-domain GPD and GPD shapes near 0 included
LAM_MARGINS = (
    FRECHET1,
    MarginSpec.frechet(2.5),
    MarginSpec.exponential(2.0),
    MarginSpec.uniform01(),
    MarginSpec.gpd(0.2, 1.0),
    MarginSpec.gpd(1e-13, 1.0),
    MarginSpec.gpd(-0.3, 1.0),
    MarginSpec.weibull_min(2.0),
)


def _lam_config(seed):
    rng = np.random.default_rng(seed)
    d = 1 + seed % 4
    margins = tuple(LAM_MARGINS[i] for i in rng.integers(len(LAM_MARGINS), size=d))
    copula = (CopulaSpec.gumbel(2.0), INDEP, CopulaSpec.comonotone())[seed % 3]
    return ProcessConfig(d, tuple(rng.uniform(0.05, 0.95, d).tolist()), margins, copula)


def _lam_outcomes(config, j, jp, r):
    """``theoretical_lag_tdc`` and the ``lam`` of `lag_tdc_diagnostics`
    as float hex, or the type and message of what each raised."""
    outcomes = []
    for call in (theoretical_lag_tdc, lambda *cell: lag_tdc_diagnostics(*cell).lam):
        try:
            outcomes.append(call(config, j, jp, r).hex())
        except (NumericLimitError, ValueError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


@pytest.mark.parametrize("seed", range(24))
def test_lam_alone_equals_the_diagnostics_lam(seed):
    config = _lam_config(seed)
    for j, jp, r in itertools.product(range(config.d), range(config.d), range(7)):
        lam, diag_lam = _lam_outcomes(config, j, jp, r)
        assert lam == diag_lam, (j, jp, r)


# c**r underflows to 0 at c = 1e-170, r >= 2: the level z_t is inf
TINY_C = ProcessConfig(
    2, (0.5, 1e-170), (MarginSpec.exponential(1.0), MarginSpec.weibull_min(2.0)), CopulaSpec.gumbel(2.0)
)


@pytest.mark.parametrize(
    "config, cell, outcome",
    [
        # truncation noise, pinned to the bits of the record's evaluation
        (TINY_C, (0, 1, 2), "0x1.64a95555698e3p-38"),
        (TINY_C, (1, 1, 3), "0x1.5554a471c71c7p-54"),
        (
            DIVERGING,
            (1, 0, 1),
            (
                "NumericLimitError",
                "lag TDC grid did not converge: last increment -1.094e-03 exceeds 10x the previous 5.199e-05",
            ),
        ),
        (MIXED4, (0, 4, 1), ("ValueError", "component indices out of range")),
        (MIXED4, (0, 1, -1), ("ValueError", "lag r must be nonnegative")),
    ],
)
def test_lam_alone_equals_the_diagnostics_lam_at_the_edges(config, cell, outcome):
    assert _lam_outcomes(config, *cell) == [outcome, outcome]


@pytest.mark.parametrize(
    "c, margin, r, lam",
    [
        (0.5, FRECHET1, 0, 1.0),
        (0.5, MarginSpec.exponential(1.0), 0, 1.0),
        (0.5, MarginSpec.gpd(0.2, 1.0), 0, 1.0),
        (0.5, MarginSpec.weibull_min(2.0), 0, 1.0),
        (0.5, MarginSpec.uniform01(), 0, 1.0),
        (0.99, FRECHET1, 2, 0.99**2),
    ],
    ids=["frechet", "exponential", "gpd", "weibull_min", "uniform01", "frechet-c0.99-r2"],
)
def test_tdc_comonotone_identical_components_is_exact(c, margin, r, lam):
    # comonotone innovations with equal c and margins make X_0 and X_1
    # one series, so the cross TDC is the within-series one; the grid
    # increments here are truncation noise, below the floor
    cfg = ProcessConfig(2, (c, c), (margin, margin), CopulaSpec.comonotone())
    assert theoretical_lag_tdc(cfg, 0, 1, r) == lam


def test_tdc_grid_validation():
    with pytest.raises(ValueError):
        theoretical_lag_tdc(D1, 0, 0, -1)
    with pytest.raises(ValueError):
        theoretical_lag_tdc(D1, 0, 1, 0)  # index out of range
    assert DEFAULT_T_GRID == (1e-2, 1e-3, 1e-4, 1e-5)
    assert lag_tdc_diagnostics(D1, 0, 0, 2).t == DEFAULT_T_GRID


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


@pytest.mark.parametrize("j, jp", [(-1, 0), (0, -1), (2, 0), (0, 2)])
def test_column_indices_out_of_range_are_refused(j, jp):
    # numpy indexing alone reads -1 as the last column and refuses 2 with
    # an IndexError
    cfg = ProcessConfig(2, (0.5, 0.9), (FRECHET1, FRECHET1), CopulaSpec.gumbel(2.0))
    data = simulate_path(cfg, 1_000, 5).data
    calls = [
        lambda: empirical_tdc(data, j, jp, 0, 0.02),
        lambda: empirical_eta(data, j, jp, 0),
        lambda: empirical_cells(data, [(0, 1, 0), (j, jp, 0)], 0.02),
        lambda: lag_tdc_diagnostics(cfg, j, jp, 0),
        lambda: check_tail_dep_parameters(1_000, 2, [(0, 1), (j, jp)], [0], 0.02, None),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^component indices out of range$"):
            call()


_PAIR = ProcessConfig(2, (0.5, 0.9), (FRECHET1, FRECHET1), CopulaSpec.gumbel(2.0))
_PAIR_DATA = simulate_path(_PAIR, 1_000, 5).data
# each public entry that takes a lag r, as a function of r
_LAG_ENTRIES = {
    "theoretical_lag_tdc": lambda r: theoretical_lag_tdc(_PAIR, 0, 1, r),
    "lag_tdc_diagnostics": lambda r: lag_tdc_diagnostics(_PAIR, 0, 1, r).lam,
    "tdc_bounds": lambda r: tdc_bounds(0.5, 1.0, r),
    "empirical_tdc": lambda r: empirical_tdc(_PAIR_DATA, 0, 1, r, 0.02),
    "empirical_eta": lambda r: empirical_eta(_PAIR_DATA, 0, 1, r),
    "empirical_cells": lambda r: empirical_cells(_PAIR_DATA, [(0, 1, 0), (0, 1, r)], 0.02),
    "eta_bounds_within_series": lambda r: eta_bounds_within_series(FRECHET1, 0.5, r),
    "check_tail_dep_parameters": lambda r: check_tail_dep_parameters(
        1_000, 2, [(0, 1)], [0, r], 0.02, None),
}


@pytest.mark.parametrize("entry", _LAG_ENTRIES.values(), ids=_LAG_ENTRIES)
def test_non_integral_lags_are_refused(entry):
    # a lag is a count of rows: a fraction was read as a lag by the
    # theoretical entries and failed in a slice in the empirical ones
    for r in (1.5, 0.5, 1.0, True, math.nan):
        with pytest.raises(ValueError, match="lag r must be an integer"):
            entry(r)
    assert entry(np.int64(1)) == entry(1)


# each public entry that takes a Hill count k, as a function of k
_K_ENTRIES = {
    "empirical_eta": lambda k: empirical_eta(_PAIR_DATA, 0, 1, 1, k),
    "empirical_cells": lambda k: empirical_cells(_PAIR_DATA, [(0, 1, 1)], 0.02, k),
    "check_tail_dep_parameters": lambda k: check_tail_dep_parameters(
        1_000, 2, [(0, 1)], [0, 1], 0.02, k),
}


@pytest.mark.parametrize("entry", _K_ENTRIES.values(), ids=_K_ENTRIES)
def test_non_integral_hill_counts_are_refused(entry):
    for k in (10.5, 10.0, True, math.nan):
        with pytest.raises(ValueError, match="k must be an integer"):
            entry(k)
    assert entry(np.int32(10)) == entry(10)


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


def _reference_cell(data, j, jp, r, t, k):
    """``lam`` and ``eta`` of one cell, each a value or the error it
    raises, from ``rankdata`` of the two lagged windows through the
    estimators' formulas."""
    n = len(data)
    m = n - r
    head, tail = _rankdata(data[:m, j]), _rankdata(data[r:, jp])
    cutoff = (1.0 - t) * m
    head_exceeds = head > cutoff
    lam = UndefinedResultError("empty conditioning set")
    if head_exceeds.any():
        lam = np.count_nonzero(head_exceeds & (tail > cutoff)) / np.count_nonzero(head_exceeds)
    k = math.ceil(2.0 * math.sqrt(m)) if k is None else k
    t_var = np.minimum(1.0 / (1.0 - head / (m + 1.0)), 1.0 / (1.0 - tail / (m + 1.0)))
    top = np.sort(t_var)[-k - 1 :]
    eta = float(np.mean(np.log(top[1:])) - math.log(top[0]))
    eta = min(eta, 1.0) if eta > 0.0 else UndefinedResultError("degenerate structure-variable sample")
    return lam, eta


def _assert_same(got, expected):
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
    else:
        assert got == expected


def _outcome(call):
    try:
        return call()
    except UndefinedResultError as exc:
        return exc


@st.composite
def _tail_dep_cases(draw):
    n = draw(st.integers(15, 60))
    values = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, math.inf]) | st.floats(-3.0, 3.0)
    data = np.array(draw(st.lists(values, min_size=2 * n, max_size=2 * n))).reshape(n, 2)
    r = draw(st.integers(0, 3))
    # a nan in the head window only, the tail window only, or both
    spot = st.integers(0, 3) | st.integers(n - 4, n - 1) | st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        data[draw(spot), draw(st.integers(0, 1))] = math.nan
    m = n - r
    # t * m >= 10; a t of a / m puts the cutoff on or next to a rank
    t = draw(st.floats(11.0 / m, 0.99) | st.integers(11, m - 1).map(lambda a: a / m))
    k = draw(st.none() | st.integers(1, m - 1))
    return data, r, t, k


@settings(max_examples=300, database=None)
@given(_tail_dep_cases())
def test_rank_estimators_match_rankdata_reference(case):
    data, r, t, k = case
    cells = [(j, jp, r) for j in (0, 1) for jp in (0, 1)]
    for (j, jp, _), cell in zip(cells, empirical_cells(data, cells, t, k), strict=True):
        lam, eta = _reference_cell(data, j, jp, r, t, k)
        _assert_same(_outcome(lambda: empirical_tdc(data, j, jp, r, t)), lam)
        _assert_same(_outcome(lambda: empirical_eta(data, j, jp, r, k)), eta)
        # a cell is its lam's error, else its eta's, else the pair
        expected = next((v for v in (lam, eta) if isinstance(v, Exception)), (lam, eta))
        _assert_same(cell, expected)


def test_empirical_cells_hold_the_sorted_columns_and_one_cells_masks():
    # besides the path: each column's sorted copy, and one cell's row
    # masks and the few rows ranked near the top; a counter-monotone
    # pair, whose top k + 1 T values lie near the middle ranks, too
    cfg = ProcessConfig(2, (0.5, 0.9), (FRECHET1, FRECHET1), CopulaSpec.gumbel(2.0))
    data = simulate_path(cfg, 100_000, 3).data
    counter = np.column_stack([data[:, 0], -data[:, 0]])
    cells = [(j, jp, r) for j in range(2) for jp in range(2) for r in (0, 1, 2)]
    for path in (data, counter):
        tracemalloc.start()
        try:
            out = empirical_cells(path, cells, 0.02)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == 12
        assert peak < 1.25 * path.nbytes


def test_empirical_cell_matches_public_estimators():
    cfg = ProcessConfig(2, (0.5, 0.9), (FRECHET1, FRECHET1), CopulaSpec.gumbel(2.0))
    data = simulate_path(cfg, 4_000, 21).data
    cells = [(j, jp, r) for j, jp in ((0, 0), (0, 1), (1, 0), (1, 1)) for r in (0, 1, 5)]
    for (j, jp, r), cell in zip(cells, empirical_cells(data, cells, 0.02), strict=True):
        assert cell == (empirical_tdc(data, j, jp, r, 0.02), empirical_eta(data, j, jp, r))


def test_empirical_eta_validation():
    path = simulate_path(D1, 100, 1)
    with pytest.raises(ValueError):
        empirical_eta(path, 0, 0, 0, k=100)
    with pytest.raises(ValueError):
        empirical_eta(path, 0, 0, -1)
    with pytest.raises(UndefinedResultError):
        # both structure-variable values tie, so the Hill slope is zero
        empirical_eta(np.array([[1.0, 2.0], [2.0, 1.0]]), 0, 1, 0, k=1)
    # a nan entry makes the Hill slope nan, which is refused too
    x = np.random.default_rng(3).random((500, 2))
    x[200, 1] = math.nan
    for j, jp in ((0, 1), (1, 0)):
        with pytest.raises(UndefinedResultError, match="degenerate structure-variable sample"):
            empirical_eta(x, j, jp, 0)
    (cell,) = empirical_cells(x, [(0, 1, 0)], 0.1)
    assert isinstance(cell, UndefinedResultError)
    assert str(cell) == "degenerate structure-variable sample"


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
