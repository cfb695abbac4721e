"""Tests for theoretical and empirical extremal indices."""

import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armax_extremes import armax, extremal
from armax_extremes.armax import (
    ProcessConfig,
    simulate_path,
    stationary_joint_logcdf,
    stationary_marginal_quantile,
)
from armax_extremes.copulas import CopulaSpec, DerivedCopula
from armax_extremes.errors import NumericLimitError, UndefinedResultError
from armax_extremes.extremal import (
    check_extremal_index_parameters,
    empirical_extremal_index_runs,
    empirical_mv_extremal_index,
    marginal_extremal_index,
    process_mv_extremal_index,
    theoretical_mv_extremal_index,
)
from armax_extremes.margins import MarginSpec, attraction_domain
from armax_extremes.taildep import theoretical_lag_tdc

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


# --------------------------------------------------------- config tail facts

# every margin kind, with GPD shapes above, within and below the band
# around 0 that reads as the Gumbel domain
TAIL_MARGINS = (
    FRECHET1,
    MarginSpec.frechet(2.5),
    MarginSpec.exponential(2.0),
    MarginSpec.uniform01(),
    MarginSpec.gpd(0.2, 1.0),
    MarginSpec.gpd(1e-13, 1.0),
    MarginSpec.gpd(0.0, 2.0),
    MarginSpec.gpd(-1e-13, 1.0),
    MarginSpec.gpd(-0.3, 1.0),
    MarginSpec.weibull_min(2.0),
)


def _tail_config(seed: int, d: int = 4) -> ProcessConfig:
    rng = np.random.default_rng(seed)
    margins = tuple(TAIL_MARGINS[i] for i in rng.integers(len(TAIL_MARGINS), size=d))
    return ProcessConfig(d, tuple(rng.uniform(0.01, 0.99, d).tolist()), margins, CopulaSpec.gumbel(2.0))


@pytest.mark.parametrize("margin", TAIL_MARGINS)
def test_tail_facts_equal_domain_and_marginal_index_bit_for_bit(margin):
    domain = attraction_domain(margin)
    for c in np.random.default_rng(37).uniform(0.01, 0.99, 25).tolist():
        facts = ProcessConfig(1, (c,), (margin,), INDEP)._tail
        assert facts.domains == (domain,)
        q = c**domain.alpha if domain.is_frechet else 0.0
        assert [v.hex() for v in facts.q] == [q.hex()]
        assert [v.hex() for v in facts.s] == [marginal_extremal_index(c, domain).hex()]


@pytest.mark.parametrize("seed", range(20))
def test_tail_facts_of_each_component_of_a_mixed_config(seed):
    config = _tail_config(seed)
    facts = config._tail
    assert facts is config._tail  # built once
    for j, (c, margin) in enumerate(zip(config.c, config.margins)):
        domain = attraction_domain(margin)
        assert facts.domains[j] == domain
        assert facts.s[j].hex() == marginal_extremal_index(c, domain).hex()
        assert facts.s[j].hex() == (1.0 - facts.q[j]).hex()
    result = process_mv_extremal_index(config, [1.0, 0.5, 2.0, 1.0])
    assert result.marginal_thetas == facts.s
    assert result.index_set == tuple(j for j, dom in enumerate(facts.domains) if dom.is_frechet)


def test_tail_facts_leave_to_dict_and_digest_as_they_were():
    reference = _tail_config(3)
    data, digest = reference.to_dict(), reference.digest()
    for first in ("table", "digest"):
        config = _tail_config(3)
        if first == "table":
            config._tail
        assert config.digest() == digest
        config._tail
        assert config.to_dict() == data and config.digest() == digest
        assert config == reference and hash(config) == hash(reference)


def test_config_pickled_with_its_tail_facts_gives_the_same_theta():
    # montecarlo with workers > 1 pickles the config into each worker
    config = _tail_config(5)
    tau = [1.0, 2.0, 0.5, 1.0]
    theta = process_mv_extremal_index(config, tau).theta
    assert "_tail" in vars(config)
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config and clone.digest() == config.digest()
    assert clone._tail == config._tail
    assert process_mv_extremal_index(clone, tau).theta.hex() == theta.hex()


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
    with pytest.raises(ValueError, match="run_gap must be an integer"):
        empirical_extremal_index_runs([1, 2, 3, 4], 2.5, run_gap=1.5)


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


@pytest.mark.parametrize("entry", ["empirical_mv_extremal_index", "check_extremal_index_parameters"])
def test_non_integral_order_is_refused(entry):
    # k counts order statistics: a fraction was read as a rank scale
    path = simulate_path(ProcessConfig(1, (0.5,), (FRECHET1,), INDEP), 100, 1)
    call = {
        "empirical_mv_extremal_index": lambda k: empirical_mv_extremal_index(
            path, [FRE_DOM], [0.5], k, (1.0,)),
        "check_extremal_index_parameters": lambda k: check_extremal_index_parameters(
            100, k, [1.0]),
    }[entry]
    for k in (1.5, 10.0, True, math.nan):
        with pytest.raises(ValueError, match="k must be an integer"):
            call(k)
    assert call(np.int64(10)) == call(10)


def test_nan_tau_entry_is_refused():
    # nan is neither negative nor positive, so sign tests alone read it as 0
    cfg = ProcessConfig(2, (0.5, 0.9), (FRECHET1, FRECHET1), CopulaSpec.gumbel(2.0))
    path = simulate_path(cfg, 2_000, 1)
    tau = [math.nan, 1.0]
    calls = [
        lambda: process_mv_extremal_index(cfg, tau),
        lambda: empirical_mv_extremal_index(path, [FRE_DOM] * 2, cfg.c, None, tau),
        lambda: check_extremal_index_parameters(2_000, None, [tau]),
        lambda: theoretical_mv_extremal_index(CopulaSpec.gumbel(2.0), [FRE_DOM] * 2, cfg.c, tau),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^tau must be nonnegative with at least one positive entry$"):
            call()


@pytest.mark.parametrize(
    "tau, message",
    [
        ((math.inf, 1.0), r"^tau entries must be finite$"),
        ((1.0, math.inf), r"^tau entries must be finite$"),
        ((math.inf, 0.0), r"^tau entries must be finite$"),
        ((math.inf, math.inf), r"^tau entries must be finite$"),
        # the sign and nan rule is checked first
        ((math.inf, -1.0), r"^tau must be nonnegative with at least one positive entry$"),
        ((math.nan, math.inf), r"^tau must be nonnegative with at least one positive entry$"),
    ],
)
def test_infinite_tau_entry_is_refused(tau, message):
    # unrefused, an infinite level reads four ways on this process: nan
    # or 1.0 (theoretical, by position), a NumericLimitError (process)
    # and 0.0 or 0.9885 (empirical)
    cfg = ProcessConfig(2, (0.5, 0.9), (FRECHET1, MarginSpec.exponential(1.0)), CopulaSpec.gumbel(2.0))
    domains = [FRE_DOM, GUM_DOM]
    path = simulate_path(cfg, 2_000, 1)
    grid = [[1.0, 1.0], list(tau)]
    calls = [
        lambda: theoretical_mv_extremal_index(cfg.copula, domains, cfg.c, tau),
        lambda: process_mv_extremal_index(cfg, tau),
        lambda: empirical_mv_extremal_index(path, domains, cfg.c, None, tau),
        lambda: empirical_mv_extremal_index(path, domains, cfg.c, None, grid),
        lambda: check_extremal_index_parameters(2_000, None, tau),
        lambda: check_extremal_index_parameters(2_000, None, grid),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


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


def _reference_mv_index(data, domains, c, k, grid):
    """The rank θ(τ) estimate of each row of ``grid``, from
    ``scipy.stats.rankdata(method="ordinal")`` of each column (all nan
    for a column holding a nan) and the estimator's formula."""
    from scipy.stats import rankdata

    n, d = data.shape
    k = math.ceil(math.sqrt(n)) if k is None else k
    ranks = np.array([rankdata(data[:, j], method="ordinal") for j in range(d)], dtype=float)
    thetas = []
    for tau in np.asarray(grid, dtype=float):
        # the numerator levels tau_j c_j**alpha_j, on Frechet-domain columns only
        num = [t * cj**dom.alpha if dom.is_frechet else 0.0 for t, cj, dom in zip(tau, c, domains)]
        if not any(dom.is_frechet for dom in domains):
            thetas.append(1.0)
            continue
        den_count, num_count = (
            np.count_nonzero((ranks > (n - k * np.array(x))[:, None]).any(axis=0))
            for x in (tau, num)
        )
        if den_count == 0:
            raise UndefinedResultError("no observation exceeds the tau levels")
        thetas.append(min(max(1.0 - num_count / den_count, 0.0), 1.0))
    return np.array(thetas)


def test_empirical_mv_ranks_ties_as_the_stable_sort():
    # column 0 ties throughout, its top ranks included; column 1 has no
    # ties; ties take ranks in order of position
    cfg = ProcessConfig(2, (0.5, 0.9), (FRECHET1, FRECHET1), CopulaSpec.gumbel(2.0))
    data = simulate_path(cfg, 3_000, 5).data
    data[:, 0] = np.floor(4.0 * np.log(data[:, 0]))
    top = np.sort(data[:, 0])[-60:]
    assert np.any(top[1:] == top[:-1])
    assert np.unique(data[:, 1]).size == len(data)
    grid = [[1.0, 1.0], [0.5, 2.0], [3.0, 0.25], [1.0, 0.0]]
    args = (data, [FRE_DOM] * 2, [0.5, 0.9], None, grid)
    got = empirical_mv_extremal_index(*args)
    assert got.tobytes() == _reference_mv_index(*args).tobytes()


_VALUES = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, math.inf, -math.inf]) | st.floats(-3.0, 3.0)


@st.composite
def _mv_cases(draw):
    n = draw(st.integers(3, 40))
    d = draw(st.integers(1, 3))
    data = np.array(draw(st.lists(st.lists(_VALUES, min_size=d, max_size=d), min_size=n, max_size=n)))
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        data[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = math.nan
    domains = draw(st.lists(st.sampled_from([FRE_DOM, GUM_DOM]), min_size=d, max_size=d))
    c = draw(st.lists(st.floats(0.05, 0.95), min_size=d, max_size=d))
    k = draw(st.none() | st.integers(1, n - 1))
    # levels from none to every row exceeding, rows with zero levels included
    level = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 1e3]) | st.floats(0.0, 5.0)
    grid = draw(st.lists(st.lists(level, min_size=d, max_size=d), min_size=1, max_size=4))
    grid = [row if any(row) else [1.0] * d for row in grid]
    return data, domains, c, k, grid


@settings(max_examples=400, database=None)
@given(_mv_cases())
def test_empirical_mv_matches_rankdata_reference(case):
    try:
        expected = _reference_mv_index(*case)
    except UndefinedResultError:
        with pytest.raises(UndefinedResultError, match="no observation exceeds the tau levels"):
            empirical_mv_extremal_index(*case)
        return
    assert empirical_mv_extremal_index(*case).tobytes() == expected.tobytes()


def test_empirical_mv_holds_one_column_partition():
    # besides the path: one column's sorted copy and a few row masks
    cfg = ProcessConfig(2, (0.5, 0.9), (FRECHET1, FRECHET1), CopulaSpec.gumbel(2.0))
    data = simulate_path(cfg, 100_000, 3).data
    grid = [[1.0, 1.0], [0.5, 2.0], [2.0, 0.5]]
    tracemalloc.start()
    try:
        theta = empirical_mv_extremal_index(data, [FRE_DOM] * 2, [0.5, 0.9], None, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert theta.shape == (3,)
    assert peak < 0.75 * data.nbytes


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
    "tau, theta",
    [
        ((0.5, 2.0, 0.5, 2.0), "0x1.d5d51ac5d39d3p-1"),
        ((2.0, 0.0, 0.5, 0.0), "0x1.0ba9a3d0260f4p-1"),
    ],
)
def test_process_index_pinned_bit_for_bit_in_one_product_call(monkeypatch, tau, theta):
    process_mv_extremal_index(MIXED4, tau)  # solves and caches the quantiles
    calls = []
    kernel = armax._log_product

    def counted(*args):
        calls.append(args[1].shape)
        return kernel(*args)

    monkeypatch.setattr(armax, "_log_product", counted)
    assert process_mv_extremal_index(MIXED4, tau).theta.hex() == theta
    # the denominator and numerator rows in one evaluation
    assert calls == [(2, 4)]


def test_repeated_theta_and_lambda_solve_no_quantile_again():
    # every theta row and lag-TDC cell of a d = 4 law with three
    # non-Frechet margins, run twice: the second run, with tau as arrays
    # of np.float64, finds every stationary quantile in the cache
    tau_rows = [row for row in itertools.product((0.0, 0.5, 2.0), repeat=4) if any(row)]
    cells = [(j, jp, r) for j in range(4) for jp in range(4) for r in range(6)]

    def sweep(form):
        for tau in tau_rows:
            process_mv_extremal_index(MIXED4, form(tau))
        for cell in cells:
            theoretical_lag_tdc(MIXED4, *cell)

    sweep(tuple)
    before = armax._stationary_quantile.cache_info()
    sweep(np.array)
    after = armax._stationary_quantile.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def _tau_forms(tau):
    """``tau`` as a tuple, a list and an array, with float, ``int`` (where
    integral) and ``np.float64`` entries."""
    forms = [tuple(tau), list(tau), np.array(tau, dtype=float), [np.float64(t) for t in tau]]
    if all(float(t).is_integer() for t in tau):
        forms.append([int(t) for t in tau])
    return forms


def _theta_calls():
    domains = [attraction_domain(m) for m in MIXED4.margins]
    return [
        lambda tau: process_mv_extremal_index(MIXED4, tau),
        lambda tau: theoretical_mv_extremal_index(MIXED4.copula, domains, MIXED4.c, tau),
    ]


@pytest.mark.parametrize("tau", [(0.5, 2.0, 0.0, 0.5), (1.0, 0.0, 3.0, 0.0), (0.0, 0.0, 0.0, 2.0)])
def test_theta_takes_every_form_of_tau_alike(tau):
    # one tau rule: every form of the same direction gives the same bits
    for call in _theta_calls():
        results = [call(form) for form in _tau_forms(tau)]
        assert {r.theta.hex() for r in results} == {results[0].theta.hex()}
        assert all(r.tau == tuple(float(t) for t in tau) for r in results)
        assert all(type(t) is float for r in results for t in r.tau)


@pytest.mark.parametrize(
    "tau, message",
    [
        ((math.nan, 1.0, 1.0, 1.0), r"^tau must be nonnegative with at least one positive entry$"),
        ((1.0, -1.0, 1.0, 1.0), r"^tau must be nonnegative with at least one positive entry$"),
        ((0.0, 0.0, 0.0, 0.0), r"^tau must be nonnegative with at least one positive entry$"),
        ((1.0, 1.0, 1.0), r"^c must have shape \(4,\) and tau shape \(4,\)$"),
        ((1.0, 1.0, 1.0, 1.0, 1.0), r"^c must have shape \(4,\) and tau shape \(4,\)$"),
    ],
)
def test_theta_refuses_a_bad_tau_in_every_form(tau, message):
    for call in _theta_calls():
        for form in _tau_forms(tau):
            with pytest.raises(ValueError, match=message):
                call(form)
        # a (1, d) grid is not a direction
        with pytest.raises(ValueError, match=r"^c must have shape \(4,\) and tau shape \(4,\)$"):
            call([tau])


@pytest.mark.parametrize("tau", [1.0, [[[1.0, 1.0]]]])
def test_check_parameters_refuses_a_tau_neither_direction_nor_grid(tau):
    with pytest.raises(ValueError, match=r"^tau must be a \(d,\) direction or an \(m, d\) grid$"):
        check_extremal_index_parameters(100, None, tau)


# ------------------------------------------------- theta against its formula


def _reference_point(config, j, level):
    if level == 0.0:
        return math.inf
    p = math.exp(-level)
    if p == 0.0:
        raise NumericLimitError(f"exp(-level) underflows to 0 at level {level:.17g}")
    return math.inf if p == 1.0 else stationary_marginal_quantile(config.margins[j], config.c[j], p)


def _reference_theta(config, tau):
    """``1 - log F(x_num) / log F(x_den)`` from the public stationary
    quantile and joint log CDF, each row evaluated on its own."""
    if not any(t > 0.0 for t in tau):
        raise ValueError("tau must be nonnegative with at least one positive entry")
    domains = [attraction_domain(m) for m in config.margins]
    if not any(dom.is_frechet for dom in domains):
        return 1.0
    den = [float(t) for t in tau]
    num = [t * c**dom.alpha if dom.is_frechet else 0.0 for t, c, dom in zip(den, config.c, domains)]
    x_den, x_num = ([_reference_point(config, j, level) for j, level in enumerate(row)] for row in (den, num))
    log_den = stationary_joint_logcdf(config, x_den)
    log_num = stationary_joint_logcdf(config, x_num)
    if log_den == 0.0:
        raise NumericLimitError("every denominator level rounds to argument one")
    return 1.0 - log_num / log_den


def _outcome(call):
    """``call()`` as float hex, or the type and message it raised."""
    try:
        return call().hex()
    except (NumericLimitError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _assert_theta_is_its_formula(config, tau):
    got = _outcome(lambda: process_mv_extremal_index(config, tau).theta)
    assert got == _outcome(lambda: _reference_theta(config, tau)), (config, tau)
    return got


def test_theta_on_every_sweep_row_is_its_formula():
    outcomes = [
        _assert_theta_is_its_formula(MIXED4, tau)
        for tau in itertools.product((0.0, 0.5, 2.0), repeat=4)
    ]
    # the all-zero row is refused; the 8 rows without a Frechet-domain
    # level (tau_0 = tau_2 = 0) are exactly 1
    assert outcomes[0][0] == "ValueError"
    assert outcomes.count((1.0).hex()) == 8


@pytest.mark.parametrize(
    "tau, outcome",
    [
        # exp(-level) rounds to 1 at every level: all at argument one
        ((1e-17, 0.0, 1e-17, 0.0), ("NumericLimitError", "every denominator level rounds to argument one")),
        # ... at the numerator's levels only: theta = 1 without the product
        ((1e-16, 0.0, 0.0, 0.0), (1.0).hex()),
        ((1e-17, 0.5, 0.0, 0.0), (1.0).hex()),
        # exp(-level) underflows to 0, in the denominator and the numerator
        ((800.0, 0.5, 0.0, 0.0), ("NumericLimitError", "exp(-level) underflows to 0 at level 800")),
        ((0.5, 0.0, 2000.0, 0.0), ("NumericLimitError", "exp(-level) underflows to 0 at level 2000")),
    ],
)
def test_theta_at_levels_that_round_to_one_or_zero_is_its_formula(tau, outcome):
    assert _assert_theta_is_its_formula(MIXED4, tau) == outcome


def test_theta_raises_where_finite_level_points_round_log_f_to_zero():
    # both level points are finite (exp(-level) is below one), yet the
    # stationary log F rounds to 0.0 at the denominator's
    config = ProcessConfig(1, (0.9,), (FRECHET1,), INDEP)
    tau = (1e-16,)
    assert math.isfinite(stationary_marginal_quantile(FRECHET1, 0.9, math.exp(-1e-16 * 0.9)))
    outcome = ("NumericLimitError", "every denominator level rounds to argument one")
    assert _assert_theta_is_its_formula(config, tau) == outcome


def _random_config(seed):
    rng = np.random.default_rng(seed)
    d = 1 + seed % 4
    margins = tuple(TAIL_MARGINS[i] for i in rng.integers(len(TAIL_MARGINS), size=d))
    copula = (CopulaSpec.gumbel(2.0), INDEP, CopulaSpec.comonotone())[seed % 3]
    return ProcessConfig(d, tuple(rng.uniform(0.01, 0.99, d).tolist()), margins, copula), rng


@pytest.mark.parametrize("seed", range(100))
def test_theta_of_a_random_config_is_its_formula(seed):
    config, rng = _random_config(seed)
    levels = np.array([0.0, 0.0, 0.5, 2.0, 0.5, 2.0, 1e-17, 800.0])
    for tau in levels[rng.integers(len(levels), size=(4, config.d))].tolist():
        _assert_theta_is_its_formula(config, tau)


def test_theta_is_one_where_the_denominator_product_rounds_to_zero():
    # the one kind of input whose outcome the shortcut changes: a finite
    # denominator point whose log F rounds to 0, beside no finite
    # numerator point.  GPD(-2, 1) reaches G = 1 at its endpoint 0.5, to
    # which the stationary quantile rounds at p = exp(-1e-16); the
    # formula's 0 / 0 was refused, theta = 1 is now returned
    config = ProcessConfig(2, (0.5, 0.3), (FRECHET1, MarginSpec.gpd(-2.0, 1.0)), CopulaSpec.gumbel(2.0))
    for tau in [(0.0, 1e-16), (0.0, 1e-10)]:
        assert _outcome(lambda: _reference_theta(config, tau)) == (
            "NumericLimitError",
            "every denominator level rounds to argument one",
        )
        assert process_mv_extremal_index(config, tau).theta == 1.0


def test_theta_without_a_finite_numerator_point_skips_the_product(monkeypatch):
    # warm rows: a row with a finite numerator point evaluates its two
    # rows in one product call, a row without one makes none
    rows = [tau for tau in itertools.product((0.0, 0.5, 2.0), repeat=4) if any(tau)]
    for tau in rows:
        process_mv_extremal_index(MIXED4, tau)  # solves and caches the quantiles
    calls = []
    kernel = armax._log_product

    def counted(*args):
        calls.append(args[1].shape)
        return kernel(*args)

    monkeypatch.setattr(armax, "_log_product", counted)
    for tau in rows:
        calls.clear()
        process_mv_extremal_index(MIXED4, tau)
        assert calls == ([] if tau[0] == tau[2] == 0.0 else [(2, 4)]), tau
