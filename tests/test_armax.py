"""Tests for ARMAX simulation, stationarity, and stationary distributions."""

import math
import re

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

from armax_extremes import armax
from armax_extremes.armax import (
    InitPolicy,
    ProcessConfig,
    apply_recursion,
    check_stationarity,
    normalized_level,
    simulate_path,
    stationary_joint_cdf,
    stationary_joint_logcdf,
    stationary_marginal_cdf,
    stationary_marginal_logcdf,
    stationary_marginal_quantile,
)
from armax_extremes.copulas import CopulaSpec, copula_logcdf
from armax_extremes.errors import ConfigurationError
from armax_extremes.margins import MarginSpec, margin_cdf

FRECHET1 = MarginSpec.frechet(1.0)
INDEP = CopulaSpec.independence()


def d1_config(c=0.5, margin=FRECHET1, init=None):
    return ProcessConfig(1, (c,), (margin,), INDEP, init)


# ------------------------------------------------------------- construction


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ProcessConfig(0, (), (), INDEP)
    with pytest.raises(ConfigurationError):
        ProcessConfig(2, (0.5,), (FRECHET1, FRECHET1), INDEP)  # c length
    with pytest.raises(ConfigurationError):
        ProcessConfig(1, (1.0,), (FRECHET1,), INDEP)  # c not in (0,1)
    with pytest.raises(ConfigurationError):
        ProcessConfig(1, (0.0,), (FRECHET1,), INDEP)
    with pytest.raises(ConfigurationError):
        ProcessConfig(1, (0.5,), ("frechet",), INDEP)  # margin type
    with pytest.raises(ConfigurationError):
        ProcessConfig(1, (0.5,), (FRECHET1,), "independence")  # copula type
    with pytest.raises(ConfigurationError):
        ProcessConfig(1, (0.5,), (FRECHET1,), INDEP, init="burn_in")


def test_init_policy_validation():
    with pytest.raises(ValueError):
        InitPolicy("warm_start")
    with pytest.raises(ValueError):
        InitPolicy("burn_in")  # missing length
    with pytest.raises(ValueError):
        InitPolicy("burn_in", length=-1)
    with pytest.raises(ValueError):
        InitPolicy("exact_marginal", length=10)
    assert InitPolicy.burn_in().length == 1000


def test_config_digest_tracks_content():
    a = d1_config(0.5)
    b = d1_config(0.5)
    assert a.digest() == b.digest()
    assert d1_config(0.6).digest() != a.digest()
    assert set(a.to_dict()) == {"d", "c", "margins", "copula", "init"}


def test_config_from_dict_round_trip_and_errors():
    cfg = ProcessConfig(
        2,
        (0.5, 0.7),
        (FRECHET1, MarginSpec.gpd(0.2, 1.0)),
        CopulaSpec.gumbel(2.0),
        InitPolicy.exact_marginal(),
    )
    assert ProcessConfig.from_dict(cfg.to_dict()) == cfg
    assert ProcessConfig.from_dict(d1_config().to_dict()).init == InitPolicy.burn_in()
    base = cfg.to_dict()
    derived = {"kind": "derived", "base": base["copula"], "theta": [0.5, 0.7]}
    bad = [
        ("not a dict", "process must be a JSON object"),
        ({**base, "extra": 1}, "unknown process fields"),
        ({k: v for k, v in base.items() if k != "c"}, "requires the field 'c'"),
        ({**base, "init": {"kind": "warm"}}, "unknown init kind"),
        ({**base, "init": {"kind": "burn_in"}}, "bad init"),
        ({**base, "init": {"kind": "exact_marginal", "x": 1}}, "unknown init fields"),
        ({**base, "c": [0.5, "x"]}, "bad process config"),
        ({**base, "c": [0.5, 1.5]}, "must lie in (0, 1)"),
        ({**base, "copula": derived}, "innovation copula must be a base family"),
    ]
    for data, message in bad:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            ProcessConfig.from_dict(data)


# ----------------------------------------------------------------- recursion


def test_forced_innovation_path():
    out = apply_recursion(0.5, 1.0, [2.0, 0.1, 0.1])
    assert np.array_equal(out, [2.0, 1.0, 0.5])


def test_apply_recursion_vector_c():
    innov = np.array([[2.0, 1.0], [0.1, 0.1], [0.1, 0.1]])
    out = apply_recursion([0.5, 0.9], [1.0, 1.0], innov)
    assert np.array_equal(out[:, 0], [2.0, 1.0, 0.5])
    assert np.array_equal(out[:, 1], [1.0, 0.9, 0.81])


def test_apply_recursion_rejects_bad_c():
    with pytest.raises(ValueError):
        apply_recursion(1.0, 1.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        apply_recursion(0.0, 1.0, [1.0, 2.0])


# ---------------------------------------------------------------- simulation


def test_recursion_lower_bound_exact():
    cfg = ProcessConfig(
        2, (0.5, 0.8), (FRECHET1, MarginSpec.exponential(1.0)), CopulaSpec.gumbel(2.0)
    )
    path = simulate_path(cfg, 5_000, 1)
    x = path.data
    assert x.shape == (5_000, 2)
    assert np.all(x > 0.0)
    for j, c in enumerate(cfg.c):
        # the recursion stores max(c * prev, innovation) of python floats,
        # so the bound holds with no tolerance at all
        assert np.all(x[1:, j] >= c * x[:-1, j])


def test_determinism_and_seed_separation():
    cfg = d1_config()
    a = simulate_path(cfg, 100, 42)
    b = simulate_path(cfg, 100, 42)
    assert np.array_equal(a.data, b.data)
    assert a.config_digest == b.config_digest
    c = simulate_path(cfg, 100, 43)
    assert not np.array_equal(a.data, c.data)


def test_tuple_seeds_give_independent_streams():
    cfg = d1_config()
    a = simulate_path(cfg, 100, (20240817, 3))
    b = simulate_path(cfg, 100, (20240817, 4))
    again = simulate_path(cfg, 100, (20240817, 3))
    assert np.array_equal(a.data, again.data)
    assert not np.array_equal(a.data, b.data)


def test_comonotone_copies_columns():
    cfg = ProcessConfig(3, (0.5,) * 3, (FRECHET1,) * 3, CopulaSpec.comonotone())
    path = simulate_path(cfg, 2_000, 11)
    assert np.array_equal(path.data[:, 1], path.data[:, 0])
    assert np.array_equal(path.data[:, 2], path.data[:, 0])


def test_stationary_marginal_ks():
    # d=1, c=0.5, unit Frechet innovations: stationary CDF is exp(-2/x)
    cfg = d1_config(init=InitPolicy.exact_marginal())
    path = simulate_path(cfg, 100_000, 50)
    stat = kstest(path.data[:, 0], lambda x: np.exp(-2.0 / x)).statistic
    assert stat < 0.01


def test_burn_in_matches_exact_marginal():
    burn = simulate_path(d1_config(init=InitPolicy.burn_in(1000)), 100_000, 5)
    exact = simulate_path(d1_config(init=InitPolicy.exact_marginal()), 100_000, 6)
    assert burn.init_used == "burn_in:1000"
    assert exact.init_used == "exact_marginal"
    assert ks_2samp(burn.data[:, 0], exact.data[:, 0]).statistic < 0.02


def test_exact_marginal_falls_back_for_non_frechet():
    cfg = d1_config(margin=MarginSpec.exponential(1.0), init=InitPolicy.exact_marginal())
    path = simulate_path(cfg, 100, 3)
    assert path.init_used == "burn_in:1000"


def test_default_init_is_burn_in():
    path = simulate_path(d1_config(), 100, 3)
    assert path.init_used == "burn_in:1000"


def test_simulate_rejects_bad_n():
    with pytest.raises(ValueError):
        simulate_path(d1_config(), 0, 1)


# -------------------------------------------------------------- stationarity


def test_stationarity_series_unit_frechet_probe_one():
    # sum_{i>=1} c^i / x is geometric: c/((1-c) x) = 1 at c=0.5, x=1
    res = check_stationarity(d1_config(), probe=[1.0])
    assert res.stationary
    assert res.converged
    assert res.series_value == pytest.approx(1.0, abs=1e-12)


def test_stationarity_gpd_margins():
    cfg = ProcessConfig(
        2,
        (0.5, 0.7),
        (MarginSpec.gpd(0.5, 1.0), MarginSpec.gpd(-0.2, 2.0)),
        INDEP,
    )
    res = check_stationarity(cfg)
    assert res.stationary
    assert 0.0 < res.series_value < math.inf


def test_stationarity_uniform_margin():
    res = check_stationarity(d1_config(margin=MarginSpec.uniform01()))
    assert res.stationary
    # default probe is c * median = 0.25; only the i=1 term (at 0.5) is
    # inside the support, so the series is exactly log 2
    assert res.series_value == pytest.approx(math.log(2.0), abs=1e-15)


def test_stationarity_probe_validation():
    with pytest.raises(ValueError):
        check_stationarity(d1_config(), probe=[0.0])
    with pytest.raises(ValueError):
        check_stationarity(d1_config(), probe=[-1.0])
    with pytest.raises(ValueError):
        check_stationarity(d1_config(), probe=[1.0, 1.0])


# ------------------------------------------------- stationary distributions


def test_stationary_marginal_cdf_values():
    assert stationary_marginal_cdf(0.5, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert stationary_marginal_cdf(0.3, 1e12) > 1.0 - 1e-11
    assert stationary_marginal_cdf(1e-9, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-6)
    assert stationary_marginal_cdf(0.5, 0.0) == 0.0
    assert stationary_marginal_cdf(0.5, -3.0) == 0.0
    out = stationary_marginal_cdf(0.5, np.array([1.0, 2.0]))
    assert out.shape == (2,)
    with pytest.raises(ValueError):
        stationary_marginal_cdf(1.0, 2.0)


def test_stationary_joint_matches_marginal_d1():
    cfg = d1_config()
    for x in (0.5, 2.0, 7.0):
        assert stationary_joint_cdf(cfg, [x]) == pytest.approx(
            stationary_marginal_cdf(0.5, x), abs=1e-9
        )


def test_stationary_joint_comonotone_collapses():
    cfg = ProcessConfig(3, (0.5,) * 3, (FRECHET1,) * 3, CopulaSpec.comonotone())
    for t in (1.0, 2.0, 5.0):
        assert stationary_joint_cdf(cfg, [t] * 3) == pytest.approx(
            stationary_marginal_cdf(0.5, t), abs=1e-9
        )


def test_stationary_joint_independence_product():
    cfg = ProcessConfig(2, (0.5, 0.5), (FRECHET1, FRECHET1), INDEP)
    assert stationary_joint_cdf(cfg, [2.0, 2.0]) == pytest.approx(
        math.exp(-2.0), abs=1e-9
    )


@pytest.mark.parametrize(
    "make_margin",
    [
        MarginSpec.frechet,
        MarginSpec.exponential,
        lambda a: MarginSpec.gpd(0.4 * (a - 1.5), 1.0),
        MarginSpec.weibull_min,
    ],
    ids=["frechet", "exponential", "gpd", "weibull_min"],
)
def test_stationary_joint_fixed_point(make_margin):
    # F(x) = F(x/c) * G(x) to truncation accuracy, across dimensions,
    # margins, and copulas; light-tailed margins end the product within
    # a few factors
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        c = tuple(rng.random(d) * 0.9 + 0.05)
        margins = tuple(make_margin(a) for a in rng.random(d) * 2.0 + 0.5)
        copula = CopulaSpec.gumbel(1.0 + rng.random() * 3) if d > 1 else INDEP
        cfg = ProcessConfig(d, c, margins, copula)
        x = rng.random(d) * 4.0 + 0.5
        lhs = stationary_joint_cdf(cfg, x)
        g = math.exp(
            copula_logcdf(
                copula, np.log([margin_cdf(m, x[j]) for j, m in enumerate(margins)])
            )
        )
        rhs = stationary_joint_cdf(cfg, x / np.asarray(c)) * g
        assert abs(lhs - rhs) <= 1e-11


def test_stationary_joint_inf_marginalizes_exactly():
    # x_j = inf gives G a factor of one in component j and log u_j = 0 in
    # the exchangeable copulas, which is the law of the other components
    margins = (
        FRECHET1,
        MarginSpec.exponential(1.0),
        MarginSpec.gpd(0.2, 1.0),
        MarginSpec.weibull_min(2.0),
    )
    c = (0.5, 0.7, 0.3, 0.9)
    x = np.array([1.5, 0.8, 2.0, 1.1])
    for copula in (CopulaSpec.gumbel(2.0), INDEP, CopulaSpec.comonotone()):
        cfg = ProcessConfig(4, c, margins, copula)
        for cols in ((0, 1), (3, 1), (2, 3), (0, 2, 3), (1,)):
            sub = ProcessConfig(
                len(cols),
                tuple(c[j] for j in cols),
                tuple(margins[j] for j in cols),
                copula,
            )
            full = np.full(4, math.inf)
            full[list(cols)] = x[list(cols)]
            assert stationary_joint_logcdf(cfg, full) == stationary_joint_logcdf(
                sub, x[list(cols)]
            )


def test_stationary_joint_batch_matches_rows():
    # each row of an (m, d) batch stops at its own factor, so the batch
    # equals the one-point calls exactly: rows needing about 40 to 140
    # factors, rows ending at -inf (x_j = 0, and an underflowing G), and
    # rows with components marginalized out at inf
    cfg = ProcessConfig(
        3,
        (0.5, 0.9, 0.3),
        (FRECHET1, MarginSpec.frechet(2.0), MarginSpec.exponential(1.0)),
        CopulaSpec.gumbel(2.0),
    )
    x = np.array(
        [
            [1.0, 2.0, 0.5],
            [50.0, 30.0, 3.0],
            [0.3, 0.5, 0.2],
            [1.0, 0.0, 2.0],
            [0.01, 0.02, 0.1],
            [math.inf, 1.5, math.inf],
            [2.0, math.inf, 0.7],
            [math.inf, math.inf, math.inf],
        ]
    )
    batch = stationary_joint_logcdf(cfg, x)
    rows = [stationary_joint_logcdf(cfg, row) for row in x]
    assert isinstance(batch, np.ndarray) and batch.shape == (len(x),)
    assert all(isinstance(v, float) for v in rows)
    assert batch.tolist() == rows
    assert rows[3] == rows[4] == -math.inf and rows[7] == 0.0
    assert stationary_joint_logcdf(cfg, x[:0]).shape == (0,)
    # numpy's exp may differ from libm's by an ulp
    assert stationary_joint_cdf(cfg, x).tolist() == pytest.approx(
        [math.exp(v) for v in rows], rel=1e-15, abs=0.0
    )


def test_stationary_joint_validation():
    cfg = d1_config()
    with pytest.raises(ValueError):
        stationary_joint_logcdf(cfg, [1.0, 2.0])  # wrong shape
    with pytest.raises(ValueError):
        stationary_joint_logcdf(cfg, [[[1.0]]])
    with pytest.raises(ConfigurationError):
        # force non-convergence by starving the factor budget
        stationary_joint_cdf(d1_config(c=0.99), [1.0], max_terms=100)


def test_stationary_marginal_quantile_round_trip():
    cases = [
        (FRECHET1, 0.5),
        (MarginSpec.exponential(1.0), 0.5),
        (MarginSpec.uniform01(), 0.3),
        (MarginSpec.gpd(0.5, 1.0), 0.6),
        (MarginSpec.weibull_min(1.5), 0.4),
    ]
    for margin, c in cases:
        for p in (0.1, 0.5, 0.9):
            q = stationary_marginal_quantile(margin, c, p)
            assert math.exp(stationary_marginal_logcdf(margin, c, q)) == pytest.approx(
                p, abs=1e-9
            )


def test_stationary_marginal_quantile_memoised():
    # the root-find runs once per (margin, c, p, trunc_tol); a repeated
    # request is a cache hit returning the identical float
    margin = MarginSpec.gpd(0.3, 2.0)
    first = stationary_marginal_quantile(margin, 0.6, 0.95)
    hits = armax._stationary_quantile.cache_info().hits
    again = stationary_marginal_quantile(margin, 0.6, 0.95)
    assert armax._stationary_quantile.cache_info().hits == hits + 1
    assert isinstance(again, float) and again == first
    # the validation runs on every call, before the cache
    for _ in range(2):
        with pytest.raises(ValueError):
            stationary_marginal_quantile(margin, 1.6, 0.95)
        with pytest.raises(ValueError):
            stationary_marginal_quantile(margin, 0.6, 1.0)


def test_stationary_marginal_quantile_validation():
    with pytest.raises(ValueError):
        stationary_marginal_quantile(FRECHET1, 1.5, 0.5)
    with pytest.raises(ValueError):
        stationary_marginal_quantile(FRECHET1, 0.5, 0.0)
    with pytest.raises(ValueError):
        stationary_marginal_quantile(FRECHET1, 0.5, 1.0)


# ----------------------------------------------------------- normalized levels


def test_normalized_level_closed_form():
    u = normalized_level(0.5, 100, 1.0)
    assert u == pytest.approx(-1.0 / (0.5 * math.log(0.99)), abs=1e-9)
    assert u == pytest.approx(199.0, abs=0.01)
    assert normalized_level(0.5, 100, 0.0) == math.inf


def test_normalized_level_scaling():
    # n (1 - F(u / c)) approaches tau * c for a unit-Frechet margin
    n, c, tau = 10**6, 0.5, 1.0
    u = normalized_level(c, n, tau)
    assert n * (1.0 - stationary_marginal_cdf(c, u / c)) == pytest.approx(
        tau * c, abs=1e-4
    )


def test_normalized_level_validation():
    with pytest.raises(ValueError):
        normalized_level(0.5, 100, 100.0)  # tau >= n
    with pytest.raises(ValueError):
        normalized_level(0.5, 100, -1.0)
    with pytest.raises(ValueError):
        normalized_level(0.5, 0, 1.0)
    with pytest.raises(ValueError):
        normalized_level(1.2, 100, 1.0)
