"""Tests for copula evaluation, sampling, and the ratio construction."""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import kendalltau

from armax_extremes.copulas import (
    CopulaSpec,
    DerivedCopula,
    copula_eval,
    copula_logcdf,
    copula_sample,
    derived_copula_eval,
    derived_copula_logcdf,
    derived_copula_validity,
    extremal_coefficient,
    extremal_coefficient_derived,
)

GUMBEL2 = CopulaSpec.gumbel(2.0)
INDEP = CopulaSpec.independence()
COMONO = CopulaSpec.comonotone()

BASE_SPECS = [
    CopulaSpec.gumbel(1.0),
    CopulaSpec.gumbel(1.5),
    GUMBEL2,
    CopulaSpec.gumbel(5.0),
    INDEP,
    COMONO,
]


# ---------------------------------------------------------------- evaluation


def test_eval_point_values():
    assert copula_eval(CopulaSpec.gumbel(1.0), [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)
    e1 = math.exp(-1.0)
    assert copula_eval(GUMBEL2, [e1, e1]) == pytest.approx(math.exp(-math.sqrt(2.0)), abs=1e-15)
    assert copula_eval(COMONO, [0.3, 0.8, 0.5]) == 0.3
    assert copula_eval(INDEP, [0.3, 0.8, 0.5]) == pytest.approx(0.12, abs=1e-15)


def test_gumbel_gamma_one_is_exactly_independence():
    rng = np.random.default_rng(3)
    g1 = CopulaSpec.gumbel(1.0)
    for _ in range(50):
        u = rng.random(3)
        assert copula_eval(g1, u) == copula_eval(INDEP, u)


def test_univariate_copula_is_identity():
    for spec in BASE_SPECS:
        for u in (0.05, 0.5, 0.999):
            assert copula_eval(spec, [u]) == pytest.approx(u, abs=1e-15)


def test_uniform_margins():
    # all-but-one coordinate at 1 returns the remaining coordinate
    for spec in BASE_SPECS:
        for p in (0.1, 0.5, 0.9):
            for j in range(3):
                u = np.ones(3)
                u[j] = p
                assert copula_eval(spec, u) == pytest.approx(p, abs=1e-12)


def test_frechet_hoeffding_bounds():
    rng = np.random.default_rng(10)
    pts = rng.random((10_000, 3))
    for spec in BASE_SPECS:
        for u in pts[:2_000]:
            c = copula_eval(spec, u)
            assert c >= max(float(u.sum()) - 2.0, 0.0) - 1e-12
            assert c <= float(u.min()) + 1e-12


def test_eval_nondecreasing_componentwise():
    rng = np.random.default_rng(11)
    for spec in BASE_SPECS:
        for _ in range(200):
            lo = rng.random(2) * 0.9
            hi = lo + rng.random(2) * (1.0 - lo)
            assert copula_eval(spec, hi) >= copula_eval(spec, lo) - 1e-14


def test_base_rectangle_masses_nonnegative():
    rng = np.random.default_rng(12)
    for spec in BASE_SPECS:
        for _ in range(500):
            a = rng.random(2)
            b = a + rng.random(2) * (1.0 - a)
            mass = (
                copula_eval(spec, b)
                - copula_eval(spec, [a[0], b[1]])
                - copula_eval(spec, [b[0], a[1]])
                + copula_eval(spec, a)
            )
            assert mass >= -1e-12


def test_zero_coordinate_gives_zero():
    assert copula_eval(GUMBEL2, [0.0, 0.7]) == 0.0
    assert copula_eval(COMONO, [0.4, 0.0]) == 0.0


def test_logcdf_matches_eval():
    rng = np.random.default_rng(13)
    for spec in BASE_SPECS:
        u = rng.random(4) * 0.98 + 0.01
        assert math.exp(copula_logcdf(spec, np.log(u))) == pytest.approx(
            copula_eval(spec, u), rel=1e-14
        )


def test_logcdf_batch_matches_rows():
    rng = np.random.default_rng(16)
    log_u = np.log(rng.random((50, 3)))
    log_u[0] = 0.0
    log_u[1, 2] = -math.inf
    specs = [GUMBEL2, INDEP, COMONO, DerivedCopula(GUMBEL2, (0.5, 0.7, 0.9))]
    for spec in specs:
        batch = copula_logcdf(spec, log_u)
        assert batch.shape == (50,)
        assert batch.tolist() == [copula_logcdf(spec, row) for row in log_u]
    dc = specs[-1]
    assert derived_copula_logcdf(dc, log_u).tolist() == [
        derived_copula_logcdf(dc, row) for row in log_u
    ]


def test_logcdf_comonotone_is_min():
    log_u = np.log([0.2, 0.9, 0.4])
    assert copula_logcdf(COMONO, log_u) == float(np.min(log_u))


def test_eval_input_validation():
    with pytest.raises(ValueError):
        copula_eval(GUMBEL2, [])
    with pytest.raises(ValueError):
        copula_eval(GUMBEL2, [0.5, 1.2])
    with pytest.raises(ValueError):
        copula_eval(GUMBEL2, [-0.1, 0.5])
    with pytest.raises(ValueError):
        copula_eval(GUMBEL2, [0.5, float("nan")])
    with pytest.raises(ValueError):
        copula_logcdf(GUMBEL2, [0.1, -0.5])  # positive log_u entry


def test_spec_validation():
    with pytest.raises(ValueError):
        CopulaSpec("clayton")
    with pytest.raises(ValueError):
        CopulaSpec.gumbel(0.9)
    with pytest.raises(ValueError):
        CopulaSpec.gumbel(float("nan"))
    with pytest.raises(ValueError):
        CopulaSpec("independence", gamma=2.0)
    with pytest.raises(ValueError):
        CopulaSpec("comonotone", gamma=1.0)


# ------------------------------------------------------------------ sampling


def test_comonotone_sample_has_equal_coordinates():
    rng = np.random.default_rng(20)
    s = copula_sample(COMONO, 4, rng, size=100)
    assert np.all(s == s[:, [0]])


def test_independence_sample_kendall_tau():
    rng = np.random.default_rng(124)
    s = copula_sample(INDEP, 2, rng, size=10_000)
    tau = kendalltau(s[:, 0], s[:, 1]).statistic
    assert abs(tau) < 0.03


def test_gumbel_sample_empirical_copula():
    # sup-distance between the empirical copula of 1e5 draws and the
    # closed form, over a 9x9 grid
    rng = np.random.default_rng(123)
    s = copula_sample(GUMBEL2, 2, rng, size=100_000)
    grid = np.linspace(0.1, 0.9, 9)
    worst = 0.0
    for a, b in itertools.product(grid, grid):
        emp = float(np.mean((s[:, 0] <= a) & (s[:, 1] <= b)))
        worst = max(worst, abs(emp - copula_eval(GUMBEL2, [a, b])))
    assert worst < 0.02


def test_gumbel_sample_marginals_uniform():
    rng = np.random.default_rng(21)
    s = copula_sample(CopulaSpec.gumbel(3.0), 2, rng, size=50_000)
    for j in range(2):
        assert abs(float(np.mean(s[:, j])) - 0.5) < 0.01


def test_sample_shapes_and_range():
    rng = np.random.default_rng(22)
    one = copula_sample(GUMBEL2, 3, rng)
    assert one.shape == (3,)
    many = copula_sample(GUMBEL2, 3, rng, size=17)
    assert many.shape == (17, 3)
    assert np.all(many > 0.0) and np.all(many < 1.0)
    with pytest.raises(ValueError):
        copula_sample(GUMBEL2, 0, rng)


def test_sample_deterministic_for_fixed_seed():
    a = copula_sample(GUMBEL2, 2, np.random.default_rng(5), size=10)
    b = copula_sample(GUMBEL2, 2, np.random.default_rng(5), size=10)
    assert np.array_equal(a, b)


# -------------------------------------------------------- ratio construction


def test_derived_theta_all_ones_is_base():
    dc = DerivedCopula(GUMBEL2, (1.0, 1.0))
    u = np.array([0.5, 0.7])
    assert derived_copula_eval(dc, u) == pytest.approx(copula_eval(GUMBEL2, u), abs=1e-15)


def test_derived_equal_theta_reduces_to_base():
    # raising every coordinate to a common power cancels between the
    # numerator and denominator of the ratio
    rng = np.random.default_rng(7)
    dc = DerivedCopula(GUMBEL2, (0.5, 0.5))
    for _ in range(100):
        u = rng.random(2) * 0.98 + 0.01
        assert derived_copula_eval(dc, u) == pytest.approx(
            copula_eval(GUMBEL2, u), abs=1e-14
        )


def test_derived_independence_base_stays_independence():
    rng = np.random.default_rng(8)
    dc = DerivedCopula(INDEP, (0.3, 0.9, 0.6))
    for _ in range(50):
        u = rng.random(3) * 0.98 + 0.01
        assert derived_copula_eval(dc, u) == pytest.approx(float(np.prod(u)), rel=1e-12)


def test_derived_point_oracle():
    # base gumbel(2), theta=(1, 0.5) at u=(0.5, 0.5):
    #   numerator  C(0.5, 0.25) = 2^-sqrt(5), denominator C(1, 0.5) = 2^-1
    dc = DerivedCopula(GUMBEL2, (1.0, 0.5))
    assert derived_copula_eval(dc, [0.5, 0.5]) == 2.0 ** (1.0 - math.sqrt(5.0))


def test_derived_max_stability():
    # C*(u^t) = C*(u)^t holds algebraically for every theta, valid or not
    rng = np.random.default_rng(11)
    for _ in range(100):
        theta = tuple(rng.random(2) * 0.95 + 0.05)
        gamma = 1.0 + rng.random() * 4.0
        dc = DerivedCopula(CopulaSpec.gumbel(gamma), theta)
        u = rng.random(2) * 0.9 + 0.05
        for t in (2.0, 3.0, 7.0):
            assert derived_copula_eval(dc, u**t) == pytest.approx(
                derived_copula_eval(dc, u) ** t, abs=1e-10
            )


def test_derived_zero_coordinate_convention():
    dc = DerivedCopula(GUMBEL2, (1.0, 0.5))
    assert derived_copula_eval(dc, [0.0, 0.5]) == 0.0
    assert derived_copula_eval(dc, [0.5, 0.0]) == 0.0


def test_derived_logcdf_matches_eval():
    dc = DerivedCopula(CopulaSpec.gumbel(1.5), (0.9, 0.95))
    u = np.array([0.3, 0.6])
    assert math.exp(derived_copula_logcdf(dc, np.log(u))) == pytest.approx(
        derived_copula_eval(dc, u), rel=1e-14
    )


def test_derived_validation():
    with pytest.raises(ValueError):
        DerivedCopula(GUMBEL2, ())
    with pytest.raises(ValueError):
        DerivedCopula(GUMBEL2, (0.5, 0.0))
    with pytest.raises(ValueError):
        DerivedCopula(GUMBEL2, (0.5, 1.2))
    with pytest.raises(ValueError):
        DerivedCopula(GUMBEL2, (-0.1, 0.5))
    dc = DerivedCopula(GUMBEL2, (1.0, 0.5))
    with pytest.raises(ValueError):
        derived_copula_eval(dc, [0.5, 0.5, 0.5])  # length mismatch


def test_derived_rectangle_masses_on_screened_instances():
    # 2-increasing is checked only for (base, theta) pairs that the
    # validity report accepts; the ratio rule does not always produce a
    # copula (see test_validity_flags_bad_instance)
    screened = [
        DerivedCopula(INDEP, (0.3, 0.9)),
        DerivedCopula(CopulaSpec.gumbel(1.0), (0.2, 0.7)),
        DerivedCopula(GUMBEL2, (0.5, 0.5)),
        DerivedCopula(CopulaSpec.gumbel(1.5), (0.9, 0.95)),
    ]
    rng = np.random.default_rng(14)
    for dc in screened:
        assert derived_copula_validity(dc).valid
        for _ in range(300):
            a = rng.random(2)
            b = a + rng.random(2) * (1.0 - a)
            mass = (
                derived_copula_eval(dc, b)
                - derived_copula_eval(dc, [a[0], b[1]])
                - derived_copula_eval(dc, [b[0], a[1]])
                + derived_copula_eval(dc, a)
            )
            assert mass >= -1e-12


def test_validity_flags_bad_instance():
    # gumbel(2) with theta=(1, 0.5) breaks the upper Frechet bound and
    # produces negative rectangle masses: the ratio rule output is not a
    # copula here even though it is still max-stable
    report = derived_copula_validity(DerivedCopula(GUMBEL2, (1.0, 0.5)))
    assert not report.valid
    assert report.max_upper_violation > 0.04
    assert report.min_rectangle_mass < -0.04


def test_validity_accepts_independence_base_for_any_theta():
    rng = np.random.default_rng(15)
    for _ in range(5):
        theta = tuple(rng.random(2) * 0.95 + 0.05)
        report = derived_copula_validity(DerivedCopula(CopulaSpec.gumbel(1.0), theta))
        assert report.valid


def test_validity_report_d3_pinned():
    # pins the generator stream order: points first, then one (a, r)
    # pair of draws per rectangle
    report = derived_copula_validity(DerivedCopula(GUMBEL2, (0.5, 0.7, 0.9)))
    assert not report.valid
    assert report.max_lower_violation == 0.0
    assert report.max_upper_violation == pytest.approx(0.021624372979162865, rel=1e-12)
    assert report.min_rectangle_mass == pytest.approx(-0.01292646537781239, rel=1e-12)
    # margins are uniform up to rounding
    assert report.max_margin_violation <= 1e-15


def test_validity_report_is_reproducible():
    dc = DerivedCopula(GUMBEL2, (1.0, 0.5))
    assert derived_copula_validity(dc) == derived_copula_validity(dc)


# -------------------------------------------------------- extremal coefficients


def test_extremal_coefficient_values():
    assert extremal_coefficient(2.0, 2) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert extremal_coefficient(7.3, 1) == 1.0
    assert extremal_coefficient(1.0, 3) == 3.0


def test_extremal_coefficient_derived_values():
    assert extremal_coefficient_derived(2.0, (1.0, 1.0)) == pytest.approx(
        math.sqrt(2.0), abs=1e-15
    )
    # equal theta leaves the coefficient unchanged: sqrt(8) - sqrt(2) = sqrt(2)
    assert extremal_coefficient_derived(2.0, (0.5, 0.5)) == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )
    assert extremal_coefficient_derived(1.0, (1.0, 0.5)) == pytest.approx(2.0, abs=1e-15)


def test_extremal_coefficient_range():
    rng = np.random.default_rng(16)
    for _ in range(100):
        gamma = 1.0 + rng.random() * 6.0
        m = int(rng.integers(1, 6))
        val = extremal_coefficient(gamma, m)
        assert 1.0 - 1e-12 <= val <= m + 1e-12
        theta = tuple(rng.random(m) * 0.95 + 0.05)
        val = extremal_coefficient_derived(gamma, theta)
        assert 1.0 - 1e-12 <= val <= m + 1e-12


def test_extremal_coefficient_validation():
    with pytest.raises(ValueError):
        extremal_coefficient(0.5, 2)
    with pytest.raises(ValueError):
        extremal_coefficient(2.0, 0)
    with pytest.raises(ValueError):
        extremal_coefficient_derived(2.0, ())
    with pytest.raises(ValueError):
        extremal_coefficient_derived(2.0, (0.5, 1.5))
