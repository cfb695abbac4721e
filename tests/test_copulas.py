"""Tests for copula evaluation, sampling, and the ratio construction."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau, kstest

from armax_extremes import copulas
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
from armax_extremes.errors import NumericLimitError

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
    # log 0 = -inf gives C = +0.0 in every family, one column and
    # gamma = 1 included, and in derived copulas
    specs = [GUMBEL2, INDEP, COMONO, CopulaSpec.gumbel(1.0), DerivedCopula(GUMBEL2, (0.5, 1.0, 0.3))]
    for spec in specs:
        for u in ([0.0, 0.7, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [5e-324, 0.0, 0.2]):
            assert copula_eval(spec, u).hex() == (0.0).hex()
        if not isinstance(spec, DerivedCopula):
            assert copula_eval(spec, [0.0]).hex() == (0.0).hex()


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
    # one checked entry: derived_copula_logcdf is copula_logcdf, and so
    # evaluates a base copula too
    for spec in specs:
        assert derived_copula_logcdf(spec, log_u).tolist() == copula_logcdf(spec, log_u).tolist()
        assert [derived_copula_logcdf(spec, row) for row in log_u] == copula_logcdf(spec, log_u).tolist()


def test_logcdf_comonotone_is_min():
    log_u = np.log([0.2, 0.9, 0.4])
    assert copula_logcdf(COMONO, log_u) == float(np.min(log_u))


@pytest.mark.parametrize("log_u", [[-0.0, 0.0], [0.0, -0.0], [-0.0]])
def test_logcdf_comonotone_zero_is_positive_in_any_argument_order(log_u):
    # the minimum of 0.0 and -0.0 is 0.0 whichever comes first
    assert math.copysign(1.0, copula_logcdf(COMONO, log_u)) == 1.0


def _np_sum_logcdf(spec, log_u):
    """`copulas._base_logcdf` with its row sums and maxima taken by
    ``np.sum`` and ``np.max``."""
    if spec.kind == "comonotone":
        return np.min(log_u, axis=1) + 0.0
    if spec.kind == "independence" or spec.gamma == 1.0:
        return np.sum(log_u, axis=1)
    s = -log_u
    m = np.max(s, axis=1)
    with np.errstate(invalid="ignore"):
        norm = m * np.sum((s / m[:, None]) ** spec.gamma, axis=1) ** (1.0 / spec.gamma)
    return -np.where((m == 0.0) | (m == np.inf), m + 0.0, norm)


@pytest.mark.parametrize("d", range(1, 8))
def test_base_logcdf_keeps_the_bits_of_np_sum_up_to_d7(d):
    # the left-to-right sums start at 0.0 + column 0, as np.sum's do for
    # d <= 7: a row of -0.0 sums to 0.0, not -0.0
    rng = np.random.default_rng(d)
    special = [0.0, -0.0, -math.inf, -5e-324, -1e-310, -1.0, -0.3, -1e16, -1e-16]
    log_u = np.concatenate(
        (
            rng.choice(special, size=(4000, d)),
            -rng.random((1000, d)) * 10.0 ** rng.integers(-20, 20, size=(1000, d)),
            np.full((1, d), -0.0),
        )
    )
    for spec in BASE_SPECS + [CopulaSpec.gumbel(3.0)]:
        got = copulas._base_logcdf(spec, log_u)
        assert np.array_equal(got.view(np.int64), _np_sum_logcdf(spec, log_u).view(np.int64)), spec
        one = copula_logcdf(spec, log_u[-1])
        assert one.hex() == _np_sum_logcdf(spec, log_u[-1:])[0].hex(), spec
    assert math.copysign(1.0, copula_logcdf(INDEP, [-0.0, -0.0])) == 1.0


# gamma 3 makes (-0.0)**gamma = -0.0 in the Gumbel norm
_MARGINALIZED_SPECS = st.sampled_from(
    [CopulaSpec.gumbel(1.5), GUMBEL2, CopulaSpec.gumbel(3.0), INDEP, COMONO]
)


@st.composite
def _marginalized_batches(draw):
    d = draw(st.integers(1, 12), label="d")
    kept = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d).filter(any), label="kept"))
    m = draw(st.integers(1, 20), label="m")
    # the arguments left in are logs of uniforms, whose sums round, and
    # a few -inf, subnormal or huge ones
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    values = np.log(rng.random((m, d))) * 10.0 ** rng.integers(-3, 4, size=(m, d))
    special = st.sampled_from([-math.inf, -5e-324, -1e-310, -1e300])
    for k, v in draw(st.lists(st.tuples(st.integers(0, m * d - 1), special), max_size=3)):
        values.flat[k] = v
    zeros = rng.choice([0.0, -0.0], size=(m, d))
    return draw(_MARGINALIZED_SPECS, label="spec"), np.where(kept, values, zeros), kept


@settings(max_examples=300)
@given(_marginalized_batches())
def test_logcdf_arguments_at_one_are_marginalized_exactly(case):
    # log u_j = +-0.0 leaves the copula of the other arguments as it is,
    # bit for bit, for every d; a pairwise sum of 8 or more columns
    # would not
    spec, log_u, kept = case
    full = copula_logcdf(spec, log_u)
    restricted = copula_logcdf(spec, log_u[:, kept])
    assert np.array_equal(full.view(np.int64), restricted.view(np.int64))
    assert copula_logcdf(spec, log_u[0]).hex() == copula_logcdf(spec, log_u[0, kept]).hex()


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
    with pytest.raises(ValueError, match=r"non-empty \(d,\) or \(m, d\) array"):
        copula_logcdf(GUMBEL2, np.zeros((2, 2, 2)))


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
    # drawn into a given array, as a row of a batch buffer
    rows = np.zeros((3, 10, 2))
    row = rows[1]
    assert copula_sample(GUMBEL2, 2, np.random.default_rng(5), size=10, out=row) is row
    assert np.array_equal(rows[1], a) and not rows[[0, 2]].any()
    for out in (np.empty((10, 3)), np.empty(20), np.empty((1, 10, 2))):
        with pytest.raises(ValueError, match=r"^out must have shape \(10, 2\)$"):
            copula_sample(GUMBEL2, 2, np.random.default_rng(5), size=10, out=out)


@pytest.mark.parametrize("gamma", [1.001, 1.01, 200.0, 1000.0])
def test_gumbel_sample_near_one_and_at_large_gamma(gamma):
    # the direct frailty form is 0/0 near gamma = 1 and leaves the float
    # range at large gamma; those rows are drawn in log space
    n = 20_000
    s = copula_sample(CopulaSpec.gumbel(gamma), 2, np.random.default_rng(1), size=n)
    # no draw at the clip bounds, which only a nan or a 0/inf frailty hits
    assert np.all((s > 1e-300) & (s < 1.0 - 1e-16))
    for j in range(2):
        assert kstest(s[:, j], "uniform").pvalue >= 0.01
    # four standard errors of Kendall's tau under independence, which
    # bound its spread at any gamma
    se = math.sqrt(2.0 * (2 * n + 5) / (9.0 * n * (n - 1)))
    tau = kendalltau(s[:, 0], s[:, 1]).statistic
    assert abs(tau - (1.0 - 1.0 / gamma)) <= 4.0 * se


@pytest.mark.parametrize("gamma", [1.01, 1.5, 2.0, 50.0, 200.0])
def test_gumbel_sample_keeps_the_direct_form_where_it_is_finite(gamma):
    # the positive-stable frailty S from a uniform angle and an
    # exponential, then U_j = exp(-(E_j / S)**alpha), clipped
    rng = np.random.default_rng(6)
    alpha = 1.0 / gamma
    v = rng.random(5000) * math.pi
    w = rng.exponential(size=5000)
    e = rng.exponential(size=(5000, 3))
    ratio = alpha / (1.0 - alpha)
    with np.errstate(all="ignore"):
        a = (np.sin(alpha * v) ** ratio) * np.sin((1.0 - alpha) * v) / np.sin(v) ** (1.0 + ratio)
        q = e / ((a / w) ** (1.0 / ratio))[:, None]
        direct = np.clip(np.exp(-(q**alpha)), 1e-300, 1.0 - 1e-16)
    good = ((q > 0.0) & (q < math.inf)).all(axis=1)
    assert good.any()
    s = copula_sample(CopulaSpec.gumbel(gamma), 3, np.random.default_rng(6), size=5000)
    assert np.array_equal(s[good], direct[good])
    assert np.isfinite(s).all()


def test_gumbel_sample_keeps_the_whole_draw_bits_with_fallback_rows_in_later_blocks():
    # 30 000 rows span several row blocks of the draw; at gamma = 100
    # the direct form fails on a few rows spread over all of them, which
    # take the log-space form; every row has the bits of the whole-array
    # computation
    n, gamma = 30_000, 100.0
    rng = np.random.default_rng(6)
    alpha = 1.0 / gamma
    v = rng.random(n) * math.pi
    w = rng.exponential(size=n)
    e = rng.exponential(size=(n, 3))
    ratio = alpha / (1.0 - alpha)
    with np.errstate(all="ignore"):
        a = (np.sin(alpha * v) ** ratio) * np.sin((1.0 - alpha) * v) / np.sin(v) ** (1.0 + ratio)
        q = e / ((a / w) ** (1.0 / ratio))[:, None]
        expected = np.exp(-(q**alpha))
        bad = ~((q > 0.0) & (q < math.inf)).all(axis=1)
        log_a = (
            ratio * np.log(np.sin(alpha * v[bad]))
            + np.log(np.sin((1.0 - alpha) * v[bad]))
            - (1.0 + ratio) * np.log(np.sin(v[bad]))
        )
        log_s = (log_a - np.log(w[bad])) / ratio
        expected[bad] = np.exp(-np.exp(alpha * (np.log(e[bad]) - log_s[:, None])))
    rows = np.flatnonzero(bad)
    assert 0 < rows.size < 100 and rows[0] < n // 4 and rows[-1] > n - n // 8
    s = copula_sample(CopulaSpec.gumbel(gamma), 3, np.random.default_rng(6), size=n)
    assert s.tobytes() == np.clip(expected, 1e-300, 1.0 - 1e-16).tobytes()


class _ZeroAngles:
    """A generator whose uniforms are all 0: the frailty angle is then 0
    and ``S`` is nan in both the direct and the log form."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def random(self, size):
        return np.zeros(size)

    def exponential(self, size):
        return self._rng.exponential(size=size)


def test_gumbel_sample_refuses_a_frailty_outside_the_float_range():
    with pytest.raises(NumericLimitError, match=r"Gumbel\(2\.0\) frailty"):
        copula_sample(GUMBEL2, 2, _ZeroAngles(), size=4)


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
    with pytest.raises(ValueError, match="^log_u must have 2 columns$"):
        derived_copula_logcdf(dc, np.zeros((4, 3)))
    # a short point is refused, also where a zero entry would give C = 0
    dc3 = DerivedCopula(GUMBEL2, (0.5, 0.7, 0.9))
    for u in ([0.0, 0.5], [0.5, 0.5]):
        for evaluate in (copula_eval, derived_copula_eval):
            with pytest.raises(ValueError, match=r"^u must have shape \(3,\)$"):
                evaluate(dc3, u)


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


@pytest.mark.parametrize("n_points, n_rectangles", [(0, 0), (0, 16), (16, 0), (-1, 16)])
def test_validity_screen_refuses_an_empty_sample(n_points, n_rectangles):
    # a screen of no point or no rectangle checks nothing, so it cannot
    # report a valid copula
    dc = DerivedCopula(GUMBEL2, (1.0, 0.5))
    with pytest.raises(ValueError, match="n_points and n_rectangles must be at least 1"):
        derived_copula_validity(dc, n_points, n_rectangles)
    assert derived_copula_validity(dc, 1, 1).min_rectangle_mass < math.inf


@pytest.mark.parametrize("n_points, n_rectangles", [(1.5, 16), (True, True), (16, 16.0)])
def test_validity_screen_refuses_a_non_integer_size(n_points, n_rectangles):
    dc = DerivedCopula(GUMBEL2, (1.0, 0.5))
    with pytest.raises(ValueError, match="must be an integer"):
        derived_copula_validity(dc, n_points, n_rectangles)
    assert derived_copula_validity(dc, np.int64(16), np.int32(16)).n_points == 16


def _whole_array_validity(dc, n_points, n_rectangles):
    """`derived_copula_validity`'s four measures with every point and
    rectangle corner in one array: the screen before they went in
    blocks."""
    rng = np.random.default_rng(0)
    d = dc.dim
    pts = rng.random((n_points, d))
    pts[: n_points // 4] = pts[: n_points // 4] ** 4
    pts[n_points // 4 : n_points // 2] = 1.0 - pts[n_points // 4 : n_points // 2] ** 4

    def cdf(u):
        with np.errstate(divide="ignore"):
            return np.exp(copulas._derived_logcdf(dc, np.log(u)))

    c = cdf(pts)
    lower = np.maximum(np.sum(pts, axis=1) - (d - 1), 0.0)
    p = np.repeat(np.linspace(0.05, 0.95, 19), d)
    margin_pts = np.ones((p.size, d))
    margin_pts[np.arange(p.size), np.tile(np.arange(d), 19)] = p
    draws = rng.random((n_rectangles, 2, d))
    a = draws[:, 0]
    b = a + draws[:, 1] * (1.0 - a)
    corners = np.array(list(itertools.product((False, True), repeat=d)))
    signs = (-1.0) ** (d - corners.sum(axis=1))
    corner_pts = np.where(corners, b[:, None, :], a[:, None, :])
    vals = cdf(corner_pts.reshape(-1, d)).reshape(n_rectangles, len(corners))
    masses = np.cumsum(signs * vals, axis=1)[:, -1]
    return [
        float(np.max(lower - c, initial=0.0)),
        float(np.max(c - np.min(pts, axis=1), initial=0.0)),
        float(np.max(np.abs(cdf(margin_pts) - p), initial=0.0)),
        float(np.min(masses, initial=math.inf)),
    ]


@st.composite
def _screen_cases(draw):
    base = draw(st.sampled_from([INDEP, COMONO]) | st.floats(1.0, 6.0).map(CopulaSpec.gumbel), label="base")
    d = draw(st.integers(2, 6), label="d")
    theta = draw(st.lists(st.just(1.0) | st.floats(0.05, 1.0), min_size=d, max_size=d), label="theta")
    # rectangles per block of `_CORNER_BLOCK` corner rows
    block = max(1, copulas._CORNER_BLOCK // 2**d)
    sizes = st.sampled_from([max(1, block - 1), block, block + 1, 1, 2048, 5000])
    return DerivedCopula(base, theta), draw(sizes, label="n_points"), draw(sizes, label="n_rectangles")


@settings(max_examples=25, deadline=None)
@given(_screen_cases())
def test_validity_screen_in_blocks_equals_the_whole_array_screen(case):
    dc, n_points, n_rectangles = case
    report = derived_copula_validity(dc, n_points, n_rectangles)
    expected = _whole_array_validity(dc, n_points, n_rectangles)
    measures = [
        report.max_lower_violation,
        report.max_upper_violation,
        report.max_margin_violation,
        report.min_rectangle_mass,
    ]
    assert [v.hex() for v in measures] == [v.hex() for v in expected]
    lower, upper, margin, mass = expected
    assert report.valid == (lower <= 1e-9 and upper <= 1e-9 and margin <= 1e-9 and mass >= -1e-9)


@pytest.mark.parametrize("n_points", [1, 2047, 2048, 2049, 8192])
@pytest.mark.parametrize(
    "dc",
    [
        DerivedCopula(GUMBEL2, (0.5, 0.7, 0.9)),
        DerivedCopula(GUMBEL2, (1.0, 0.5)),
        DerivedCopula(COMONO, (0.3, 0.6, 0.9, 1.0)),
    ],
    ids=["gumbel-d3", "gumbel-d2-invalid", "comonotone-d4"],
)
def test_validity_points_in_blocks_equal_the_whole_array_points(dc, n_points):
    # the points go in blocks of `_CORNER_BLOCK` rows: one block up to
    # 2048 points, a last block of one at 2049, four at 8192
    report = derived_copula_validity(dc, n_points, 64)
    measures = [
        report.max_lower_violation,
        report.max_upper_violation,
        report.max_margin_violation,
        report.min_rectangle_mass,
    ]
    expected = _whole_array_validity(dc, n_points, 64)
    assert [v.hex() for v in measures] == [v.hex() for v in expected]


@pytest.mark.parametrize("size, bound_mb", [(2048, 1.0), (8192, 2.0)])
def test_validity_screen_memory_peak_is_bounded(size, bound_mb):
    # with every point and rectangle corner in one array the peaks were
    # 2.9 and 11.4 MB; blocks of points and of corners leave 0.6 and
    # 1.0 MB, most of it the points and the rectangle draws at 8192
    dc = DerivedCopula(GUMBEL2, (0.5, 0.7, 0.9))
    derived_copula_validity(dc, size, size)
    tracemalloc.start()
    try:
        derived_copula_validity(dc, size, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


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
    with pytest.raises(ValueError, match="m must be an integer"):
        extremal_coefficient(2.0, 2.5)
    with pytest.raises(ValueError):
        extremal_coefficient_derived(2.0, ())
    with pytest.raises(ValueError):
        extremal_coefficient_derived(2.0, (0.5, 1.5))
    # the parameters CopulaSpec and DerivedCopula refuse, with their messages
    for gamma in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="gumbel copula requires finite gamma >= 1"):
            extremal_coefficient(gamma, 2)
        with pytest.raises(ValueError, match="gumbel copula requires finite gamma >= 1"):
            extremal_coefficient_derived(gamma, (0.5, 0.5))
    for theta in ((0.5, math.nan), (), [[0.5, 0.5]], 0.5):
        with pytest.raises(ValueError, match="theta"):
            extremal_coefficient_derived(2.0, theta)
        with pytest.raises(ValueError, match="theta"):
            DerivedCopula(GUMBEL2, theta)
