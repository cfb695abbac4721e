import math

import numpy as np
import pytest
from scipy.stats import kstest

from armax_extremes import (
    ConfigurationError,
    MarginSpec,
    attraction_domain,
    margin_cdf,
    margin_quantile,
    margin_sample,
    right_endpoint,
)


ALL_SPECS = [
    MarginSpec.frechet(1.0),
    MarginSpec.frechet(2.5),
    MarginSpec.exponential(1.0),
    MarginSpec.exponential(0.3),
    MarginSpec.uniform01(),
    MarginSpec.gpd(0.5, 1.0),
    MarginSpec.gpd(0.0, 2.0),
    MarginSpec.gpd(-0.25, 1.0),
    MarginSpec.weibull_min(0.7),
    MarginSpec.weibull_min(2.5),
]


def test_cdf_point_values():
    assert margin_cdf(MarginSpec.frechet(1.0), 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert margin_cdf(MarginSpec.uniform01(), 0.5) == 0.5
    assert margin_cdf(MarginSpec.exponential(1.0), math.log(2.0)) == pytest.approx(0.5, abs=1e-15)
    # an overflow to inf in the power or the product gives the right
    # value, with no RuntimeWarning, which the suite makes an error
    assert margin_cdf(MarginSpec.weibull_min(2.5), 1e300) == 1.0
    assert margin_cdf(MarginSpec.exponential(2.0), 1e308) == 1.0
    assert margin_cdf(MarginSpec.gpd(0.5, 0.5), 1e308) == 1.0
    assert margin_cdf(MarginSpec.gpd(0.0, 0.5), 1e308) == 1.0
    assert margin_cdf(MarginSpec.frechet(0.05), 1e-300) == 0.0


def test_quantile_point_values():
    assert margin_quantile(MarginSpec.frechet(1.0), math.exp(-1.0)) == pytest.approx(1.0, rel=1e-14)
    assert margin_quantile(MarginSpec.uniform01(), 0.25) == 0.25
    assert margin_quantile(MarginSpec.exponential(1.0), 0.5) == pytest.approx(math.log(2.0), rel=1e-14)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_quantile_cdf_round_trip(spec):
    p = np.linspace(0.001, 0.999, 1000)
    back = margin_cdf(spec, margin_quantile(spec, p))
    np.testing.assert_allclose(back, p, atol=1e-12, rtol=0.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_cdf_nondecreasing(spec):
    rng = np.random.default_rng(1)
    x = np.sort(rng.uniform(-2.0, 30.0, size=500))
    f = margin_cdf(spec, x)
    assert np.all(np.diff(f) >= 0.0)
    assert np.all((f >= 0.0) & (f <= 1.0))


def test_cdf_outside_support():
    assert margin_cdf(MarginSpec.frechet(1.0), -1.0) == 0.0
    assert margin_cdf(MarginSpec.frechet(1.0), 0.0) == 0.0
    assert margin_cdf(MarginSpec.uniform01(), 2.0) == 1.0
    assert margin_cdf(MarginSpec.uniform01(), -0.1) == 0.0
    # bounded GPD: unity at and beyond the right endpoint scale/|shape|
    spec = MarginSpec.gpd(-0.5, 1.0)
    assert margin_cdf(spec, 2.0) == 1.0
    assert margin_cdf(spec, 5.0) == 1.0


def _where_cdf(spec, arr):
    """`margin_cdf` as the np.where expressions it was first written as,
    whose bits it keeps."""
    if spec.kind == "frechet":
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(arr <= 0, 0.0, np.exp(-np.power(np.maximum(arr, 1e-300), -spec.alpha)))
    if spec.kind == "exponential":
        return np.where(arr <= 0, 0.0, -np.expm1(-spec.rate * np.maximum(arr, 0.0)))
    if spec.kind == "uniform01":
        return np.clip(arr, 0.0, 1.0)
    if spec.kind == "weibull_min":
        return np.where(arr <= 0, 0.0, -np.expm1(-np.power(np.maximum(arr, 0.0), spec.k)))
    shape, scale = spec.shape, spec.scale
    if abs(shape) < 1e-12:
        return np.where(arr <= 0, 0.0, -np.expm1(-np.maximum(arr, 0.0) / scale))
    z = np.maximum(arr, 0.0) / scale
    inner = np.maximum(1.0 + shape * z, 0.0)
    with np.errstate(divide="ignore"):
        out = np.where(arr <= 0, 0.0, -np.expm1(np.log(np.maximum(inner, 1e-300)) * (-1.0 / shape)))
    if shape < 0:
        out = np.where(arr >= -scale / shape, 1.0, out)
    return out


# 0 of both signs, negatives, infinities, nan, subnormals, values around
# the GPD(-0.25, 1) and GPD(-2, 0.5) endpoints 4 and 0.25, and values
# whose Frechet or Weibull powers overflow or underflow
_CDF_EDGES = np.concatenate(
    [
        [0.0, -0.0, -1.0, -1e300, -math.inf, math.inf, math.nan, 5e-324, 1e-310, -1e-310],
        [4.0, np.nextafter(4.0, 0.0), 4.5, 0.25, 0.3, 1e-300, 1e-200, 1e200, 1e300],
        np.geomspace(1e-6, 1e6, 41),
        np.linspace(0.0, 1.0, 11),
    ]
)


@pytest.mark.parametrize(
    "spec",
    ALL_SPECS + [MarginSpec.gpd(-2.0, 0.5), MarginSpec.gpd(1e-13, 1.5), MarginSpec.frechet(0.05)],
    ids=str,
)
def test_cdf_keeps_the_bits_of_the_where_expressions(spec):
    def bits(a):
        return np.asarray(a, dtype=float).view(np.int64)

    with np.errstate(over="ignore"):  # the Weibull power overflows at 1e300
        expected = _where_cdf(spec, _CDF_EDGES)
        assert np.array_equal(bits(margin_cdf(spec, _CDF_EDGES)), bits(expected))
        # 0-d inputs give floats
        for v, e in zip(_CDF_EDGES.tolist(), expected.tolist()):
            value = margin_cdf(spec, v)
            assert isinstance(value, float) and value.hex() == e.hex()
            assert bits(margin_cdf(spec, np.array(v))) == bits(e)
        # a strided column, as the product kernel passes
        block = np.full((_CDF_EDGES.size, 3), 7.0)
        block[:, 1] = _CDF_EDGES
        assert np.array_equal(bits(margin_cdf(spec, block[:, 1])), bits(expected))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_cdf_keeps_nan(spec):
    # nan is not a point below the support, so it must not read as 0
    x = np.array([math.nan, -1.0, 0.0, 0.5, 2.0, math.inf])
    f = margin_cdf(spec, x)
    assert math.isnan(margin_cdf(spec, math.nan))
    assert np.isnan(f[0])
    assert np.array_equal(f[1:], margin_cdf(spec, x[1:]))


def test_attraction_domains():
    assert attraction_domain(MarginSpec.frechet(2.0)).kind == "frechet"
    assert attraction_domain(MarginSpec.frechet(2.0)).alpha == 2.0
    assert attraction_domain(MarginSpec.exponential(1.0)).kind == "gumbel"
    assert attraction_domain(MarginSpec.uniform01()).kind == "weibull"
    assert attraction_domain(MarginSpec.weibull_min(1.7)).kind == "gumbel"
    # GPD splits on the sign of the shape, with alpha = 1/shape on the heavy side
    dom = attraction_domain(MarginSpec.gpd(0.25, 1.0))
    assert dom.kind == "frechet" and dom.alpha == pytest.approx(4.0, rel=1e-15)
    assert attraction_domain(MarginSpec.gpd(0.0, 1.0)).kind == "gumbel"
    assert attraction_domain(MarginSpec.gpd(-0.25, 1.0)).kind == "weibull"
    # shapes inside the zero tolerance are treated as exponential
    assert attraction_domain(MarginSpec.gpd(5e-13, 1.0)).kind == "gumbel"


def test_is_frechet_property():
    assert attraction_domain(MarginSpec.frechet(1.0)).is_frechet
    assert not attraction_domain(MarginSpec.exponential(1.0)).is_frechet
    assert not attraction_domain(MarginSpec.uniform01()).is_frechet


def test_right_endpoints():
    assert right_endpoint(MarginSpec.frechet(1.0)) == math.inf
    assert right_endpoint(MarginSpec.exponential(2.0)) == math.inf
    assert right_endpoint(MarginSpec.gpd(0.5, 1.0)) == math.inf
    assert right_endpoint(MarginSpec.gpd(0.0, 1.0)) == math.inf
    assert right_endpoint(MarginSpec.uniform01()) == 1.0
    assert right_endpoint(MarginSpec.gpd(-0.5, 1.0)) == pytest.approx(2.0, rel=1e-15)
    assert right_endpoint(MarginSpec.weibull_min(2.0)) == math.inf


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_sampling_matches_cdf(spec):
    rng = np.random.default_rng(42)
    x = margin_sample(spec, rng, size=100_000)
    res = kstest(x, lambda v: margin_cdf(spec, v))
    assert res.pvalue > 0.01


def test_sample_is_inverse_transform():
    # a seeded stream drives the quantile function directly
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    spec = MarginSpec.frechet(1.5)
    x = margin_sample(spec, rng1, size=100)
    u = rng2.random(100)
    np.testing.assert_array_equal(x, margin_quantile(spec, np.clip(u, 1e-300, 1.0 - 1e-16)))


def test_uniform_sample_mean():
    rng = np.random.default_rng(5)
    x = margin_sample(MarginSpec.uniform01(), rng, size=100_000)
    assert abs(x.mean() - 0.5) < 0.01


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        MarginSpec.frechet(0.0)
    with pytest.raises(ConfigurationError):
        MarginSpec.frechet(-1.0)
    with pytest.raises(ConfigurationError):
        MarginSpec.exponential(0.0)
    with pytest.raises(ConfigurationError):
        MarginSpec.gpd(0.1, -2.0)
    with pytest.raises(ConfigurationError):
        MarginSpec.weibull_min(0.0)
    refusals = [
        (lambda: MarginSpec("frechet"), "margin 'frechet' requires alpha"),
        (lambda: MarginSpec("gpd", scale=1.0), "margin 'gpd' requires shape"),
        (lambda: MarginSpec.frechet(math.inf), "margin 'frechet': alpha must be finite"),
        (lambda: MarginSpec.gpd(math.inf, 1.0), "margin 'gpd': shape must be finite"),
        (lambda: MarginSpec.gpd(-math.inf, 1.0), "margin 'gpd': shape must be finite"),
        (lambda: MarginSpec("exponential", rate=1.0, alpha=2.0), "margin 'exponential' does not take alpha"),
        (lambda: MarginSpec("uniform01", k=1.0), "margin 'uniform01' does not take k"),
    ]
    for make, message in refusals:
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            make()


def test_quantile_domain_errors():
    for p in (-0.1, 0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            margin_quantile(MarginSpec.frechet(1.0), p)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_quantile_refuses_nan(spec):
    # a nan level is refused like 0 and 1, alone or in an array
    with pytest.raises(ValueError, match="strictly inside"):
        margin_quantile(spec, math.nan)
    with pytest.raises(ValueError, match="strictly inside"):
        margin_quantile(spec, np.array([0.25, math.nan, 0.75]))


def _written_quantile(spec, p):
    """Each quantile formula as one expression, the reference for the
    in-place chains of `margin_quantile`."""
    with np.errstate(divide="ignore", over="ignore"):
        if spec.kind == "frechet":
            return np.power(-np.log(p), -1.0 / spec.alpha)
        if spec.kind == "exponential":
            return -np.log1p(-p) / spec.rate
        if spec.kind == "uniform01":
            return p.copy()
        if spec.kind == "gpd":
            log_sf = np.log1p(-p)
            if spec.shape == 0.0:
                return -spec.scale * log_sf
            return spec.scale * np.expm1(-spec.shape * log_sf) / spec.shape
        return np.power(-np.log1p(-p), 1.0 / spec.k)


# scales that are not powers of two, so the order of the steps shows
_SCALED_SPECS = [MarginSpec.exponential(1e300), MarginSpec.gpd(0.3, 1.7), MarginSpec.gpd(-0.3, 0.7)]


@pytest.mark.parametrize("spec", ALL_SPECS + _SCALED_SPECS, ids=str)
def test_quantile_out_equals_the_written_formula_bit_for_bit(spec):
    # the batch transform of a simulation: in place over column j of a
    # (K, rows, d) block, a strided view; and into a new array
    rng = np.random.default_rng(11)
    block = np.clip(rng.random((3, 500, 2)), 1e-300, 1.0 - 1e-16)
    block[0, :4, :] = [[1e-300, 1e-300], [1.0 - 1e-16, 0.5], [1e-17, 0.25], [0.75, 1e-200]]
    expected = [_written_quantile(spec, np.ascontiguousarray(block[k, :, 1])) for k in range(3)]
    fresh = margin_quantile(spec, block[:, :, 1])
    column = block[:, :, 1]
    assert margin_quantile(spec, column, out=column) is column
    for k in range(3):
        for got in (fresh[k], block[k, :, 1]):
            assert np.array_equal(got.view(np.int64), expected[k].view(np.int64))
    # a scalar level gives a float, as before
    assert isinstance(margin_quantile(spec, 0.5), float)
