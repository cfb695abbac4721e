"""Innovation margin distributions.

Five parametric families are supported for the innovation law of an
ARMAX process: Frechet, exponential, uniform on (0, 1), generalized
Pareto, and Weibull (minimum convention, ``F(x) = 1 - exp(-x**k)``).
Each margin exposes a CDF, a quantile function, inverse-transform
sampling, its max-domain of attraction, and its right endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "MarginSpec",
    "DomainTag",
    "margin_cdf",
    "margin_quantile",
    "margin_sample",
    "attraction_domain",
    "right_endpoint",
]

_KINDS = ("frechet", "exponential", "uniform01", "gpd", "weibull_min")

# GPD shapes this close to zero collapse to the exponential sub-family so
# that the xi -> 0 limit is continuous instead of a 0/0 evaluation.
GPD_SHAPE_TOL = 1e-12

# the range innovation uniforms are clipped to before a quantile
# transform, keeping the endpoints 0 and 1, whose quantiles may be
# -inf or inf, out of every draw
_UNIFORM_CLIP = (1e-300, 1.0 - 1e-16)


@dataclass(frozen=True)
class MarginSpec:
    """Parametric innovation margin.

    Only the parameters relevant to ``kind`` may be set:

    - ``frechet``: ``alpha > 0``, CDF ``exp(-x**(-alpha))`` on ``x > 0``
    - ``exponential``: ``rate > 0``, CDF ``1 - exp(-rate * x)``
    - ``uniform01``: no parameters, uniform on ``(0, 1)``
    - ``gpd``: ``shape`` (any sign), ``scale > 0``
    - ``weibull_min``: ``k > 0``, CDF ``1 - exp(-x**k)`` on ``x >= 0``
    """

    kind: str
    alpha: float | None = None
    rate: float | None = None
    shape: float | None = None
    scale: float | None = None
    k: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown margin kind {self.kind!r}")
        required = {
            "frechet": ("alpha",),
            "exponential": ("rate",),
            "uniform01": (),
            "gpd": ("shape", "scale"),
            "weibull_min": ("k",),
        }[self.kind]
        for name in ("alpha", "rate", "shape", "scale", "k"):
            value = getattr(self, name)
            if name in required:
                if value is None:
                    raise ConfigurationError(f"margin {self.kind!r} requires {name}")
                if name != "shape" and not value > 0:
                    raise ConfigurationError(f"margin {self.kind!r}: {name} must be positive")
                if not math.isfinite(value):
                    raise ConfigurationError(f"margin {self.kind!r}: {name} must be finite")
            elif value is not None:
                raise ConfigurationError(f"margin {self.kind!r} does not take {name}")

    @classmethod
    def frechet(cls, alpha: float = 1.0) -> "MarginSpec":
        return cls("frechet", alpha=float(alpha))

    @classmethod
    def exponential(cls, rate: float = 1.0) -> "MarginSpec":
        return cls("exponential", rate=float(rate))

    @classmethod
    def uniform01(cls) -> "MarginSpec":
        return cls("uniform01")

    @classmethod
    def gpd(cls, shape: float, scale: float = 1.0) -> "MarginSpec":
        return cls("gpd", shape=float(shape), scale=float(scale))

    @classmethod
    def weibull_min(cls, k: float) -> "MarginSpec":
        return cls("weibull_min", k=float(k))


@dataclass(frozen=True)
class DomainTag:
    """Max-domain of attraction of a margin.

    ``kind`` is one of ``"frechet"``, ``"gumbel"`` or ``"weibull"``;
    ``alpha`` is the regular-variation index and is set only for the
    Frechet domain.
    """

    kind: str
    alpha: float | None = None

    @property
    def is_frechet(self) -> bool:
        return self.kind == "frechet"

    def q(self, c):
        """``c**alpha`` in the Frechet domain, 0 elsewhere: for a
        component with coefficient ``c``, the limiting chance that an
        exceedance of a high level is followed by another, so ``1 - q``
        is its marginal extremal index.  ``c`` may be a float or a numpy
        scalar; the power is the scalar one of its type."""
        return c**self.alpha if self.is_frechet else 0.0


@dataclass(frozen=True)
class TailFacts:
    """Per-component tail facts of a process: each component's
    max-domain, ``q_j`` (`DomainTag.q`) and ``s_j = 1 - q_j``, its
    marginal extremal index."""

    domains: tuple[DomainTag, ...]
    q: tuple[float, ...]
    s: tuple[float, ...]

    @classmethod
    def of(cls, domains, c) -> "TailFacts":
        """The facts of components with these domains and coefficients."""
        q = tuple(dom.q(cj) for dom, cj in zip(domains, c))
        return cls(tuple(domains), q, tuple(1.0 - qj for qj in q))


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def margin_cdf(spec: MarginSpec, x):
    """CDF of ``spec`` at ``x`` (scalar or array); a nan entry gives nan.

    A scalar ``x`` gives a float, an array an array of its shape.  The
    values are those of `_cdf`, under an error state that silences the
    overflow and division warnings of a huge or tiny ``x``.
    """
    arr, scalar = _as_array(x)
    with np.errstate(divide="ignore", over="ignore"):
        out = _cdf(spec, arr)
    return _maybe_scalar(out, scalar)


def _cdf(spec: MarginSpec, arr: np.ndarray) -> np.ndarray:
    """CDF of ``spec`` at the float array ``arr``, as a new array.

    Runs under the caller's error state: `margin_cdf` silences overflow
    and division, and so does the product kernel (`armax._log_product`),
    which calls this once per component and chunk.
    """
    # nan <= 0 is false, so in np.where(arr <= 0, 0.0, ...) a nan entry
    # takes the formula's nan rather than reading as a point below 0; a
    # power or product that overflows to inf gives the right 0 or 1
    if spec.kind == "frechet":
        return np.where(arr <= 0, 0.0, np.exp(-np.power(np.maximum(arr, 1e-300), -spec.alpha)))
    if spec.kind == "exponential":
        return np.where(arr <= 0, 0.0, -np.expm1(-spec.rate * np.maximum(arr, 0.0)))
    if spec.kind == "uniform01":
        return np.clip(arr, 0.0, 1.0)
    if spec.kind == "gpd":
        return _gpd_cdf(spec.shape, spec.scale, arr)
    # weibull_min
    return np.where(arr <= 0, 0.0, -np.expm1(-np.power(np.maximum(arr, 0.0), spec.k)))


def _gpd_cdf(shape: float, scale: float, arr: np.ndarray) -> np.ndarray:
    if abs(shape) < GPD_SHAPE_TOL:
        return np.where(arr <= 0, 0.0, -np.expm1(-np.maximum(arr, 0.0) / scale))
    z = np.maximum(arr, 0.0) / scale
    inner = np.maximum(1.0 + shape * z, 0.0)
    out = np.where(arr <= 0, 0.0, -np.expm1(np.log(np.maximum(inner, 1e-300)) * (-1.0 / shape)))
    if shape < 0:
        # beyond the finite endpoint -scale/shape the CDF is exactly one
        out = np.where(arr >= -scale / shape, 1.0, out)
    return out


def margin_quantile(spec: MarginSpec, p, out=None):
    """Quantile function (inverse CDF) of ``spec`` at ``p`` in (0, 1).

    The endpoints are excluded: every supported margin is continuous and
    strictly increasing on its support, so interior levels are enough, and
    rejecting 0/1 keeps infinities out of downstream recursions.  A nan
    level is refused as well.

    ``out``, a float array of ``p``'s shape (``p`` itself included),
    receives the quantiles and is returned; by default a new array is,
    or a float for a scalar ``p``.
    """
    arr, scalar = _as_array(p)
    # min and max carry a nan through, so it fails both tests as 0 and 1
    # do; `initial` passes an empty array
    if not (arr.min(initial=0.5) > 0 and arr.max(initial=0.5) < 1):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    given = out is not None
    if not given:
        out = np.empty_like(arr)
    # each formula is a chain of in-place steps, in the order of its
    # written form, e.g. (-log(p)) ** (-1/alpha) for the Frechet margin
    with np.errstate(divide="ignore", over="ignore"):
        if spec.kind == "frechet":
            np.log(arr, out=out)
            np.negative(out, out=out)
            np.power(out, -1.0 / spec.alpha, out=out)
        elif spec.kind == "uniform01":
            np.copyto(out, arr)
        else:
            # log(1 - p), the log survival level, for the other three
            np.negative(arr, out=out)
            np.log1p(out, out=out)
            if spec.kind == "gpd":
                _gpd_quantile(spec.shape, spec.scale, out)
            else:
                np.negative(out, out=out)
                if spec.kind == "exponential":
                    np.divide(out, spec.rate, out=out)
                else:  # weibull_min
                    np.power(out, 1.0 / spec.k, out=out)
    return out if given else _maybe_scalar(out, scalar)


def _gpd_quantile(shape: float, scale: float, log_sf: np.ndarray) -> None:
    """``-scale * log_sf``, or ``scale * expm1(-shape * log_sf) / shape``
    away from ``shape = 0``, written over ``log_sf``."""
    if abs(shape) < GPD_SHAPE_TOL:
        np.multiply(log_sf, -scale, out=log_sf)
        return
    np.multiply(log_sf, -shape, out=log_sf)
    np.expm1(log_sf, out=log_sf)
    np.multiply(log_sf, scale, out=log_sf)
    np.divide(log_sf, shape, out=log_sf)


def margin_sample(spec: MarginSpec, rng: np.random.Generator, size=None):
    """Draw from ``spec`` by inverse transform of uniforms from ``rng``.

    A single stream of ``rng.random`` calls is consumed so that sampling
    is reproducible for a fixed generator state.
    """
    return margin_quantile(spec, np.clip(rng.random(size), *_UNIFORM_CLIP))


def attraction_domain(spec: MarginSpec) -> DomainTag:
    """Max-domain of attraction of ``spec``.

    Frechet margins and heavy-tailed GPDs (``shape > 0``) are in the
    Frechet domain with regular-variation index ``alpha``; exponential,
    Weibull-minimum and light-tailed GPD (``shape == 0``) margins, with
    an infinite endpoint and an exponential-type tail, are Gumbel;
    margins with a finite right endpoint are Weibull.
    """
    if spec.kind == "frechet":
        return DomainTag("frechet", alpha=spec.alpha)
    if spec.kind == "uniform01":
        return DomainTag("weibull")
    if spec.kind == "gpd":
        if spec.shape > GPD_SHAPE_TOL:
            return DomainTag("frechet", alpha=1.0 / spec.shape)
        if spec.shape < -GPD_SHAPE_TOL:
            return DomainTag("weibull")
        return DomainTag("gumbel")
    return DomainTag("gumbel")  # exponential, weibull_min


def right_endpoint(spec: MarginSpec) -> float:
    """Supremum of the support of ``spec`` (``inf`` when unbounded)."""
    if spec.kind == "uniform01":
        return 1.0
    if spec.kind == "gpd" and spec.shape < -GPD_SHAPE_TOL:
        return -spec.scale / spec.shape
    return math.inf
