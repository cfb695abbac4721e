"""Innovation copulas and copulas derived from them by the ratio construction.

Three exchangeable base families are provided (Gumbel, independence,
comonotone), all evaluated in log space so that joint CDF products and
extremal-index ratios never round-trip through ``exp``/``log``.  From a
base copula ``C`` and per-component weights ``theta`` in ``(0, 1]`` the
ratio construction

    C*(u) = C(u_1**(1/theta_1), ...) / C(u_1**(1/theta_1 - 1), ...)

builds the joint law of componentwise maxima taken over fractions
``theta_j`` of a sample.  The result is not a copula for every
``(base, theta)`` combination; `derived_copula_validity` checks the
Frechet-Hoeffding bounds and rectangle masses on a random grid before
such an object is trusted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CopulaSpec",
    "DerivedCopula",
    "ValidityReport",
    "copula_logcdf",
    "copula_eval",
    "copula_sample",
    "derived_copula_logcdf",
    "derived_copula_eval",
    "extremal_coefficient",
    "extremal_coefficient_derived",
    "derived_copula_validity",
]

_COPULA_KINDS = ("gumbel", "independence", "comonotone")


@dataclass(frozen=True)
class CopulaSpec:
    """Exchangeable copula family; ``gamma`` is set only for ``gumbel``."""

    kind: str
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _COPULA_KINDS:
            raise ValueError(f"unknown copula kind {self.kind!r}")
        if self.kind == "gumbel":
            if self.gamma is None or not (self.gamma >= 1.0) or not math.isfinite(self.gamma):
                raise ValueError("gumbel copula requires finite gamma >= 1")
        elif self.gamma is not None:
            raise ValueError(f"{self.kind} copula does not take gamma")

    @classmethod
    def gumbel(cls, gamma: float) -> "CopulaSpec":
        return cls("gumbel", gamma=float(gamma))

    @classmethod
    def independence(cls) -> "CopulaSpec":
        return cls("independence")

    @classmethod
    def comonotone(cls) -> "CopulaSpec":
        return cls("comonotone")


@dataclass(frozen=True)
class DerivedCopula:
    """Ratio construction ``C(u**(1/theta)) / C(u**(1/theta - 1))``.

    ``theta`` holds one weight per component, each in ``(0, 1]``.
    Validity as a copula depends on ``(base, theta)``; see
    `derived_copula_validity`.
    """

    base: CopulaSpec
    theta: tuple[float, ...]

    def __post_init__(self) -> None:
        theta = tuple(float(t) for t in self.theta)
        object.__setattr__(self, "theta", theta)
        if len(theta) == 0:
            raise ValueError("theta must be non-empty")
        for t in theta:
            if not (0.0 < t <= 1.0):
                raise ValueError("theta entries must lie in (0, 1]")

    @property
    def dim(self) -> int:
        return len(self.theta)


def _gamma_norm(s: np.ndarray, gamma: float) -> np.ndarray:
    """Row-wise ``(sum_j s_j**gamma)**(1/gamma)`` for nonnegative ``s`` of
    shape ``(m, d)``, overflow-safe."""
    m = np.max(s, axis=1)
    # rows with max 0 or inf give 0/0 or inf/inf here; both are replaced
    with np.errstate(invalid="ignore"):
        norm = m * np.sum((s / m[:, None]) ** gamma, axis=1) ** (1.0 / gamma)
    return np.where(m == 0.0, 0.0, np.where(np.isinf(m), np.inf, norm))


def _check_log_u(log_u: np.ndarray, d: int | None = None) -> None:
    if log_u.ndim not in (1, 2) or log_u.shape[-1] == 0:
        raise ValueError("log_u must be a non-empty (d,) or (m, d) array")
    if d is not None and log_u.shape[-1] != d:
        raise ValueError(f"log_u must have {d} columns")
    if np.any(log_u > 0) or np.any(np.isnan(log_u)):
        raise ValueError("log_u entries must lie in [-inf, 0]")


def _base_logcdf(spec: CopulaSpec, log_u: np.ndarray) -> np.ndarray:
    """Row-wise ``log C(u)`` for validated ``log_u`` of shape ``(m, d)``."""
    if spec.kind == "comonotone":
        return np.min(log_u, axis=1)
    if spec.kind == "independence" or spec.gamma == 1.0:
        # gamma == 1 is exactly the independence copula
        return np.sum(log_u, axis=1)
    return -_gamma_norm(-log_u, spec.gamma)


def copula_logcdf(spec: CopulaSpec | DerivedCopula, log_u):
    """``log C(u)`` evaluated from ``log u`` componentwise.

    Entries of ``log_u`` must be in ``[-inf, 0]``; ``-inf`` encodes
    ``u_j = 0``.  Working from logs keeps ratios of the form
    ``log C(u) / log C(v)`` exact for small arguments.  A ``(d,)``
    point gives a float, an ``(m, d)`` batch of points an ``(m,)``
    array.  A `DerivedCopula` is evaluated by `derived_copula_logcdf`.
    """
    if isinstance(spec, DerivedCopula):
        return derived_copula_logcdf(spec, log_u)
    log_u = np.asarray(log_u, dtype=float)
    _check_log_u(log_u)
    out = _base_logcdf(spec, np.atleast_2d(log_u))
    return float(out[0]) if log_u.ndim == 1 else out


def copula_eval(spec: CopulaSpec | DerivedCopula, u) -> float:
    """Copula CDF ``C(u)`` for ``u`` in ``[0, 1]**d``; a `DerivedCopula`
    is evaluated by `derived_copula_logcdf`."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("u must be a non-empty 1-d array")
    if np.any(u < 0) or np.any(u > 1) or np.any(np.isnan(u)):
        raise ValueError("u entries must lie in [0, 1]")
    if np.any(u == 0):
        return 0.0
    with np.errstate(divide="ignore"):
        return math.exp(copula_logcdf(spec, np.log(u)))


def _sample_positive_stable(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Positive alpha-stable draws with Laplace transform exp(-t**alpha)."""
    u = rng.random(size) * math.pi
    e = rng.exponential(size=size)
    ratio = alpha / (1.0 - alpha)
    a = (np.sin(alpha * u) ** ratio) * np.sin((1.0 - alpha) * u) / np.sin(u) ** (1.0 + ratio)
    return (a / e) ** (1.0 / ratio)


def copula_sample(spec: CopulaSpec, d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw uniforms with copula ``spec``; shape ``(size, d)`` or ``(d,)``.

    Gumbel draws use the positive-stable frailty representation: with
    ``S`` alpha-stable for ``alpha = 1/gamma`` and ``E_j`` i.i.d. unit
    exponentials, ``U_j = exp(-(E_j / S)**alpha)`` has the Gumbel copula.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    squeeze = size is None
    n = 1 if squeeze else int(size)
    if spec.kind == "comonotone":
        out = np.repeat(rng.random(n)[:, None], d, axis=1)
    elif spec.kind == "independence" or spec.gamma == 1.0 or d == 1:
        out = rng.random((n, d))
    else:
        alpha = 1.0 / spec.gamma
        s = _sample_positive_stable(alpha, rng, n)
        e = rng.exponential(size=(n, d))
        out = np.exp(-((e / s[:, None]) ** alpha))
    # keep draws away from the exact endpoints so that quantile
    # transforms never produce 0/inf innovations
    out = np.clip(out, 1e-300, 1.0 - 1e-16)
    return out[0] if squeeze else out


def _derived_logcdf(dc: DerivedCopula, log_u: np.ndarray) -> np.ndarray:
    """Row-wise ``log C*(u)`` for validated ``log_u`` of shape ``(m, d)``."""
    theta = np.asarray(dc.theta, dtype=float)
    a_num, a_den = 1.0 / theta, 1.0 / theta - 1.0
    # a row with some u_j == 0 has a vanishing numerator; the inf - inf
    # and 0 * inf it produces below are replaced by -inf
    with np.errstate(invalid="ignore"):
        log_num = _base_logcdf(dc.base, a_num * log_u)
        # a_den entries equal to zero pin the corresponding argument at
        # one, regardless of u_j
        log_den = _base_logcdf(dc.base, np.where(a_den == 0.0, 0.0, a_den * log_u))
        return np.where(np.isinf(log_u).any(axis=1), -np.inf, log_num - log_den)


def derived_copula_logcdf(dc: DerivedCopula, log_u):
    """``log C*(u)`` of the ratio construction, from ``log u``.

    A ``(dim,)`` point gives a float, an ``(m, dim)`` batch of points an
    ``(m,)`` array.
    """
    log_u = np.asarray(log_u, dtype=float)
    _check_log_u(log_u, dc.dim)
    out = _derived_logcdf(dc, np.atleast_2d(log_u))
    return float(out[0]) if log_u.ndim == 1 else out


def derived_copula_eval(dc: DerivedCopula, u) -> float:
    """Ratio-construction CDF ``C*(u)``; ``u_j = 0`` yields 0 by convention."""
    u = np.asarray(u, dtype=float)
    if u.shape != (dc.dim,):
        raise ValueError(f"u must have shape ({dc.dim},)")
    return copula_eval(dc, u)


def extremal_coefficient(gamma: float, m: int) -> float:
    """Extremal coefficient ``m**(1/gamma)`` of an m-variate Gumbel copula."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not gamma >= 1.0:
        raise ValueError("gamma must be >= 1")
    return float(m) ** (1.0 / gamma)


def extremal_coefficient_derived(gamma: float, theta) -> float:
    """Extremal coefficient of the ratio construction over Gumbel(gamma).

    Equals ``||1/theta||_gamma - ||1/theta - 1||_gamma`` where the norm
    is the ``gamma``-norm over components.
    """
    if not gamma >= 1.0:
        raise ValueError("gamma must be >= 1")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("theta must be a non-empty 1-d array")
    if np.any(theta <= 0) or np.any(theta > 1):
        raise ValueError("theta entries must lie in (0, 1]")
    norms = _gamma_norm(np.stack([1.0 / theta, 1.0 / theta - 1.0]), gamma)
    return float(norms[0] - norms[1])


@dataclass(frozen=True)
class ValidityReport:
    """Grid evidence that a derived copula is (or is not) a copula.

    ``max_lower_violation``/``max_upper_violation`` measure breaches of
    the Frechet-Hoeffding bounds, ``max_margin_violation`` the departure
    of univariate margins from uniformity, and ``min_rectangle_mass``
    the most negative rectangle mass found; ``valid`` summarizes all
    checks against ``tol``.
    """

    valid: bool
    max_lower_violation: float
    max_upper_violation: float
    max_margin_violation: float
    min_rectangle_mass: float
    n_points: int
    n_rectangles: int
    tol: float


def derived_copula_validity(
    dc: DerivedCopula,
    n_points: int = 2048,
    n_rectangles: int = 2048,
    seed: int = 0,
    tol: float = 1e-9,
) -> ValidityReport:
    """Check Frechet-Hoeffding bounds, margins and rectangle masses.

    Points and rectangles are drawn from a dedicated generator seeded by
    ``seed``, so reports are reproducible.  A report with ``valid`` set
    is evidence, not proof: it certifies the construction on the sampled
    grid only.
    """
    rng = np.random.default_rng(seed)
    d = dc.dim
    pts = rng.random((n_points, d))
    # push some mass toward the corners where violations concentrate
    pts[: n_points // 4] = pts[: n_points // 4] ** 4
    pts[n_points // 4 : n_points // 2] = 1.0 - pts[n_points // 4 : n_points // 2] ** 4

    def cdf(u: np.ndarray) -> np.ndarray:
        # u_j == 0 maps to log u_j = -inf and so to C* = 0
        with np.errstate(divide="ignore"):
            return np.exp(_derived_logcdf(dc, np.log(u)))

    c = cdf(pts)
    lower = np.maximum(np.sum(pts, axis=1) - (d - 1), 0.0)
    max_lower = float(np.max(lower - c, initial=0.0))
    max_upper = float(np.max(c - np.min(pts, axis=1), initial=0.0))

    # row (p, j) is the point with u_j = p and every other entry one
    p = np.repeat(np.linspace(0.05, 0.95, 19), d)
    margin_pts = np.ones((p.size, d))
    margin_pts[np.arange(p.size), np.tile(np.arange(d), 19)] = p
    max_margin = float(np.max(np.abs(cdf(margin_pts) - p), initial=0.0))

    # one (a, r) pair of d-vectors per rectangle, b = a + r (1 - a); the
    # corner masses are summed in `itertools.product` order
    draws = rng.random((n_rectangles, 2, d))
    a = draws[:, 0]
    b = a + draws[:, 1] * (1.0 - a)
    corners = np.array(list(itertools.product((False, True), repeat=d)))
    signs = (-1.0) ** (d - corners.sum(axis=1))
    corner_pts = np.where(corners, b[:, None, :], a[:, None, :])
    vals = cdf(corner_pts.reshape(-1, d)).reshape(n_rectangles, len(corners))
    masses = np.cumsum(signs * vals, axis=1)[:, -1]
    min_mass = float(np.min(masses, initial=math.inf))

    valid = (
        max_lower <= tol
        and max_upper <= tol
        and max_margin <= tol
        and min_mass >= -tol
    )
    return ValidityReport(
        valid=valid,
        max_lower_violation=max_lower,
        max_upper_violation=max_upper,
        max_margin_violation=max_margin,
        min_rectangle_mass=min_mass,
        n_points=n_points,
        n_rectangles=n_rectangles,
        tol=tol,
    )
