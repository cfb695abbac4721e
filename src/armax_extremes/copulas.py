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

from .errors import NumericLimitError, _check_integer
from .margins import _UNIFORM_CLIP

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

# rows per block in the layers that walk a sample path (the Gumbel draw,
# the path CSV writer): each holds a few blocks of temporaries besides
# the path, not several path-sized arrays
_ROW_BLOCK = 8192

# rows per block of `derived_copula_validity`'s points and rectangle
# corners: of 256 to 8192 corner rows, the largest block
# with no page faults in a d = 3 screen of 2048 rectangles, whatever ran
# before it in the process
_CORNER_BLOCK = 2048


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
        if not isinstance(self.base, CopulaSpec):
            raise ValueError("derived copulas cannot be nested: base must be a CopulaSpec")
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1 or theta.size == 0:
            raise ValueError("theta must be a non-empty 1-d array")
        if not np.all((theta > 0.0) & (theta <= 1.0)):  # a nan is refused too
            raise ValueError("theta entries must lie in (0, 1]")
        object.__setattr__(self, "theta", tuple(theta.tolist()))

    @property
    def dim(self) -> int:
        return len(self.theta)


def _fold(op, a: np.ndarray) -> np.ndarray:
    """The ufunc ``op`` over the columns of ``a`` ``(m, d)``, left to
    right from ``0.0 + a[:, 0]``: with ``np.add``, ``np.sum``'s bits for
    d <= 7, and a column of zeros changes nothing, for every d."""
    out = a[:, 0] + 0.0
    for j in range(1, a.shape[1]):
        op(out, a[:, j], out=out)
    return out


def _gamma_norm(s: np.ndarray, gamma: float) -> np.ndarray:
    """Row-wise ``(sum_j s_j**gamma)**(1/gamma)`` for nonnegative ``s`` of
    shape ``(m, d)``, overflow-safe; a column of zeros changes nothing."""
    m = _fold(np.maximum, s)
    # a row with max 0 or inf gives 0/0 or inf/inf here, and so a nan
    # norm, which no other row without a nan gives; those rows take
    # m + 0.0, which is 0.0 (never -0.0) or inf (a row with a nan stays
    # nan either way)
    with np.errstate(invalid="ignore"):
        norm = m * _fold(np.add, (s / m[:, None]) ** gamma) ** (1.0 / gamma)
    np.add(m, 0.0, out=norm, where=np.isnan(norm))
    return norm


def _check_log_u(log_u: np.ndarray, d: int | None = None) -> None:
    if log_u.ndim not in (1, 2) or log_u.shape[-1] == 0:
        raise ValueError("log_u must be a non-empty (d,) or (m, d) array")
    if d is not None and log_u.shape[-1] != d:
        raise ValueError(f"log_u must have {d} columns")
    if np.any(log_u > 0) or np.any(np.isnan(log_u)):
        raise ValueError("log_u entries must lie in [-inf, 0]")


def _base_logcdf(spec: CopulaSpec, log_u: np.ndarray) -> np.ndarray:
    """Row-wise ``log C(u)`` for validated ``log_u`` of shape ``(m, d)``.

    A zero row gives 0.0, never -0.0, except under a Gumbel copula with
    ``gamma > 1``, whose norm of zeros is negated to -0.0.
    """
    if spec.kind == "comonotone":
        # np.minimum keeps the sign of zero of one of its arguments, so
        # the folded minimum of 0.0 and -0.0 is set to 0.0 at the end
        return _fold(np.minimum, log_u) + 0.0
    if spec.kind == "independence" or spec.gamma == 1.0:
        # gamma == 1 is exactly the independence copula
        return _fold(np.add, log_u)
    if log_u.shape[1] == 1:
        # every copula is the identity on one column: the norm of one
        # entry is its size, and a zero's is 0.0, negated to -0.0
        return -np.abs(log_u[:, 0])
    return -_gamma_norm(-log_u, spec.gamma)


def copula_logcdf(spec: CopulaSpec | DerivedCopula, log_u):
    """``log C(u)`` evaluated from ``log u`` componentwise.

    Entries of ``log_u`` must be in ``[-inf, 0]``; ``-inf`` encodes
    ``u_j = 0``.  Working from logs keeps ratios of the form
    ``log C(u) / log C(v)`` exact for small arguments.  A ``(d,)``
    point gives a float, an ``(m, d)`` batch of points an ``(m,)``
    array; for a `DerivedCopula`, ``d`` must be its ``dim``.
    """
    log_u = np.asarray(log_u, dtype=float)
    derived = isinstance(spec, DerivedCopula)
    _check_log_u(log_u, spec.dim if derived else None)
    rows = np.atleast_2d(log_u)
    out = _derived_logcdf(spec, rows) if derived else _base_logcdf(spec, rows)
    return float(out[0]) if log_u.ndim == 1 else out


def copula_eval(spec: CopulaSpec | DerivedCopula, u) -> float:
    """Copula CDF ``C(u)`` for ``u`` in ``[0, 1]**d``, from
    `copula_logcdf`; ``u_j = 0`` gives ``log u_j = -inf`` and so 0."""
    u = np.asarray(u, dtype=float)
    if isinstance(spec, DerivedCopula) and u.shape != (spec.dim,):
        raise ValueError(f"u must have shape ({spec.dim},)")
    if u.ndim != 1 or u.size == 0:
        raise ValueError("u must be a non-empty 1-d array")
    if np.any(u < 0) or np.any(u > 1) or np.any(np.isnan(u)):
        raise ValueError("u entries must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        return math.exp(copula_logcdf(spec, np.log(u)))


def _gumbel_sample(gamma: float, rng: np.random.Generator, out: np.ndarray) -> None:
    """Write Gumbel(gamma) uniforms ``U_j = exp(-(E_j / S)**alpha)``,
    ``alpha = 1/gamma``, into the ``(n, d)`` array ``out``, from a
    positive alpha-stable frailty ``S`` with Laplace transform
    ``exp(-t**alpha)`` (Kanter's representation from a uniform angle
    ``v`` and a unit exponential ``w``).

    ``v`` and ``w`` are drawn whole; the exponentials ``E`` and the
    transform then run in blocks of `_ROW_BLOCK` rows, so the
    temporaries are a block's, not the path's.  Consecutive blocks draw
    the stream as one call does, and the ufuncs give each row the bits
    they give it in one whole-array pass.

    The direct form of ``S`` is 0/0 for ``alpha`` near 1, and for small
    ``alpha`` it or ``E_j / S`` leaves the float range.  Rows where some
    ``E_j / S`` is nan, 0 or inf are recomputed from the same draws in
    log space; the other rows keep the direct form's bits.  Raises
    `NumericLimitError` when a log-space ``S`` is not finite either.
    """
    n, d = out.shape
    alpha = 1.0 / gamma
    v = rng.random(n) * math.pi
    w = rng.exponential(size=n)
    ratio = alpha / (1.0 - alpha)
    for start in range(0, n, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        v_b, w_b, out_b = v[rows], w[rows], out[rows]
        e = rng.exponential(size=out_b.shape)
        with np.errstate(all="ignore"):
            a = (np.sin(alpha * v_b) ** ratio) * np.sin((1.0 - alpha) * v_b) / np.sin(v_b) ** (1.0 + ratio)
            q = e / ((a / w_b) ** (1.0 / ratio))[:, None]
            np.exp(-(q**alpha), out=out_b)
        # a nan fails both tests, so the row mask is built only when needed
        if q.min() > 0.0 and q.max() < math.inf:
            continue
        bad = ~((q > 0.0) & (q < math.inf)).all(axis=1)
        v_bad, w_bad = v_b[bad], w_b[bad]
        with np.errstate(all="ignore"):
            log_a = (
                ratio * np.log(np.sin(alpha * v_bad))
                + np.log(np.sin((1.0 - alpha) * v_bad))
                - (1.0 + ratio) * np.log(np.sin(v_bad))
            )
            log_s = (log_a - np.log(w_bad)) / ratio
        if not np.isfinite(log_s).all():
            raise NumericLimitError(f"the Gumbel({gamma!r}) frailty is outside the float range")
        out_b[bad] = np.exp(-np.exp(alpha * (np.log(e[bad]) - log_s[:, None])))


def copula_sample(
    spec: CopulaSpec, d: int, rng: np.random.Generator, size: int | None = None, out=None
) -> np.ndarray:
    """Draw uniforms with copula ``spec``; shape ``(size, d)`` or ``(d,)``.

    ``out``, a C-contiguous float64 array of that shape, receives the
    draws and is returned; by default a new array is.  Every family
    draws straight into it (a Gumbel one in row blocks, see
    `_gumbel_sample`) and one in-place pass clips it, so no draw-sized
    temporary is made.  Gumbel draws use the positive-stable frailty
    representation: with ``S`` alpha-stable for ``alpha = 1/gamma`` and
    ``E_j`` i.i.d. unit exponentials, ``U_j = exp(-(E_j / S)**alpha)``
    has the Gumbel copula.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    shape = (d,) if size is None else (int(size), d)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out must have shape {shape}")
    rows = out.reshape(-1, d)  # a view of out: one row for a single draw
    if spec.kind == "comonotone":
        rows[...] = rng.random(len(rows))[:, None]
    elif spec.kind == "independence" or spec.gamma == 1.0 or d == 1:
        rng.random(out=rows)
    else:
        _gumbel_sample(spec.gamma, rng, rows)
    return np.clip(out, *_UNIFORM_CLIP, out=out)


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
    """``log C*(u)`` of the ratio construction, from ``log u``: `copula_logcdf`."""
    return copula_logcdf(dc, log_u)


def derived_copula_eval(dc: DerivedCopula, u) -> float:
    """Ratio-construction CDF ``C*(u)``; ``u_j = 0`` yields 0 by convention."""
    return copula_eval(dc, u)


def extremal_coefficient(gamma: float, m: int) -> float:
    """Extremal coefficient ``m**(1/gamma)`` of an m-variate Gumbel copula."""
    _check_integer(m, "m")
    if m < 1:
        raise ValueError("m must be at least 1")
    return float(m) ** (1.0 / CopulaSpec.gumbel(gamma).gamma)


def extremal_coefficient_derived(gamma: float, theta) -> float:
    """Extremal coefficient of the ratio construction over Gumbel(gamma).

    Equals ``||1/theta||_gamma - ||1/theta - 1||_gamma`` where the norm
    is the ``gamma``-norm over components.
    """
    dc = DerivedCopula(CopulaSpec.gumbel(gamma), theta)
    theta = np.array(dc.theta)
    norms = _gamma_norm(np.stack([1.0 / theta, 1.0 / theta - 1.0]), dc.base.gamma)
    return float(norms[0] - norms[1])


@dataclass(frozen=True)
class ValidityReport:
    """Grid evidence that a derived copula is (or is not) a copula.

    ``max_lower_violation``/``max_upper_violation`` measure breaches of
    the Frechet-Hoeffding bounds, ``max_margin_violation`` the departure
    of univariate margins from uniformity, and ``min_rectangle_mass``
    the most negative rectangle mass found; ``valid`` summarizes all
    checks against ``tol`` (1e-9).
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
) -> ValidityReport:
    """Check Frechet-Hoeffding bounds, margins and rectangle masses,
    each within a tolerance of 1e-9.

    Points and rectangles are drawn from a dedicated generator with
    seed 0, so reports are reproducible.  A report with ``valid`` set
    is evidence, not proof: it certifies the construction on the sampled
    grid only, and so needs at least one point and one rectangle.

    The points and the ``2**d`` corners of the rectangles are evaluated
    a block at a time, at most `_CORNER_BLOCK` rows (and at least one
    rectangle) per block, so the temporaries are a block's, not
    ``n_points`` or ``n_rectangles * 2**d`` rows; the ``19 d`` margin
    points are evaluated whole.  Maxima, minima and each rectangle's
    mass are exact, so a report has the bits of a whole-array
    evaluation.
    """
    _check_integer(n_points, "n_points")
    _check_integer(n_rectangles, "n_rectangles")
    if n_points < 1 or n_rectangles < 1:
        raise ValueError("n_points and n_rectangles must be at least 1")
    rng = np.random.default_rng(0)
    tol = 1e-9
    d = dc.dim
    pts = rng.random((n_points, d))
    # push some mass toward the corners where violations concentrate
    pts[: n_points // 4] = pts[: n_points // 4] ** 4
    pts[n_points // 4 : n_points // 2] = 1.0 - pts[n_points // 4 : n_points // 2] ** 4

    def cdf(u: np.ndarray) -> np.ndarray:
        # u_j == 0 maps to log u_j = -inf and so to C* = 0
        with np.errstate(divide="ignore"):
            return np.exp(_derived_logcdf(dc, np.log(u)))

    # the bound checks run `_CORNER_BLOCK` points at a time, each
    # block's maximum starting from those before it
    max_lower = max_upper = 0.0
    for start in range(0, n_points, _CORNER_BLOCK):
        u = pts[start : start + _CORNER_BLOCK]
        c = cdf(u)
        lower = np.maximum(np.sum(u, axis=1) - (d - 1), 0.0)
        max_lower = np.max(lower - c, initial=max_lower)
        max_upper = np.max(c - np.min(u, axis=1), initial=max_upper)
    max_lower, max_upper = float(max_lower), float(max_upper)

    # row (p, j) is the point with u_j = p and every other entry one
    p = np.repeat(np.linspace(0.05, 0.95, 19), d)
    margin_pts = np.ones((p.size, d))
    margin_pts[np.arange(p.size), np.tile(np.arange(d), 19)] = p
    max_margin = float(np.max(np.abs(cdf(margin_pts) - p)))

    # one (a, r) pair of d-vectors per rectangle, b = a + r (1 - a); the
    # corner masses are summed in `itertools.product` order, a block of
    # rectangles at a time; np.minimum keeps a nan mass, as np.min does
    draws = rng.random((n_rectangles, 2, d))
    corners = np.array(list(itertools.product((False, True), repeat=d)))
    signs = (-1.0) ** (d - corners.sum(axis=1))
    block = max(1, _CORNER_BLOCK // len(corners))
    min_mass = math.inf
    for start in range(0, n_rectangles, block):
        a = draws[start : start + block, 0]
        b = a + draws[start : start + block, 1] * (1.0 - a)
        corner_pts = np.where(corners, b[:, None, :], a[:, None, :])
        vals = cdf(corner_pts.reshape(-1, d)).reshape(len(a), len(corners))
        masses = np.cumsum(signs * vals, axis=1)[:, -1]
        min_mass = np.minimum(min_mass, masses.min())
    min_mass = float(min_mass)

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
