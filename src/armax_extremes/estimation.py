"""Estimators for the autoregression coefficient and the marginal tail index.

For a stationary ARMAX series with unit-Frechet innovations the
transform ``U = exp(-1/X)`` of the stationary margin is Beta-like with
mean ``1/(2-c)``, giving the moment estimator ``c = 2 - 1/U_bar``.  Two
alternatives are provided: the descent-frequency estimator
``c = 2 - 1/p_tilde`` with ``p_tilde`` the fraction of non-increasing
steps, and the minimum consecutive ratio, which bounds ``c`` from above
path by path because the recursion forces ``X_i >= c X_{i-1}``.

The asymptotic variance of ``sqrt(n) (U_bar - 1/(2-c))`` is expanded as
a covariance series over lagged cross moments; two variance conventions
for the implied CLT of ``c_hat`` are implemented (see
`confidence_interval`), since the delta-method factor ``(2-c)**4``
and the ``3 - 2c`` factor disagree — the Monte Carlo front end reports
which one the data match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import UndefinedResultError

__all__ = [
    "MomentEstimate",
    "LebedevEstimate",
    "EstimateReport",
    "VARIANCE_CONVENTIONS",
    "estimate_c_moment",
    "estimate_c_lebedev",
    "estimate_c_davis_resnick",
    "cross_moment",
    "asymptotic_variance",
    "confidence_interval",
    "hill_tail_index",
    "build_estimate_report",
]

VARIANCE_CONVENTIONS = ("delta_pow4", "paper_3m2c")


@dataclass(frozen=True)
class MomentEstimate:
    """Moment estimate ``c_hat = 2 - 1/u_bar``.

    ``misfit`` marks ``u_bar`` outside ``(1/2, 1)``, where the relation
    between ``c`` and the mean transform breaks down (an indication the
    model does not fit the data).
    """

    c_hat: float
    u_bar: float
    misfit: bool


@dataclass(frozen=True)
class LebedevEstimate:
    """Descent-frequency estimate ``c_hat = 2 - 1/p_tilde``.

    ``p_tilde`` is the fraction of steps with ``X_{i+1} <= X_i``;
    ``misfit`` marks ``p_tilde <= 1/2`` and ``boundary`` the degenerate
    all-descents case ``p_tilde = 1``.
    """

    c_hat: float
    p_tilde: float
    misfit: bool
    boundary: bool


def estimate_c_moment(series) -> MomentEstimate:
    """Estimate ``c`` from the mean of ``exp(-1/X)``.

    Entries ``X <= 0`` contribute zero (the left-tail limit of the
    transform), so contaminated inputs degrade gracefully and surface
    through the misfit flag rather than an exception.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("series must be a non-empty 1-d array")
    with np.errstate(divide="ignore", over="ignore"):
        w = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
    u_bar = float(np.mean(w))
    misfit = not (0.5 < u_bar < 1.0)
    c_hat = math.nan if u_bar == 0.0 else 2.0 - 1.0 / u_bar
    return MomentEstimate(c_hat=c_hat, u_bar=u_bar, misfit=misfit)


def estimate_c_lebedev(series) -> LebedevEstimate:
    """Estimate ``c`` from the frequency of non-increasing steps."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("series must hold at least two values")
    p_tilde = float(np.mean(x[1:] <= x[:-1]))
    c_hat = math.nan if p_tilde == 0.0 else 2.0 - 1.0 / p_tilde
    return LebedevEstimate(
        c_hat=c_hat,
        p_tilde=p_tilde,
        misfit=p_tilde <= 0.5,
        boundary=p_tilde == 1.0,
    )


def estimate_c_davis_resnick(series) -> float:
    """Minimum consecutive ratio ``min_i X_i / X_{i-1}``.

    For a true ARMAX path this never falls below the autoregression
    coefficient, and it decreases toward it as the series grows.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("series must hold at least two values")
    if np.any(x <= 0):
        raise ValueError("series entries must be positive")
    # inf / inf and a nan entry give nan, a ratio past the float range inf
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.min(x[1:] / x[:-1]))


def cross_moment(c: float, r: int) -> float:
    """Lagged cross moment ``E(exp(-1/X_0) exp(-1/X_r))`` of the
    stationary unit-Frechet ARMAX series:

        (1 - c**r) / ((2 - c) (2 - c - c**r - c**(r+1))).

    Approaches the independent value ``1/(2-c)**2`` geometrically as
    ``r`` grows.

    .. warning::
        The second denominator factor changes sign when
        ``c + c**r + c**(r+1) > 2`` (for ``r = 1`` this happens at
        ``c > sqrt(3) - 1``), so the closed form escapes ``(0, 1)``
        and can turn negative at large ``c``.  Downstream variance
        code inherits this; see `asymptotic_variance`.
    """
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    if r < 1:
        raise ValueError("r must be a positive integer")
    cr = c**r
    return (1.0 - cr) / ((2.0 - c) * (2.0 - c - cr - cr * c))


def asymptotic_variance(c: float) -> float:
    """Variance of the limit law of ``sqrt(n) (U_bar - 1/(2-c))``:

        sigma2 = 1/(3-2c) - 1/(2-c)**2
                 + 2 * sum_{r>=1} (cross_moment(c, r) - 1/(2-c)**2).

    The series stops once a term falls below 1e-14 in absolute value
    (terms decay like ``c**r``) or after 10 000 terms.

    .. warning::
        The closed form is not a variance for every ``c``: the
        covariance series takes negative values on parts of ``(0, 1)``
        (around ``c = 0.3``--``0.4`` and beyond ``c ~ 0.85``), where no
        confidence interval can be formed.  At ``c = 0.5`` every
        covariance term cancels exactly and the value is ``1/18``.
    """
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    independent = 1.0 / (2.0 - c) ** 2
    total = 1.0 / (3.0 - 2.0 * c) - independent
    for r in range(1, 10_001):
        term = cross_moment(c, r) - independent
        total += 2.0 * term
        if abs(term) < 1e-14:
            break
    return total


def _convention_factor(c: float, convention: str) -> float:
    """Factor turning ``sigma2`` into the variance of ``sqrt(n) (c_hat - c)``
    under ``convention``: ``(2-c)**4`` (``delta_pow4``) or ``3 - 2c``
    (``paper_3m2c``)."""
    if convention == "delta_pow4":
        return (2.0 - c) ** 4
    return 3.0 - 2.0 * c


def _normality_pvalue(x) -> float | None:
    """D'Agostino-Pearson omnibus test of normality (D'Agostino and
    Pearson 1973, Biometrika 60:613-622).

    Combines the z-scores of the skewness and kurtosis tests into
    ``K2 = z_skew**2 + z_kurt**2`` and returns its chi-squared(2)
    survival probability ``exp(-K2 / 2)``.  Each step follows the
    arithmetic of ``scipy.stats.normaltest``, so the value agrees with
    ``normaltest(x).pvalue`` to rounding.  Needs at least 8 values;
    returns ``None`` when ``K2`` is not finite (zero variance, or a nan
    or inf in ``x``).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 8:
        raise ValueError("x must be a 1-d array of at least 8 values")
    n = np.float64(x.size)
    with np.errstate(all="ignore"):
        dev = x - np.mean(x)
        m2 = np.mean(dev**2)
        m3 = np.mean(dev**2 * dev)
        m4 = np.mean((dev**2) ** 2)
        if not (np.isfinite(m2) and m2 > (np.finfo(float).eps * np.mean(x)) ** 2):
            return None
        # skewness test
        y = m3 / m2**1.5 * np.sqrt(((n + 1) * (n + 3)) / (6.0 * (n - 2)))
        beta2 = (
            3.0 * (n**2 + 27 * n - 70) * (n + 1) * (n + 3)
            / ((n - 2.0) * (n + 5) * (n + 7) * (n + 9))
        )
        w2 = -1 + np.sqrt(2 * (beta2 - 1))
        delta = 1 / np.sqrt(0.5 * np.log(w2))
        alpha = np.sqrt(2.0 / (w2 - 1))
        y = 1.0 if y == 0 else y
        z_skew = delta * np.log(y / alpha + np.sqrt((y / alpha) ** 2 + 1))
        # kurtosis test
        b2 = m4 / m2**2.0
        mean_b2 = 3.0 * (n - 1) / (n + 1)
        var_b2 = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1.0) * (n + 3) * (n + 5))
        z = (b2 - mean_b2) / var_b2**0.5
        sqrt_beta1 = (
            6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
            * ((6.0 * (n + 3) * (n + 5)) / (n * (n - 2) * (n - 3))) ** 0.5
        )
        a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + (1 + 4.0 / sqrt_beta1**2) ** 0.5)
        denom = 1 + z * (2 / (a - 4.0)) ** 0.5
        if denom == 0.0:
            return None
        term2 = np.sign(denom) * ((1 - 2.0 / a) / np.abs(denom)) ** (1 / 3)
        z_kurt = (1 - 2 / (9.0 * a) - term2) / (2 / (9.0 * a)) ** 0.5
        k2 = float(z_skew * z_skew + z_kurt * z_kurt)
    return math.exp(-k2 / 2.0) if math.isfinite(k2) else None


def confidence_interval(
    c_hat: float,
    n: int,
    convention: str = "delta_pow4",
    level: float = 0.95,
) -> tuple[float, float]:
    """Normal confidence interval for ``c`` around ``c_hat``.

    The variance of ``sqrt(n) (c_hat - c)`` is ``sigma2 * (2-c)**4``
    under ``delta_pow4`` (the delta method applied to ``g(u) = 2 - 1/u``,
    whose squared derivative at ``u = 1/(2-c)`` is ``(2-c)**4``) and
    ``sigma2 * (3-2c)`` under ``paper_3m2c``; both evaluate ``sigma2``
    and the factor at ``c_hat``.
    """
    if not (0.0 < c_hat < 1.0):
        raise ValueError("c_hat must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0.0 <= level < 1.0):
        raise ValueError("level must lie in [0, 1)")
    if convention not in VARIANCE_CONVENTIONS:
        raise ValueError(f"convention must be one of {VARIANCE_CONVENTIONS}")
    variance = asymptotic_variance(c_hat) * _convention_factor(c_hat, convention)
    if variance < 0.0:
        # the covariance series dips below zero on parts of (0,1) --
        # see asymptotic_variance -- and no normal interval exists there
        raise UndefinedResultError(
            f"variance series is negative at c_hat={c_hat!r}; "
            "no confidence interval can be formed"
        )
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) * math.sqrt(variance / n)
    return (c_hat - half, c_hat + half)


def hill_tail_index(series, k: int) -> float:
    """Hill estimator ``k / sum log(X_(n-i+1) / X_(n-k))`` over the top
    ``k`` order statistics."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("series must hold at least two values")
    n = x.size
    if not 0 < k < n:
        raise ValueError("k must lie strictly between 0 and n")
    x_sorted = np.sort(x)
    pivot = x_sorted[n - k - 1]
    top = x_sorted[n - k :]
    if pivot <= 0:
        raise ValueError("the top k+1 order statistics must be positive")
    # inf / inf and a nan entry give nan, a ratio past the float range inf
    with np.errstate(invalid="ignore", over="ignore"):
        denom = float(np.sum(np.log(top / pivot)))
    if denom == 0.0:
        raise UndefinedResultError("tied order statistics make the Hill denominator zero")
    return k / denom


@dataclass(frozen=True)
class EstimateReport:
    """All estimators for one margin, with diagnostics.

    ``ci`` is a normal interval around ``c_moment`` under
    ``variance_convention``; entries that could not be computed are
    ``nan``/``None`` with an explanatory entry in ``flags``.
    """

    j: int
    n: int
    u_bar: float
    c_moment: float
    c_lebedev: float
    c_davis_resnick: float
    sigma2: float
    ci: tuple[float, float]
    variance_convention: str
    alpha_hill: float | None
    flags: tuple[str, ...]


def _c_estimates(x: np.ndarray) -> tuple[MomentEstimate, LebedevEstimate, float, list[str]]:
    """The moment, descent-frequency and minimum-ratio estimates of ``c``
    on one series, with their flags; an unavailable minimum ratio is
    ``nan``."""
    flags: list[str] = []
    moment = estimate_c_moment(x)
    if moment.misfit:
        flags.append("moment_misfit")
    lebedev = estimate_c_lebedev(x)
    if lebedev.misfit:
        flags.append("lebedev_misfit")
    if lebedev.boundary:
        flags.append("lebedev_boundary")
    try:
        c_dr = estimate_c_davis_resnick(x)
    except ValueError:
        c_dr = math.nan
        flags.append("davis_resnick_unavailable")
    return moment, lebedev, c_dr, flags


def build_estimate_report(
    series,
    j: int = 0,
    convention: str = "delta_pow4",
    level: float = 0.95,
    hill_k: int | None = None,
) -> EstimateReport:
    """Run every estimator on one series and collect the outcomes.

    ``hill_k`` defaults to ``ceil(sqrt(n))``.  Estimators whose domain
    requirements fail (nonpositive values, out-of-range point estimate)
    are reported as ``nan`` with a flag instead of raising, so batch
    runs always complete.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("series must hold at least two values")
    n = x.size
    moment, lebedev, c_dr, flags = _c_estimates(x)

    if math.isfinite(moment.c_hat) and 0.0 < moment.c_hat < 1.0:
        sigma2 = asymptotic_variance(moment.c_hat)
        try:
            ci = confidence_interval(moment.c_hat, n, convention, level)
        except UndefinedResultError:
            ci = (math.nan, math.nan)
            flags.append("variance_negative")
    else:
        sigma2 = math.nan
        ci = (math.nan, math.nan)
        flags.append("ci_unavailable")

    if hill_k is None:
        hill_k = min(math.ceil(math.sqrt(n)), n - 1)
    alpha_hill: float | None
    try:
        alpha_hill = hill_tail_index(x, hill_k)
    except (ValueError, UndefinedResultError):
        alpha_hill = None
        flags.append("hill_unavailable")

    return EstimateReport(
        j=j,
        n=n,
        u_bar=moment.u_bar,
        c_moment=moment.c_hat,
        c_lebedev=lebedev.c_hat,
        c_davis_resnick=c_dr,
        sigma2=sigma2,
        ci=ci,
        variance_convention=convention,
        alpha_hill=alpha_hill,
        flags=tuple(flags),
    )
