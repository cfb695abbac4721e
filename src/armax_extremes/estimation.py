"""Estimators for the autoregression coefficient and the marginal tail index.

For a stationary ARMAX series with unit-Frechet innovations the
transform ``U = exp(-1/X)`` of the stationary margin is Beta-like with
mean ``1/(2-c)``, giving the moment estimator ``c = 2 - 1/U_bar``.  Two
alternatives are provided: the descent-frequency estimator
``c = 2 - 1/p_tilde`` with ``p_tilde`` the fraction of non-increasing
steps, and the minimum consecutive ratio, which bounds ``c`` from above
path by path because the recursion forces ``X_i >= c X_{i-1}``.

The asymptotic variance of ``sqrt(n) (U_bar - 1/(2-c))`` is expanded as
a covariance series over lagged cross moments, once with the paper's
closed-form cross moment (`asymptotic_variance`, which is wrong; see
README.md) and once with the cross moment derived from the recursion
(`asymptotic_variance_exact`), which the estimate report uses.  Two
variance conventions for the implied CLT of ``c_hat`` are implemented
(see `confidence_interval`), since the delta-method factor ``(2-c)**4``
and the ``3 - 2c`` factor disagree — the Monte Carlo front end reports
which one the data match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .armax import _SERIES_STOP, _SERIES_TERMS
from .errors import UndefinedResultError, _check_integer, _check_open_unit, _check_top_k
from .ranks import _top_k, _top_order_statistics

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
    "cross_moment_exact",
    "asymptotic_variance_exact",
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


def _series(series) -> np.ndarray:
    """``series`` as a float array, which must be 1-d with two values or more."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("series must hold at least two values")
    return x


def estimate_c_moment(series) -> MomentEstimate:
    """Estimate ``c`` from the mean of ``exp(-1/X)``.

    Entries ``X <= 0`` contribute zero (the left-tail limit of the
    transform), so contaminated inputs degrade gracefully and surface
    through the misfit flag rather than an exception; a nan entry makes
    ``u_bar`` and ``c_hat`` nan, a misfit.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("series must be a non-empty 1-d array")
    return _moment_estimate(_mean_transform(x[None], np.empty(x.size)).item())


def estimate_c_lebedev(series) -> LebedevEstimate:
    """Estimate ``c`` from the frequency of non-increasing steps."""
    x = _series(series)
    return _lebedev_estimate(_descent_share(x[None], np.empty(x.size)).item())


def estimate_c_davis_resnick(series) -> float:
    """Minimum consecutive ratio ``min_i X_i / X_{i-1}``.

    For a true ARMAX path this never falls below the autoregression
    coefficient, and it decreases toward it as the series grows.
    """
    x = _series(series)[None]
    if _nonpositive(x)[0]:
        raise ValueError("series entries must be positive")
    return _min_ratio(x, np.empty(x.size)).item()


# The estimators on each row of a (K, n) array ``x``.  Each writes its
# intermediate values into ``scratch``, a contiguous float array of at
# least ``x.size`` values, and reduces them along axis 1, so a batch of
# replicates costs no temporary array of its size.


def _mean_transform(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``u_bar``: the mean of ``exp(-1/X)`` over each row."""
    w = scratch[: x.size].reshape(x.shape)
    # an entry <= 0 gives exp(-1e300) = 0, the transform's limit there,
    # and a nan entry stays nan
    np.maximum(x, 1e-300, out=w)
    np.divide(-1.0, w, out=w)
    np.exp(w, out=w)
    return np.mean(w, axis=1)


def _descent_share(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``p_tilde``: the share of steps with ``X_{i+1} <= X_i`` in each row."""
    k, n = x.shape
    steps = scratch.view(np.bool_)[: k * (n - 1)].reshape(k, n - 1)
    np.less_equal(x[:, 1:], x[:, :-1], out=steps)
    # one count per row: the axis form sums through a 64 kB cast buffer
    # and takes about 4 times as long
    return np.array([np.count_nonzero(row) for row in steps]) / (n - 1)


def _nonpositive(x: np.ndarray) -> np.ndarray:
    """Whether each row holds an entry ``<= 0``; ``fmin`` skips nan."""
    return np.fmin.reduce(x, axis=1) <= 0


def _min_ratio(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The minimum consecutive ratio of each row."""
    k, n = x.shape
    ratios = scratch[: k * (n - 1)].reshape(k, n - 1)
    # inf / inf and a nan entry give nan, a ratio past the float range
    # inf; a row with an entry <= 0, whose ratios mean nothing, may
    # divide by zero
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(x[:, 1:], x[:, :-1], out=ratios)
    return np.min(ratios, axis=1)


def _c_from_mean(mean: float) -> float:
    """``2 - 1/mean``, the moment and the descent estimate; nan at 0."""
    return math.nan if mean == 0.0 else 2.0 - 1.0 / mean


def _moment_estimate(u_bar: float) -> MomentEstimate:
    return MomentEstimate(c_hat=_c_from_mean(u_bar), u_bar=u_bar, misfit=not (0.5 < u_bar < 1.0))


def _lebedev_estimate(p_tilde: float) -> LebedevEstimate:
    return LebedevEstimate(
        c_hat=_c_from_mean(p_tilde),
        p_tilde=p_tilde,
        misfit=p_tilde <= 0.5,
        boundary=p_tilde == 1.0,
    )


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
    _check_lag_args(c, r)
    cr = c**r
    return (1.0 - cr) / ((2.0 - c) * (2.0 - c - cr - cr * c))


def cross_moment_exact(c: float, r: int) -> float:
    """Lagged cross moment ``E(U_0 U_r)``, ``U = exp(-1/X)``, of the
    stationary unit-Frechet ARMAX series, derived from the recursion:

        mu b/(b+1) + a c**r / ((b+1) ((a+1) c**r + b + 1)),

    with ``a = 1/(1-c)``, ``b = (1-c**r)/(1-c)`` and ``mu = 1/(2-c)``.
    ``U_0`` has the law ``u**a`` on ``[0, 1]`` and ``U_r`` is
    ``max(U_0**(c**-r), V)`` with ``V`` independent of law ``v**b``.
    """
    _check_lag_args(c, r)
    cr = c**r
    a = 1.0 / (1.0 - c)
    b = (1.0 - cr) / (1.0 - c)
    return b / ((2.0 - c) * (b + 1.0)) + a * cr / ((b + 1.0) * ((a + 1.0) * cr + b + 1.0))


def _check_lag_args(c: float, r: int) -> None:
    _check_open_unit(c)
    _check_integer(r, "r")
    if r < 1:
        raise ValueError("r must be a positive integer")


def asymptotic_variance(c: float) -> float:
    """Variance of the limit law of ``sqrt(n) (U_bar - 1/(2-c))``:

        sigma2 = 1/(3-2c) - 1/(2-c)**2
                 + 2 * sum_{r>=1} (cross_moment(c, r) - 1/(2-c)**2).

    The series stops once a term falls below 1e-14 in absolute value
    (terms decay like ``c**r``) or after `armax._SERIES_TERMS` terms.

    .. warning::
        The closed form is not a variance for every ``c``: the
        covariance series takes negative values on parts of ``(0, 1)``
        (around ``c = 0.3``--``0.4`` and beyond ``c ~ 0.85``), where no
        confidence interval can be formed.  At ``c = 0.5`` every
        covariance term cancels exactly and the value is ``1/18``.
    """
    return _covariance_series(c, cross_moment)


def asymptotic_variance_exact(c: float) -> float:
    """`asymptotic_variance` with `cross_moment_exact` in place of the
    paper's cross moment: the variance of the limit law of
    ``sqrt(n) (U_bar - 1/(2-c))``, positive on ``(0, 1)``.  It reads
    0.14885 at ``c = 0.3``, 0.18928 at 0.5 and 0.13661 at 0.9, which
    simulated studies confirm (README.md, "Known discrepancies").
    """
    return _covariance_series(c, cross_moment_exact)


def _covariance_series(c: float, cross) -> float:
    """``Var U + 2 sum_{r>=1} (cross(c, r) - mu**2)`` with ``mu = 1/(2-c)``
    and ``Var U = a/((a+1)**2 (a+2)) = 1/(3-2c) - mu**2``, stopped once
    a term falls below `_SERIES_STOP` in absolute value or after `_SERIES_TERMS` terms."""
    _check_open_unit(c)
    independent = 1.0 / (2.0 - c) ** 2
    total = 1.0 / (3.0 - 2.0 * c) - independent
    for r in range(1, _SERIES_TERMS + 1):
        term = cross(c, r) - independent
        total += 2.0 * term
        if abs(term) < _SERIES_STOP:
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
    (the paper's `asymptotic_variance`) and the factor at ``c_hat``.
    """
    _check_open_unit(c_hat, "c_hat")
    half = _half_width(c_hat, asymptotic_variance(c_hat), n, convention, level)
    return (c_hat - half, c_hat + half)


def _half_width(c: float, sigma2: float, n: int, convention: str, level: float) -> float:
    """Half the width of a normal interval for ``c`` whose
    ``sqrt(n) (c_hat - c)`` has variance ``sigma2`` times the factor of
    ``convention`` at ``c``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_interval(convention, level)
    variance = sigma2 * _convention_factor(c, convention)
    if variance < 0.0:
        # the covariance series dips below zero on parts of (0,1) --
        # see asymptotic_variance -- and no normal interval exists there
        raise UndefinedResultError(
            f"variance series is negative at c_hat={c!r}; "
            "no confidence interval can be formed"
        )
    # imported here, as `statistics` adds about 6 ms to a cold start
    from statistics import NormalDist

    return NormalDist().inv_cdf(0.5 * (1.0 + level)) * math.sqrt(variance / n)


def _check_interval(convention: str, level: float, error: type[ValueError] = ValueError) -> None:
    # the interval arguments of `confidence_interval` and the estimate command
    if convention not in VARIANCE_CONVENTIONS:
        raise error(f"convention must be one of {VARIANCE_CONVENTIONS}")
    if not (0.0 <= level < 1.0):
        raise error("level must lie in [0, 1)")


def hill_tail_index(series, k: int) -> float:
    """Hill estimator ``k / sum log(X_(n-i+1) / X_(n-k))`` over the top
    ``k`` order statistics.

    Raises `UndefinedResultError` where the denominator is zero (ties) or
    not finite (a nan or inf among the top order statistics, or a ratio
    past the float range), where no index can be read off.
    """
    x = _series(series)
    _check_top_k(k, x.size)
    order = _top_order_statistics(x, k)
    pivot, top = order[0], order[1:]
    if pivot <= 0:
        raise ValueError("the top k+1 order statistics must be positive")
    # inf / inf and a nan entry give nan, a ratio past the float range inf
    with np.errstate(invalid="ignore", over="ignore"):
        denom = float(np.sum(np.log(top / pivot)))
    if denom == 0.0:
        raise UndefinedResultError("tied order statistics make the Hill denominator zero")
    if not math.isfinite(denom):
        raise UndefinedResultError(f"the Hill denominator is {denom!r}, not finite")
    return k / denom


@dataclass(frozen=True)
class EstimateReport:
    """All estimators for one margin, with diagnostics.

    ``sigma2`` is `asymptotic_variance_exact` at ``c_moment`` and ``ci``
    the normal interval around ``c_moment`` it gives under
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


class _CEstimates(NamedTuple):
    """The three estimates of ``c`` on one series, with ``u_bar`` and codes."""

    u_bar: float
    c_moment: float
    c_lebedev: float
    c_dr: float
    flags: tuple[str, ...]


def _c_estimates(x: np.ndarray, scratch: np.ndarray | None = None) -> list[_CEstimates]:
    """The three estimates of ``c`` on each row of ``x`` ``(K, n)``,
    ``n >= 2``, with every code: a nan moment or descent estimate is a
    misfit, and a nan minimum ratio that no nonpositive entry explains
    (``inf / inf``) is estimator_unavailable.  ``scratch`` (see
    `_mean_transform`) is overwritten; by default one is allocated."""
    if scratch is None:
        scratch = np.empty(x.size)
    u_bar = _mean_transform(x, scratch).tolist()
    p_tilde = _descent_share(x, scratch).tolist()
    ratio = _min_ratio(x, scratch).tolist()
    estimates = []
    for u, p, c_dr, nonpositive in zip(u_bar, p_tilde, ratio, _nonpositive(x).tolist()):
        moment = _moment_estimate(u)
        lebedev = _lebedev_estimate(p)
        flags = []
        if moment.misfit:
            flags.append("moment_misfit")
        if lebedev.misfit:
            flags.append("lebedev_misfit")
        if lebedev.boundary:
            flags.append("lebedev_boundary")
        if nonpositive:
            c_dr = math.nan
            flags.append("davis_resnick_unavailable")
        elif math.isnan(c_dr):
            flags.append("estimator_unavailable")
        estimates.append(_CEstimates(u, moment.c_hat, lebedev.c_hat, c_dr, tuple(flags)))
    return estimates


def build_estimate_report(
    series,
    j: int = 0,
    convention: str = "delta_pow4",
    level: float = 0.95,
    hill_k: int | None = None,
) -> EstimateReport:
    """Run every estimator on one series and collect the outcomes.

    ``hill_k`` defaults to ``min(ceil(sqrt(n)), n - 1)`` (`ranks._top_k`).
    Estimators whose domain requirements fail (nonpositive values,
    out-of-range point estimate) are reported as ``nan`` with a flag
    instead of raising, so batch runs always complete.  A bad ``convention`` or ``level`` raises
    ``ValueError`` whatever the estimate.
    """
    _check_interval(convention, level)
    x = _series(series)
    n = x.size
    estimates = _c_estimates(x[None])[0]
    c_hat = estimates.c_moment
    flags = list(estimates.flags)

    if 0.0 < c_hat < 1.0:
        sigma2 = asymptotic_variance_exact(c_hat)
        half = _half_width(c_hat, sigma2, n, convention, level)
        ci = (c_hat - half, c_hat + half)
    else:
        sigma2 = math.nan
        ci = (math.nan, math.nan)
        flags.append("ci_unavailable")

    alpha_hill: float | None
    try:
        alpha_hill = hill_tail_index(x, _top_k(n, hill_k))
    except (ValueError, UndefinedResultError):
        alpha_hill = None
        flags.append("hill_unavailable")

    return EstimateReport(
        j=j,
        n=n,
        u_bar=estimates.u_bar,
        c_moment=c_hat,
        c_lebedev=estimates.c_lebedev,
        c_davis_resnick=estimates.c_dr,
        sigma2=sigma2,
        ci=ci,
        variance_convention=convention,
        alpha_hill=alpha_hill,
        flags=tuple(flags),
    )


def _study_statistics(estimates, c_true: float, n: int) -> dict:
    """The ``montecarlo`` summary statistics of one `_CEstimates` per
    replicate path of length ``n`` drawn at ``c_true``; a value that
    cannot be computed is a non-finite float, and the normality p-value
    needs at least 20 replicates."""
    columns = _CEstimates(*zip(*estimates))
    sqrt_n = math.sqrt(n)
    c_moment = np.array(columns.c_moment)
    z_c = sqrt_n * (c_moment - c_true)
    z_u = sqrt_n * (np.array(columns.u_bar) - 1.0 / (2.0 - c_true))
    sigma2 = asymptotic_variance(c_true)
    predicted = {name: sigma2 * _convention_factor(c_true, name) for name in VARIANCE_CONVENTIONS}
    var_c = float(np.var(z_c, ddof=1))
    sigma2_exact = asymptotic_variance_exact(c_true)
    half = _half_width(c_true, sigma2_exact, n, "delta_pow4", 0.95)
    stats = {
        "c_true": c_true,
        "empirical_var_sqrt_n_c_moment": var_c,
        "empirical_var_sqrt_n_u_bar": float(np.var(z_u, ddof=1)),
        "sigma2_at_c_true": sigma2,
        "sigma2_exact_at_c_true": sigma2_exact,
        # the share of 95% delta-method intervals of the exact variance
        # that hold c_true
        "ci_coverage": float(np.mean(np.abs(c_moment - c_true) <= half)),
        **{f"predicted_var_{name}": value for name, value in predicted.items()},
        "matching_convention": min(predicted, key=lambda name: abs(var_c - predicted[name])),
        "normality_pvalue": _normality_pvalue(z_c) if len(estimates) >= 20 else None,
    }
    for name in ("c_moment", "c_lebedev", "c_dr"):
        c = np.array(getattr(columns, name))
        stats[f"bias_{name}"] = float(np.mean(c) - c_true)
        stats[f"rmse_{name}"] = float(np.sqrt(np.mean((c - c_true) ** 2)))
    return stats
