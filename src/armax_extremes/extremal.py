"""Extremal indices of ARMAX processes: theory and estimation.

Componentwise, an ARMAX process with coefficient ``c_j`` and a margin in
the Frechet domain with index ``alpha_j`` clusters at high levels with
marginal extremal index ``1 - c_j**alpha_j``; margins with lighter tails
do not cluster (index one).  Jointly, for a threshold direction ``tau``
the multivariate extremal index is

    theta(tau) = 1 - log C_I(exp(-tau_j c_j**alpha_j), j in I)
                     / log C(exp(-tau)),

where ``C`` is the copula of the innovation rows, ``I`` is the set of
Frechet-domain components and ``C_I`` the sub-copula obtained by setting
every other argument to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .armax import ProcessConfig, stationary_joint_logcdf, stationary_marginal_quantile
from .copulas import CopulaSpec, DerivedCopula, copula_logcdf
from .errors import UndefinedResultError
from .margins import DomainTag, attraction_domain
from .taildep import _ordinal_ranks

__all__ = [
    "ExtremalIndexResult",
    "marginal_extremal_index",
    "theoretical_mv_extremal_index",
    "process_mv_extremal_index",
    "empirical_extremal_index_runs",
    "empirical_mv_extremal_index",
]


@dataclass(frozen=True)
class ExtremalIndexResult:
    """Multivariate extremal index at direction ``tau``.

    ``index_set`` lists the Frechet-domain components (those that
    cluster); ``marginal_thetas`` are the per-component indices.
    """

    theta: float
    tau: tuple[float, ...]
    index_set: tuple[int, ...]
    marginal_thetas: tuple[float, ...]


def marginal_extremal_index(c: float, domain: DomainTag) -> float:
    """Extremal index of one component: ``1 - c**alpha`` in the Frechet
    domain, one otherwise."""
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    if domain.is_frechet:
        return 1.0 - c**domain.alpha
    return 1.0


def _index_levels(domains, c, tau, batch: bool = False):
    """Validated levels of ``theta(tau)``: the index set and ``[tau, num]``.

    Returns the Frechet-domain index set and the ``(..., 2, d)`` rows
    ``[tau, num]``, with ``num_j = tau_j * c_j**alpha_j`` on the index
    set and 0 elsewhere.  ``tau`` is one ``(d,)`` direction or, with
    ``batch``, also an ``(m, d)`` grid of them; each must be nonnegative
    with at least one positive entry.
    """
    d = len(domains)
    c = np.asarray(c, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if c.shape != (d,) or tau.ndim not in (1, 1 + batch) or tau.shape[-1] != d:
        grid = f" or (m, {d})" if batch else ""
        raise ValueError(f"c must have shape ({d},) and tau shape ({d},){grid}")
    if (tau < 0).any() or not (tau > 0).any(axis=-1).all():
        raise ValueError("tau must be nonnegative with at least one positive entry")
    index_set = tuple(j for j, dom in enumerate(domains) if dom.is_frechet)
    levels = np.zeros(tau.shape[:-1] + (2, d))
    levels[..., 0, :] = tau
    for j in index_set:
        # a scalar power: numpy's array power can differ from it by an ulp
        levels[..., 1, j] = tau[..., j] * c[j] ** domains[j].alpha
    return index_set, levels


def _index_result(theta: float, levels: np.ndarray, index_set, domains, c) -> ExtremalIndexResult:
    return ExtremalIndexResult(
        theta=float(theta),
        tau=tuple(levels[0].tolist()),
        index_set=index_set,
        marginal_thetas=tuple(
            marginal_extremal_index(float(cj), dom) for cj, dom in zip(c, domains)
        ),
    )


def theoretical_mv_extremal_index(
    copula: CopulaSpec | DerivedCopula,
    domains,
    c,
    tau,
) -> ExtremalIndexResult:
    """Multivariate extremal index of the stationary process.

    ``copula`` is the copula of the stationary law (a base family or a
    derived one), ``domains`` the per-component `DomainTag` sequence and
    ``c`` the autoregression coefficients.  ``tau`` must be nonnegative
    with at least one positive entry.  The numerator and denominator are
    formed in log space, so ratios of tiny copula values stay exact.
    """
    domains = list(domains)
    c = np.asarray(c, dtype=float)
    index_set, levels = _index_levels(domains, c, tau)
    if np.any(c <= 0) or np.any(c >= 1):
        raise ValueError("autoregression coefficients must lie in (0, 1)")
    theta = 1.0
    if index_set:
        log_den, log_num = copula_logcdf(copula, -levels).tolist()
        theta = 1.0 - log_num / log_den
    return _index_result(theta, levels, index_set, domains, c)


def process_mv_extremal_index(config: ProcessConfig, tau) -> ExtremalIndexResult:
    """Multivariate extremal index implied by a full process configuration.

    Unlike `theoretical_mv_extremal_index`, which takes the copula of
    the stationary law as given, this evaluates that copula numerically
    from the innovation model: stationary marginal quantiles map
    ``exp(-tau)`` levels to points, and the truncated stationary product
    supplies the joint log CDF.  Components with ``tau_j = 0`` sit at
    argument one and are marginalized out.
    """
    domains = [attraction_domain(m) for m in config.margins]
    index_set, levels = _index_levels(domains, config.c, tau)
    theta = 1.0
    if index_set:
        # components without a positive level sit at x_j = inf, which
        # marginalizes them out of the stationary law (an all-inf row
        # gives log F = 0)
        x = np.full(levels.shape, math.inf)
        for i, j in zip(*np.nonzero(levels > 0)):
            x[i, j] = stationary_marginal_quantile(
                config.margins[j], config.c[j], math.exp(-levels[i, j])
            )
        log_den, log_num = stationary_joint_logcdf(config, x).tolist()
        theta = 1.0 - log_num / log_den
    return _index_result(theta, levels, index_set, domains, config.c)


def empirical_extremal_index_runs(series, threshold: float, run_gap: int = 1) -> float:
    """Runs estimator of the extremal index of one series.

    Exceedances of ``threshold`` separated by at least ``run_gap``
    non-exceedances start new clusters; the estimate is the number of
    clusters over the number of exceedances.  Raises
    `UndefinedResultError` when nothing exceeds the threshold.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("series must be a non-empty 1-d array")
    if run_gap < 1:
        raise ValueError("run_gap must be at least 1")
    idx = np.flatnonzero(x > threshold)
    if idx.size == 0:
        raise UndefinedResultError("no exceedance above the threshold")
    gaps = np.diff(idx) - 1
    clusters = 1 + int(np.count_nonzero(gaps >= run_gap))
    return clusters / idx.size


def empirical_mv_extremal_index(
    path,
    domains,
    c_est,
    k: int | None,
    tau,
) -> float | np.ndarray:
    """Rank-based estimator of the multivariate extremal index.

    Marginal ranks replace the unknown stationary margins: component
    ``j`` exceeds its level when its rank is above ``n - k * x_j``,
    first with ``x = tau`` (denominator) and then with
    ``x_j = tau_j * c_j**alpha_j`` on the Frechet-domain components only
    (numerator).  ``k`` defaults to ``ceil(sqrt(n))``.  The ratio is
    clamped to ``[0, 1]``.  A ``(d,)`` direction ``tau`` gives a float;
    an ``(m, d)`` grid gives an ``(m,)`` array, ranking each column once
    for the whole grid.  Raises `UndefinedResultError` when no
    observation exceeds the levels of some direction.
    """
    data = np.asarray(getattr(path, "data", path), dtype=float)
    if data.ndim != 2:
        raise ValueError("path data must be a 2-d array")
    n, d = data.shape
    domains = list(domains)
    if len(domains) != d:
        raise ValueError("domains must match the number of columns")
    index_set, levels = _index_levels(domains, c_est, tau, batch=True)
    if k is None:
        k = math.ceil(math.sqrt(n))
    if not 0 < k < n:
        raise ValueError("k must lie strictly between 0 and n")

    if not index_set:
        theta = np.ones(levels.shape[:-2])
    else:
        # one row of ranks per column: the union over columns is then an
        # OR of contiguous rows, not a reduction along a short axis
        ranks = np.stack(
            [_ordinal_ranks(data[:, j], np.argsort(data[:, j], kind="stable")) for j in range(d)]
        )
        # numerator levels are 0 off the index set, and no rank exceeds n
        counts = np.array(
            [
                np.count_nonzero((ranks > (n - k * x)[:, None]).any(axis=0))
                for x in levels.reshape(-1, d)
            ]
        ).reshape(levels.shape[:-1])
        denominator, numerator = counts[..., 0], counts[..., 1]
        if np.any(denominator == 0):
            raise UndefinedResultError("no observation exceeds the tau levels")
        theta = np.clip(1.0 - numerator / denominator, 0.0, 1.0)
    return float(theta) if levels.ndim == 2 else theta
