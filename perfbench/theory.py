"""The ``theory-sweep`` workload: public library calls with no sample path.

Operations (178 at full size): the lag-TDC of all 16 pairs at lags 0..5,
the process multivariate extremal index on the 80 non-zero rows of
{0, 0.5, 2}^4, the stationarity check, and one derived-copula screen
(validity, extremal coefficients and diagonal sections, computed as the
``copula`` command does).  Each operation's outcome is either a list of
numbers or the name of the exception it raised.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Calls go through the module attributes, so a tracer that replaces them
# sees these calls too.
from armax_extremes import armax, copulas, extremal, taildep
from armax_extremes.armax import ProcessConfig
from armax_extremes.copulas import CopulaSpec, DerivedCopula
from armax_extremes.margins import MarginSpec

CONFIG = ProcessConfig(
    d=4,
    c=(0.5, 0.7, 0.3, 0.9),
    margins=(
        MarginSpec.frechet(1.0),
        MarginSpec.exponential(1.0),
        MarginSpec.gpd(0.2, 1.0),
        MarginSpec.weibull_min(2.0),
    ),
    copula=CopulaSpec.gumbel(2.0),
)
DERIVED = DerivedCopula(base=CopulaSpec.gumbel(2.0), theta=(0.5, 0.7, 0.9))

SIZES = {
    "full": {"lags": 6, "tau_levels": (0.0, 0.5, 2.0), "screen_points": 2048},
    "tiny": {"lags": 2, "tau_levels": (0.0, 2.0), "screen_points": 128},
}


def _tdc(j: int, jp: int, r: int) -> list:
    return [taildep.theoretical_lag_tdc(CONFIG, j, jp, r)]


def _theta(tau: tuple[float, ...]) -> list:
    return [extremal.process_mv_extremal_index(CONFIG, tau).theta]


def _stationarity() -> list:
    res = armax.check_stationarity(CONFIG)
    return [res.stationary, res.series_value, res.n_terms, res.converged]


def _logcdf(spec, log_u: np.ndarray) -> float:
    if isinstance(spec, DerivedCopula):
        return copulas.derived_copula_logcdf(spec, log_u)
    return copulas.copula_logcdf(spec, log_u)


def _screen(points: int) -> list:
    dim = DERIVED.dim
    report = copulas.derived_copula_validity(DERIVED, n_points=points, n_rectangles=points)
    out = [
        report.valid,
        report.max_lower_violation,
        report.max_upper_violation,
        float(report.max_margin_violation),
        report.min_rectangle_mass,
    ]
    log_half = math.log(0.5)
    for m in range(2, dim + 1):
        out.append(_logcdf(DERIVED.base, np.full(m, log_half)) / log_half)
    out.append(_logcdf(DERIVED, np.full(dim, log_half)) / log_half)
    for spec in (DERIVED.base, DERIVED):
        for p in np.linspace(0.1, 0.9, 9):
            out.append(math.exp(_logcdf(spec, np.full(dim, math.log(p)))))
    return out


def operations(size: str) -> list[tuple[str, object]]:
    """``(key, thunk)`` for every operation of one sweep, in a fixed order."""
    sz = SIZES[size]
    d = CONFIG.d
    ops: list[tuple[str, object]] = []
    for j, jp, r in itertools.product(range(d), range(d), range(sz["lags"])):
        ops.append((f"tdc:{j},{jp},{r}", lambda j=j, jp=jp, r=r: _tdc(j, jp, r)))
    for tau in itertools.product(sz["tau_levels"], repeat=d):
        if any(tau):
            ops.append((f"theta:{','.join(map(str, tau))}", lambda tau=tau: _theta(tau)))
    ops.append(("stationarity", _stationarity))
    ops.append(("screen", lambda: _screen(sz["screen_points"])))
    return ops


def run_op(thunk):
    """An operation's values, or the name of the exception it raised.

    Any exception is an outcome here, so one failing cell does not stop
    the sweep.
    """
    try:
        return thunk()
    except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
        return type(exc).__name__


def run_sweep(ops: list, order: list[int]) -> dict:
    """Run ``ops`` in ``order``; map each key to its outcome."""
    return {ops[i][0]: run_op(ops[i][1]) for i in order}
