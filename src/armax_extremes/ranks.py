"""The rank layer of the estimators: ranks, ties, nan and order statistics.

The rank estimators (`extremal.empirical_mv_extremal_index`,
`taildep.empirical_tdc`, `taildep.empirical_eta`, `taildep.empirical_cells`)
and the Hill index (`estimation.hill_tail_index`) read their sample path,
ranks and order statistics here, so they share one definition of each.
A column is sorted once (`np.sort`, nans last) and a row's rank is its
place in the stable order of its window: ties rank in order of position,
and a window holding a nan ranks every row nan.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import _check_top_k


def _path_data(path) -> np.ndarray:
    """The ``(n, d)`` float data of a path, or of an array; a 1-d series
    is one column."""
    data = np.asarray(getattr(path, "data", path), dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2:
        raise ValueError("path data must be 1-d or 2-d")
    return data


def _top_k(n: int, k: int | None) -> int:
    """``k``, or its default ``min(ceil(sqrt(n)), n - 1)``, as a count of
    upper order statistics of ``n`` values, after `_check_top_k`."""
    if k is None:
        k = min(math.ceil(math.sqrt(n)), n - 1)
    _check_top_k(k, n)
    return k


class _Window(NamedTuple):
    """A column less a set of left-out rows, ranked ordinally.

    ``values`` are the window's rows in row order, ``left_out`` the
    sorted values of the rows left out (a prefix, a suffix or a middle
    block) and ``column`` the whole column sorted (`np.sort`, nans
    last).  A row's rank is its place in the window's stable order:
    equal values (``-0.0 == 0.0`` included) rank in order of position,
    as ``scipy.stats.rankdata(method="ordinal")`` ranks them, and a
    window holding a nan ranks every row nan.  No rank is stored: the
    estimators count the rows whose rank passes a threshold, and a
    threshold is an order statistic of ``column``.
    """

    values: np.ndarray
    left_out: np.ndarray
    column: np.ndarray


def _sorted_columns(data: np.ndarray, columns) -> dict:
    """Each listed column of ``data`` sorted, one `np.sort` copy each."""
    return {j: np.sort(data[:, j]) for j in columns}


def _window(x: np.ndarray, column: np.ndarray, start: int, stop: int) -> _Window:
    """The window ``x[start:stop]`` of the column ``x``, sorted as ``column``."""
    return _Window(x[start:stop], np.sort(np.concatenate((x[:start], x[stop:]))), column)


def _has_nan(window: _Window) -> bool:
    """Whether the window holds a nan: the column holds more nans than
    its left-out rows (`np.sort` and `np.searchsorted` both put nan last)."""
    column, left_out = window.column, window.left_out
    column_nans = column.size - np.searchsorted(column, math.nan)
    return column_nans > left_out.size - np.searchsorted(left_out, math.nan)


def _order_statistic(column: np.ndarray, left_out: np.ndarray, q: int) -> float:
    """The ``q``-th smallest value (``q >= 1``) of the sorted ``column``
    less the sorted values ``left_out``.

    It is the column's ``q``-th value shifted past the left-out values
    ranked below it: a left-out value ``v`` has
    ``searchsorted(column, v) - searchsorted(left_out, v)`` kept values
    below it, and each left-out value with fewer than ``q`` kept values
    below it moves the place in ``column`` up by one.
    """
    below = np.searchsorted(column, left_out) - np.searchsorted(left_out, left_out)
    return column[q - 1 + np.searchsorted(below, q)]


def _top_rows(values: np.ndarray, v: float, count: int) -> np.ndarray:
    """Mask of the ``count`` rows of the nan-free ``values`` ranked
    highest, where ``v`` is the value of rank ``values.size - count``:
    every row above ``v``, and the last rows equal to it, as ties rank
    in order of position."""
    mask = values > v
    ties = count - np.count_nonzero(mask)
    if ties:
        equal = np.flatnonzero(values == v)
        mask[equal[equal.size - ties :]] = True
    return mask


def _top(window: _Window, count: int) -> np.ndarray:
    """Mask of the window's rows ranked above ``m - count``; none when
    the window holds a nan, as no nan rank passes a threshold."""
    m = window.values.size
    if _has_nan(window):
        return np.zeros(m, dtype=bool)
    if count >= m:
        return np.ones(m, dtype=bool)
    v = _order_statistic(window.column, window.left_out, m - count)
    return _top_rows(window.values, v, count)


def _ranks(window: _Window, rows: np.ndarray) -> np.ndarray:
    """The ranks, as floats, of the ascending rows ``rows`` of a nan-free
    window: one plus the number of window rows below each row's value,
    read off the sorted column less the left-out values, plus the number
    of window rows equal to it and before it."""
    column, left_out, values = window.column, window.left_out, window.values
    x = values[rows]
    below = np.searchsorted(column, x) - np.searchsorted(left_out, x)
    equal = np.searchsorted(column, x, "right") - np.searchsorted(left_out, x, "right") - below
    ranks = below + 1.0
    tied = np.flatnonzero(equal > 1)
    if tied.size:
        # the window rows that share a tied value, in row order; a stable
        # sort groups them by value and keeps each group in row order
        shared = np.sort(x[tied])
        # only rows at or above the least tied value can share one
        near = np.flatnonzero(values >= shared[0])
        at = np.minimum(np.searchsorted(shared, values[near]), shared.size - 1)
        peers = near[shared[at] == values[near]]
        order = np.argsort(values[peers], kind="stable")
        grouped = values[peers[order]]
        before = np.empty(peers.size)
        before[order] = np.arange(peers.size) - np.searchsorted(grouped, grouped)
        ranks[tied] += before[np.searchsorted(peers, rows[tied])]
    return ranks


def _top_order_statistics(x: np.ndarray, k: int) -> np.ndarray:
    """The top ``k + 1`` order statistics of the 1-d ``x``, ascending
    (nan last, as `np.sort` puts it), without sorting the rest."""
    return np.sort(np.partition(x, -k - 1)[-k - 1 :])
