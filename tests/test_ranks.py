"""Tests for the rank layer: order statistics and top-rank masks of a
window, against ``scipy.stats.rankdata``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armax_extremes import ranks
from armax_extremes.armax import ProcessConfig, simulate_path
from armax_extremes.copulas import CopulaSpec
from armax_extremes.extremal import empirical_mv_extremal_index
from armax_extremes.margins import MarginSpec, attraction_domain
from armax_extremes.ranks import _order_statistic, _top, _Window
from armax_extremes.taildep import empirical_cells, empirical_eta, empirical_tdc


def _rankdata(values):
    """Ordinal ranks as floats, all nan for a window holding a nan."""
    from scipy.stats import rankdata

    return np.asarray(rankdata(values, method="ordinal"), dtype=float)


def _middle_window(x, a, b):
    """The column ``x`` less the middle block ``x[a:b]``."""
    return _Window(np.concatenate((x[:a], x[b:])), np.sort(x[a:b]), np.sort(x))


def _assert_tops_match_rankdata(window):
    m = window.values.size
    ranks = _rankdata(window.values)
    for count in range(m + 2):
        assert np.array_equal(_top(window, count), ranks > m - count)


def test_window_tops_match_rankdata():
    rng = np.random.default_rng(5)
    x = rng.integers(0, 20, 500).astype(float)  # heavy ties
    x[::37] = -0.0  # ties with 0.0
    n = x.size
    column = np.sort(x)
    # a window's order statistics are the column's, shifted past the
    # left-out rows below them
    for window in (ranks._window(x, column, 7, n), _middle_window(x, 100, 300)):
        ordered = np.sort(window.values)
        for q in range(1, ordered.size + 1):
            assert _order_statistic(column, window.left_out, q) == ordered[q - 1]
    # every window's thresholds are read off the one sorted column: a
    # lagged head or tail, or the column less a middle block
    for r in (0, 1, 7, 250, 498):
        for window in (ranks._window(x, column, 0, n - r), ranks._window(x, column, r, n)):
            _assert_tops_match_rankdata(window)
    _assert_tops_match_rankdata(_middle_window(x, 100, 300))
    # a window holding a nan has no row above any threshold
    x[10] = math.nan
    column = np.sort(x)
    assert not _top(ranks._window(x, column, 0, 100), 50).any()
    assert not _top(_middle_window(x, 200, 300), 50).any()
    _assert_tops_match_rankdata(ranks._window(x, column, 11, n))
    _assert_tops_match_rankdata(_middle_window(x, 5, 11))


_TIES = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0]


@settings(max_examples=300, database=None)
@given(st.lists(st.sampled_from(_TIES) | st.floats(), min_size=1, max_size=80), st.data())
def test_window_tops_match_rankdata_on_any_window(values, data):
    # forced ties, signed zeros, nan and infinities among any floats
    x = np.array(values)
    n = x.size
    column = np.sort(x)
    a, b = sorted(data.draw(st.tuples(st.integers(0, n), st.integers(0, n))))
    for window in (ranks._window(x, column, a, b), _middle_window(x, a, b)):
        if window.values.size and np.isnan(window.values).any():
            assert not _top(window, window.values.size // 2).any()
        else:
            _assert_tops_match_rankdata(window)


def test_every_rank_estimator_reads_a_series_as_one_column():
    # one path rule (`ranks._path_data`) for theta, lambda and eta
    margin = MarginSpec.frechet(1.0)
    path = simulate_path(ProcessConfig(1, (0.5,), (margin,), CopulaSpec.independence()), 2_000, 3)
    series = path.data[:, 0]
    calls = [
        lambda p: empirical_tdc(p, 0, 0, 1, 0.05),
        lambda p: empirical_eta(p, 0, 0, 1),
        lambda p: empirical_cells(p, [(0, 0, 1), (0, 0, 2)], 0.05),
        lambda p: empirical_mv_extremal_index(p, [attraction_domain(margin)], [0.5], None, [[1.0], [2.0]]).tolist(),
    ]
    for call in calls:
        assert call(series) == call(path) == call(path.data)
        with pytest.raises(ValueError, match=r"^path data must be 1-d or 2-d$"):
            call(path.data[None])
