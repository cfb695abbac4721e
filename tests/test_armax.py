"""Tests for ARMAX simulation, stationarity, and stationary distributions."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, ks_2samp

from armax_extremes import armax
from armax_extremes.armax import (
    InitPolicy,
    ProcessConfig,
    apply_recursion,
    check_stationarity,
    normalized_level,
    simulate_path,
    stationary_joint_cdf,
    stationary_joint_logcdf,
    stationary_marginal_cdf,
    stationary_marginal_logcdf,
    stationary_marginal_quantile,
)
from armax_extremes.copulas import CopulaSpec, copula_logcdf, copula_sample
from armax_extremes.errors import ConfigurationError, NumericLimitError
from armax_extremes.margins import (
    MarginSpec,
    margin_cdf,
    margin_quantile,
    right_endpoint,
)

FRECHET1 = MarginSpec.frechet(1.0)
INDEP = CopulaSpec.independence()


def d1_config(c=0.5, margin=FRECHET1, init=None):
    return ProcessConfig(1, (c,), (margin,), INDEP, init)


# ------------------------------------------------------------- construction


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ProcessConfig(0, (), (), INDEP)
    with pytest.raises(ConfigurationError):
        ProcessConfig(2, (0.5,), (FRECHET1, FRECHET1), INDEP)  # c length
    with pytest.raises(ConfigurationError):
        ProcessConfig(1, (1.0,), (FRECHET1,), INDEP)  # c not in (0,1)
    with pytest.raises(ConfigurationError):
        ProcessConfig(1, (0.0,), (FRECHET1,), INDEP)
    with pytest.raises(ConfigurationError):
        ProcessConfig(1, (0.5,), ("frechet",), INDEP)  # margin type
    with pytest.raises(ConfigurationError):
        ProcessConfig(1, (0.5,), (FRECHET1,), "independence")  # copula type
    with pytest.raises(ConfigurationError):
        ProcessConfig(1, (0.5,), (FRECHET1,), INDEP, init="burn_in")


def test_init_policy_validation():
    with pytest.raises(ValueError):
        InitPolicy("warm_start")
    with pytest.raises(ValueError):
        InitPolicy("burn_in")  # missing length
    with pytest.raises(ValueError):
        InitPolicy("burn_in", length=-1)
    with pytest.raises(ValueError):
        InitPolicy("exact_marginal", length=10)
    assert InitPolicy.burn_in().length == 1000
    # a length is an integer: not a fraction, which was truncated or
    # failed only once a path was drawn, not a boolean and not a float
    for length in (1.5, 2.5, 3.0, True, False, "3", math.inf, math.nan):
        with pytest.raises(ValueError, match="burn_in length must be an integer"):
            InitPolicy("burn_in", length)
        with pytest.raises(ValueError, match="burn_in length must be an integer"):
            InitPolicy.burn_in(length)
    # a numpy integer counts as its integer
    for length in (np.int64(3), np.int32(3)):
        policy = InitPolicy.burn_in(length)
        assert policy == InitPolicy.burn_in(3) and type(policy.length) is int
        assert simulate_path(d1_config(init=policy), 5, 1).init_used == "burn_in:3"


def test_config_digest_tracks_content():
    a = d1_config(0.5)
    b = d1_config(0.5)
    assert a.digest() == b.digest()
    assert d1_config(0.6).digest() != a.digest()
    assert set(a.to_dict()) == {"d", "c", "margins", "copula", "init"}


def test_config_from_dict_round_trip_and_errors():
    cfg = ProcessConfig(
        2,
        (0.5, 0.7),
        (FRECHET1, MarginSpec.gpd(0.2, 1.0)),
        CopulaSpec.gumbel(2.0),
        InitPolicy.exact_marginal(),
    )
    assert ProcessConfig.from_dict(cfg.to_dict()) == cfg
    assert ProcessConfig.from_dict(d1_config().to_dict()).init == InitPolicy.burn_in()
    base = cfg.to_dict()
    derived = {"kind": "derived", "base": base["copula"], "theta": [0.5, 0.7]}
    bad = [
        ("not a dict", "process must be a JSON object"),
        ({**base, "extra": 1}, "unknown process fields"),
        ({k: v for k, v in base.items() if k != "c"}, "requires the field 'c'"),
        ({**base, "init": {"kind": "warm"}}, "unknown init kind"),
        ({**base, "init": {"kind": "burn_in"}}, "bad init"),
        ({**base, "init": {"kind": "exact_marginal", "x": 1}}, "unknown init fields"),
        ({**base, "c": [0.5, "x"]}, "bad process config"),
        ({**base, "c": [0.5, 1.5]}, "must lie in (0, 1)"),
        ({**base, "copula": derived}, "innovation copula must be a base family"),
    ]
    for data, message in bad:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            ProcessConfig.from_dict(data)


def test_default_init_is_burn_in():
    assert d1_config().init == InitPolicy.burn_in()
    assert d1_config() == d1_config(init=InitPolicy.burn_in())
    assert d1_config().to_dict()["init"] == {"kind": "burn_in", "length": 1000}


def test_config_digests_pinned():
    # digests written before the config codec was table-driven
    cfg = ProcessConfig(2, (0.5, 0.9), (FRECHET1, FRECHET1), CopulaSpec.gumbel(2.0))
    assert cfg.digest() == "c12603dcfff253702e0f1974f30a2c78d704cc56efd66907801df65a1ea18b68"
    cfg = ProcessConfig(
        2,
        (0.5, 0.9),
        (FRECHET1, MarginSpec.gpd(0.2, 1.0)),
        CopulaSpec.gumbel(2.0),
        InitPolicy.exact_marginal(),
    )
    assert cfg.digest() == "0a3197d373a9d1121cf9b0ad75abdb713d4b8d6f2b8647440affa23e7cbc4402"
    assert ProcessConfig.from_dict(cfg.to_dict()).digest() == cfg.digest()


def test_digest_is_hashed_once_per_config(monkeypatch):
    hashed = []
    config_digest = armax.config_digest
    monkeypatch.setattr(armax, "config_digest", lambda data: hashed.append(data) or config_digest(data))
    cfg = d1_config()
    digests = {simulate_path(cfg, 10, seed).config_digest for seed in range(3)}
    assert digests == {cfg.digest()}
    assert len(hashed) == 1


def test_config_from_dict_refuses_malformed_values():
    base = d1_config().to_dict()
    bad = [
        ({**base, "d": 1.7}, "bad process config: d: must be an integer"),
        ({**base, "d": True}, "bad process config: d: must be an integer"),
        ({**base, "c": 0.5}, "bad process config: c: must be a list"),
        ({**base, "init": 5}, "init must be a JSON object"),
        ({**base, "init": {"kind": "burn_in", "length": 2.5}}, "bad init config: length"),
        ({**base, "margins": [{"kind": "frechet", "alpha": math.inf}]}, "bad margin config: alpha"),
    ]
    for data, message in bad:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            ProcessConfig.from_dict(data)


# ----------------------------------------------------------------- recursion


def test_forced_innovation_path():
    out = apply_recursion(0.5, 1.0, [2.0, 0.1, 0.1])
    assert np.array_equal(out, [2.0, 1.0, 0.5])


def test_apply_recursion_vector_c():
    innov = np.array([[2.0, 1.0], [0.1, 0.1], [0.1, 0.1]])
    out = apply_recursion([0.5, 0.9], [1.0, 1.0], innov)
    assert np.array_equal(out[:, 0], [2.0, 1.0, 0.5])
    assert np.array_equal(out[:, 1], [1.0, 0.9, 0.81])


def test_apply_recursion_rejects_bad_c():
    with pytest.raises(ValueError):
        apply_recursion(1.0, 1.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        apply_recursion(0.0, 1.0, [1.0, 2.0])


@pytest.mark.parametrize("innovations", [np.ones((2, 2, 2)), 3.0], ids=["3-d", "scalar"])
def test_apply_recursion_rejects_other_shapes(innovations):
    with pytest.raises(ValueError, match="1-d or 2-d"):
        apply_recursion(0.5, 1.0, innovations)


def test_apply_recursion_leaves_its_input_unchanged():
    # the recursion runs in place on a copy: the caller's float64 array,
    # which np.asarray would not copy, keeps its innovations
    y = 1.0 / -np.log(np.random.default_rng(8).random((20_000, 2)))
    before = y.copy()
    out = apply_recursion([0.5, 0.9], [1.0, 2.0], y)
    assert not np.shares_memory(out, y)
    assert np.array_equal(_bits(y), _bits(before))
    assert not np.array_equal(out, y)


# values where a lane could part from the scalar loop: nan, infinities,
# signed zeros, and powers of two, whose products with c = 1/2 or 1/4
# tie with the next innovation exactly
_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, 1.0, 2.0, 4.0]
_VALUES = st.sampled_from(_SPECIAL) | st.floats()
_C = st.sampled_from([0.5, 0.25]) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _innovations(draw, n):
    """``n`` unit Frechet draws with a share of them replaced by values
    from a small palette of `_VALUES`."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    palette = np.array(draw(st.lists(_VALUES, min_size=1, max_size=4), label="palette"))
    share = draw(st.sampled_from([0.0, 0.01, 0.3, 1.0]), label="share")
    y = 1.0 / -np.log(rng.random(n))
    special = rng.random(n) < share
    y[special] = rng.choice(palette, size=int(special.sum()))
    return y


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def _lockstep(c, x0, y, length, sweeps=armax._MAX_SWEEPS):
    """`armax._lockstep_column` on a copy of the columns ``y`` ``(K, n)``
    started from ``x0``, the start in row 0 and strided as
    `_simulate_batch` passes them, with at most ``sweeps`` sweeps.

    Returns the paths and, per column, the rows the scalar loop ran
    after the sweeps (from the frontier block on, ragged tail included).
    """
    tails = []
    recurse = armax._recurse_column

    def spy(c, path):
        tails.append(len(path) - 1)
        recurse(c, path)

    path = np.empty((len(y), y.shape[1] + 1, 2))[..., 0]
    path[:, 0] = x0
    path[:, 1:] = y
    with mock.patch.object(armax, "_recurse_column", spy), \
            mock.patch.object(armax, "_MAX_SWEEPS", sweeps):
        armax._lockstep_column(c, path, length)
    return path[:, 1:], tails


def _scalar_loop(c, x0, y):
    path = np.concatenate(([x0], y)).astype(float)
    armax._recurse_column(c, path)
    return path[1:]


def _spy_lanes(monkeypatch):
    """Record, per call `armax._recurse` makes, whether the lane sweeps
    (``"lanes"``, once for all replicates of a column) or the scalar
    loop (``"scalar"``, once per replicate) ran a column; both still
    compute, and the scalar tails of the lane sweeps are not recorded."""
    ran = []
    lockstep, recurse = armax._lockstep_column, armax._recurse_column

    def lanes(*args):
        ran.append("lanes")
        with mock.patch.object(armax, "_recurse_column", recurse):
            lockstep(*args)

    def scalar(*args):
        ran.append("scalar")
        recurse(*args)

    monkeypatch.setattr(armax, "_lockstep_column", lanes)
    monkeypatch.setattr(armax, "_recurse_column", scalar)
    return ran


@given(st.data())
def test_apply_recursion_equals_scalar_loop_bit_for_bit(data):
    # the longer columns run as lanes for small c, unless a start or an
    # innovation is signed or a start is nan
    n = data.draw(st.integers(1, 3000) | st.sampled_from([4000, 6000]), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    c = [data.draw(_C, label="c") for _ in range(d)]
    x0 = [data.draw(_VALUES, label="x0") for _ in range(d)]
    y = np.column_stack([data.draw(_innovations(n), label="innovations") for _ in range(d)])
    out = apply_recursion(c, x0, y)
    for j in range(d):
        assert np.array_equal(_bits(out[:, j]), _bits(_scalar_loop(c[j], x0[j], y[:, j])))


@pytest.mark.parametrize(
    "n, route",
    [(1, "scalar"), (2, "scalar"), (3, "scalar"), (7, "scalar"), (20, "scalar"), (20_000, "lanes")],
)
def test_apply_recursion_keeps_the_sign_of_zero(monkeypatch, n, route):
    # 0.0 > -0.0 is false, so the scalar loop keeps x0 = -0.0 all along,
    # where fmax could take 0.0: the -0.0 column runs on the scalar loop
    # at every length, and the +0.0 column beside it keeps +0.0 on the
    # scalar loop of a short column and on the lanes of a long one
    ran = _spy_lanes(monkeypatch)
    out = apply_recursion(0.5, [-0.0, 0.0], np.zeros((n, 2)))
    assert ran == ["scalar", route]
    assert np.array_equal(_bits(out), _bits(np.array([[-0.0, 0.0]] * n)))


_C_GRID = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999)


@pytest.mark.parametrize("n, lanes_up_to", [(10, 0.0), (10_000, 0.9), (200_000, 0.995)])
def test_lane_rule_is_pinned(monkeypatch, n, lanes_up_to):
    # short columns and c near 1 stay on the scalar loop, where a lane
    # sweep would be slower (timings in CHANGES.md)
    ran = []
    monkeypatch.setattr(armax, "_lockstep_column", lambda c, *args: ran.append((c, "lanes")))
    monkeypatch.setattr(armax, "_recurse_column", lambda c, *args: ran.append((c, "scalar")))
    armax._recurse(_C_GRID, np.zeros((1, 1 + n, len(_C_GRID))))
    assert ran == [(c, "lanes" if c <= lanes_up_to else "scalar") for c in _C_GRID]


def test_lane_block_lengths_are_pinned():
    assert [armax._block_length(c, 11_000) for c in (0.3, 0.5, 0.9, 0.99)] == [26, 26, 61, 0]
    assert [armax._block_length(c, 201_000) for c in (0.5, 0.9, 0.99, 0.999)] == [112, 112, 600, 0]


# values with no sign bit, as every simulated column holds: +0.0, +inf,
# +nan and powers of two, whose products with c = 1/2 or 1/4 tie with
# the next innovation exactly
_UNSIGNED_SPECIAL = [0.0, math.inf, math.nan, 0.5, 1.0, 2.0, 4.0]
_UNSIGNED = st.sampled_from(_UNSIGNED_SPECIAL) | st.floats(min_value=0.0, allow_infinity=True)


@st.composite
def _unsigned_innovations(draw, n):
    """``n`` unit Frechet draws with a share of them replaced by values
    from a small palette of `_UNSIGNED`."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    palette = np.array(draw(st.lists(_UNSIGNED, min_size=1, max_size=4), label="palette"))
    share = draw(st.sampled_from([0.0, 0.01, 0.3, 1.0]), label="share")
    y = 1.0 / -np.log(rng.random(n))
    special = rng.random(n) < share
    y[special] = rng.choice(palette, size=int(special.sum()))
    return y


@given(st.data())
def test_lockstep_column_equals_scalar_loop_bit_for_bit(data):
    # a batch of columns as `_recurse` gives the lanes: starts that are
    # not nan and, like the innovations, carry no sign bit; signed and
    # nan columns run on the scalar loop (see the apply_recursion test)
    n = data.draw(st.integers(1, 3000), label="n")
    c = data.draw(_C, label="c")
    x0 = data.draw(st.lists(_UNSIGNED.filter(lambda v: not math.isnan(v)), min_size=1,
                            max_size=9), label="x0")
    # one block or more, exact multiples or a ragged tail, and columns
    # shorter than one block
    length = data.draw(st.integers(1, n + 2), label="block length")
    sweeps = data.draw(st.integers(1, armax._MAX_SWEEPS), label="sweeps")
    # strided columns, as simulate_path passes them
    y = np.empty((len(x0), n, 2))[..., 0]
    for k in range(len(x0)):
        y[k] = data.draw(_unsigned_innovations(n), label="innovations")
    out, tails = _lockstep(c, x0, y, length, sweeps)
    for k in range(len(x0)):
        assert np.array_equal(_bits(out[k]), _bits(_scalar_loop(c, x0[k], y[k])))
    # one frontier for the lane array: every column's scalar loop starts there
    assert len(set(tails)) == 1


@pytest.mark.parametrize("share", [0.01, 0.3])
@pytest.mark.parametrize("sweeps", [1, 2])
def test_scalar_finish_over_swept_rows_equals_scalar_loop(monkeypatch, sweeps, share):
    # after one or two sweeps most blocks are not yet exact, so the
    # scalar loop finishes each column over rows a sweep overwrote with
    # its states, not over the innovations; nan, inf and zero
    # innovations and an inf start keep their bits there too
    n = 20_000
    c, x0 = [0.3, 0.5, 0.9], [1.0, 0.0, math.inf]
    rng = np.random.default_rng(sweeps)
    y = 1.0 / -np.log(rng.random((n, len(c))))
    special = rng.random(y.shape) < share
    y[special] = rng.choice([math.nan, math.inf, 0.0], size=int(special.sum()))
    over_swept_rows = []
    for j in range(len(c)):
        length = armax._block_length(c[j], n)
        path, tails = _lockstep(c[j], [x0[j]], y[None, :, j], length, sweeps)
        expected = _scalar_loop(c[j], x0[j], y[:, j])
        assert np.array_equal(_bits(path[0]), _bits(expected))
        over_swept_rows.append(tails[0] > n % length)
    assert any(over_swept_rows)
    monkeypatch.setattr(armax, "_MAX_SWEEPS", sweeps)
    ran = _spy_lanes(monkeypatch)
    out = apply_recursion(c, x0, y)
    assert ran == ["lanes"] * len(c)
    for j in range(len(c)):
        assert np.array_equal(_bits(out[:, j]), _bits(_scalar_loop(c[j], x0[j], y[:, j])))


_NEG_NAN = float(np.copysign(math.nan, -1.0))


@pytest.mark.parametrize(
    "x0, special, lanes",
    [
        (1.0, None, True),
        (0.0, 0.0, True),
        (math.inf, math.nan, True),
        (1.0, math.inf, True),
        (math.nan, None, False),
        (_NEG_NAN, None, False),
        (-0.0, None, False),
        (-1.0, None, False),
        (-math.inf, None, False),
        (1.0, -0.0, False),
        (1.0, -1.0, False),
        (1.0, _NEG_NAN, False),
        (1.0, -math.inf, False),
    ],
    ids=[
        "unsigned", "zeros", "inf-start-nan-innovation", "inf-innovation",
        "nan-start", "negative-nan-start", "negative-zero-start", "negative-start",
        "negative-inf-start", "negative-zero-innovation", "negative-innovation",
        "negative-nan-innovation", "negative-inf-innovation",
    ],
)
def test_lanes_or_scalar_is_pinned(monkeypatch, x0, special, lanes):
    # lanes only where no lane can meet a nan state or zeros of opposite
    # sign: no sign bit on x0 or on any innovation, and x0 not nan, in
    # any replicate of the column; the column is run alone and between
    # two clean ones, long enough for lanes
    n = 2000
    assert armax._block_length(0.5, n)
    y = 1.0 / -np.log(np.random.default_rng(4).random((3, n, 1)))
    if special is not None:
        y[1, 1057] = special
    ran = _spy_lanes(monkeypatch)
    for batch in ([1], [0, 1, 2]):
        ran.clear()
        starts = np.array([[x0 if k == 1 else 1.0] for k in batch])
        path = np.concatenate((starts[:, None], y[batch]), axis=1)
        armax._recurse([0.5], path)
        out = path[:, 1:]
        assert ran == (["lanes"] if lanes else ["scalar"] * len(batch))
        for k in range(len(batch)):
            expected = _scalar_loop(0.5, starts[k, 0], y[batch[k], :, 0])
            assert np.array_equal(_bits(out[k, :, 0]), _bits(expected))


_ALL_MARGINS = [
    FRECHET1,
    MarginSpec.frechet(0.2),
    MarginSpec.exponential(1.0),
    MarginSpec.exponential(1e300),
    MarginSpec.uniform01(),
    MarginSpec.gpd(0.5, 1.0),
    MarginSpec.gpd(0.0, 1.0),
    MarginSpec.gpd(-0.5, 1.0),
    MarginSpec.weibull_min(0.5),
    MarginSpec.weibull_min(3.0),
]
_MARGIN_IDS = ["frechet", "frechet-0.2", "exponential", "exponential-1e300", "uniform01",
               "gpd+", "gpd0", "gpd-", "weibull_min-0.5", "weibull_min-3"]


@pytest.mark.parametrize("margin", _ALL_MARGINS, ids=_MARGIN_IDS)
def test_margin_quantiles_carry_no_sign_bit(margin):
    # the copula draws are clipped to [1e-300, 1 - 1e-16], so these are
    # the extremes of every innovation and burn-in start of a path
    values = margin_quantile(margin, np.array([1e-300, 0.5, 1.0 - 1e-16]))
    assert not np.signbit(values).any() and not np.isnan(values).any()


@pytest.mark.parametrize("init", [None, InitPolicy.exact_marginal()], ids=["burn_in", "exact"])
@pytest.mark.parametrize("margin", _ALL_MARGINS, ids=_MARGIN_IDS)
def test_simulated_columns_take_the_lanes(monkeypatch, margin, init):
    # the lanes serve every simulated column long enough for them; equal
    # c keeps the exact start of Frechet margins exact
    ran = _spy_lanes(monkeypatch)
    cfg = ProcessConfig(2, (0.5, 0.5), (margin, margin), CopulaSpec.gumbel(2.0), init)
    simulate_path(cfg, 10_000, 5)
    assert ran == ["lanes", "lanes"]


def _reference_path(cfg, n, seed):
    """A path drawn seed by seed from public pieces: the start value and
    the innovations of each column transformed apart, on contiguous
    arrays, and the scalar loop."""
    rng = np.random.default_rng(seed)
    burn, scales = armax._start(cfg)
    u0 = copula_sample(cfg.copula, cfg.d, rng)
    u = copula_sample(cfg.copula, cfg.d, rng, size=burn + n)
    path = np.empty_like(u)
    for j, (c, m) in enumerate(zip(cfg.c, cfg.margins)):
        x0 = margin_quantile(m, u0[j])
        if scales is not None:
            x0 = armax._frechet_scale(m.alpha, c) * x0
        path[:, j] = _scalar_loop(c, x0, margin_quantile(m, np.ascontiguousarray(u[:, j])))
    return path[burn:]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_equals_simulate_path_seed_by_seed(data):
    # every margin kind, independence and Gumbel copulas, burn-in and
    # exact starts; n up to 2500 puts c = 0.5 columns on the lane sweeps
    d = data.draw(st.integers(1, 3), label="d")
    frechet = data.draw(st.booleans(), label="frechet only")
    kinds = [m for m in _ALL_MARGINS if m.kind == "frechet"] if frechet else _ALL_MARGINS
    margins = data.draw(st.lists(st.sampled_from(kinds), min_size=d, max_size=d), label="margins")
    c = data.draw(st.lists(st.sampled_from([0.3, 0.5, 0.9]), min_size=d, max_size=d), label="c")
    copula = data.draw(st.sampled_from([INDEP, CopulaSpec.gumbel(1.5), CopulaSpec.gumbel(3.0)]),
                       label="copula")
    init = data.draw(st.sampled_from([InitPolicy.exact_marginal()])
                     | st.integers(0, 300).map(InitPolicy.burn_in), label="init")
    cfg = ProcessConfig(d, tuple(c), tuple(margins), copula, init)
    n = data.draw(st.just(2500) | st.integers(1, 2500), label="n")
    seeds = [(data.draw(st.integers(0, 2**32), label="master"), k)
             for k in range(data.draw(st.integers(2, 6), label="K"))]
    block = armax._simulate_batch(cfg, n, seeds)
    for k, seed in enumerate(seeds):
        alone = simulate_path(cfg, n, seed).data
        assert np.array_equal(_bits(block[k, -n:]), _bits(alone))
        assert np.array_equal(_bits(alone), _bits(_reference_path(cfg, n, seed)))


# ---------------------------------------------------------------- simulation


def test_recursion_lower_bound_exact():
    cfg = ProcessConfig(
        2, (0.5, 0.8), (FRECHET1, MarginSpec.exponential(1.0)), CopulaSpec.gumbel(2.0)
    )
    path = simulate_path(cfg, 5_000, 1)
    x = path.data
    assert x.shape == (5_000, 2)
    assert np.all(x > 0.0)
    for j, c in enumerate(cfg.c):
        # the recursion stores max(c * prev, innovation) of python floats,
        # so the bound holds with no tolerance at all
        assert np.all(x[1:, j] >= c * x[:-1, j])


@pytest.mark.parametrize(
    "margin",
    [FRECHET1, MarginSpec.exponential(1.0), MarginSpec.gpd(0.2, 1.0)],
    ids=["frechet", "exponential", "gpd"],
)
def test_simulated_path_is_the_recursion_exactly(monkeypatch, margin):
    seen = {}
    recurse = armax._recurse

    def spy(c, path):
        # the one replicate of the batch, before and after the recursion
        seen.update(x0=path[0, 0].copy(), y=path[0, 1:].copy(), x=path[0, 1:])
        recurse(c, path)

    monkeypatch.setattr(armax, "_recurse", spy)
    cfg = ProcessConfig(2, (0.5, 0.98), (margin, margin), CopulaSpec.gumbel(2.0))
    n = 5_000
    path = simulate_path(cfg, n, 3)
    c, x, y = np.array(cfg.c), seen["x"], seen["y"]
    # the first column runs as lanes, the second on the scalar loop
    assert [armax._block_length(v, len(y)) > 0 for v in cfg.c] == [True, False]
    assert path.data.shape == (n, 2) and np.shares_memory(path.data, x)
    assert np.array_equal(path.data, x[-n:])
    # X[i] = max(c X[i-1], Y[i]), with the scalar loop's tie and nan rule
    decayed = c * np.vstack((seen["x0"], x[:-1]))
    assert np.array_equal(_bits(x), _bits(np.where(y > decayed, y, decayed)))
    assert np.all(path.data[1:] >= c * path.data[:-1])


@pytest.mark.parametrize(
    "copula, bound", [(CopulaSpec.gumbel(2.0), 2.5), (INDEP, 1.5)], ids=["gumbel", "independence"]
)
def test_simulate_path_draws_without_path_sized_temporaries(copula, bound):
    # the uniforms go into the path's one buffer in row blocks and the
    # recursion overwrites them in place: besides the path, a Gumbel
    # draw holds its angles and frailty exponentials whole, and either
    # draw a few blocks of temporaries
    cfg = ProcessConfig(2, (0.5, 0.9), (FRECHET1, FRECHET1), copula)
    simulate_path(cfg, 100, 1)
    tracemalloc.start()
    try:
        path = simulate_path(cfg, 200_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * path.data.nbytes


def test_determinism_and_seed_separation():
    cfg = d1_config()
    a = simulate_path(cfg, 100, 42)
    b = simulate_path(cfg, 100, 42)
    assert np.array_equal(a.data, b.data)
    assert a.config_digest == b.config_digest
    c = simulate_path(cfg, 100, 43)
    assert not np.array_equal(a.data, c.data)


def test_simulate_path_refuses_a_non_integral_seed():
    cfg = d1_config()
    for seed in (1.5, np.float64(0.5), (20240817, 2.5), [1.5, 3], math.inf, (1, math.inf),
                 math.nan):
        with pytest.raises(ValueError, match="integer"):
            simulate_path(cfg, 5, seed)
    # integers, numpy integers and integral floats name the same stream
    for seed, same in ((np.int64(3), 3), (3.0, 3), ((np.int32(7), 2.0), (7, 2))):
        path = simulate_path(cfg, 5, seed)
        assert path.seed == same and type(path.seed) is type(same)
        assert np.array_equal(path.data, simulate_path(cfg, 5, same).data)


def test_tuple_seeds_give_independent_streams():
    cfg = d1_config()
    a = simulate_path(cfg, 100, (20240817, 3))
    b = simulate_path(cfg, 100, (20240817, 4))
    again = simulate_path(cfg, 100, (20240817, 3))
    assert np.array_equal(a.data, again.data)
    assert not np.array_equal(a.data, b.data)


def test_comonotone_copies_columns():
    cfg = ProcessConfig(3, (0.5,) * 3, (FRECHET1,) * 3, CopulaSpec.comonotone())
    path = simulate_path(cfg, 2_000, 11)
    assert np.array_equal(path.data[:, 1], path.data[:, 0])
    assert np.array_equal(path.data[:, 2], path.data[:, 0])


def test_stationary_marginal_ks():
    # d=1, c=0.5, unit Frechet innovations: stationary CDF is exp(-2/x)
    cfg = d1_config(init=InitPolicy.exact_marginal())
    path = simulate_path(cfg, 100_000, 50)
    stat = kstest(path.data[:, 0], lambda x: np.exp(-2.0 / x)).statistic
    assert stat < 0.01


def test_burn_in_matches_exact_marginal():
    burn = simulate_path(d1_config(init=InitPolicy.burn_in(1000)), 100_000, 5)
    exact = simulate_path(d1_config(init=InitPolicy.exact_marginal()), 100_000, 6)
    assert burn.init_used == "burn_in:1000"
    assert exact.init_used == "exact_marginal"
    assert ks_2samp(burn.data[:, 0], exact.data[:, 0]).statistic < 0.02


_EXACT = InitPolicy.exact_marginal()
# d = 2 processes and the start their paths take: exact where the
# stationary copula is the innovation copula (independence, or the same
# q_j = c_j**alpha_j, here 0.5**2 = 0.25), else the burn-in fallback
# (unequal q_j under Gumbel or comonotone innovations) or a burn-in
# that lighter tails forget within 100 steps
_BLOCK_MAX_CASES = [
    (ProcessConfig(2, (0.5, 0.9), (FRECHET1, FRECHET1), CopulaSpec.gumbel(2.0), _EXACT), "burn_in:1000"),
    (ProcessConfig(2, (0.5, 0.9), (FRECHET1, FRECHET1), CopulaSpec.comonotone(), _EXACT), "burn_in:1000"),
    (ProcessConfig(2, (0.5, 0.9), (FRECHET1, FRECHET1), INDEP, _EXACT), "exact_marginal"),
    (ProcessConfig(2, (0.25, 0.5), (FRECHET1, MarginSpec.frechet(2.0)), CopulaSpec.comonotone(), _EXACT),
     "exact_marginal"),
    (ProcessConfig(2, (0.5, 0.8), (MarginSpec.exponential(1.0), MarginSpec.uniform01()),
                   CopulaSpec.gumbel(2.0), InitPolicy.burn_in(100)), "burn_in:100"),
    (ProcessConfig(2, (0.6, 0.3), (MarginSpec.gpd(0.2, 1.0), MarginSpec.weibull_min(2.0)),
                   CopulaSpec.comonotone(), InitPolicy.burn_in(100)), "burn_in:100"),
    (ProcessConfig(2, (0.4, 0.7), (MarginSpec.gpd(-0.5, 1.0), FRECHET1), INDEP,
                   InitPolicy.burn_in(100)), "burn_in:100"),
]


@pytest.mark.parametrize("cfg, init_used", _BLOCK_MAX_CASES)
def test_block_maximum_has_the_exact_law(cfg, init_used):
    # X_1 <= x and Y_2..Y_n <= x give M_n <= x for x > 0, as c X <= x, so
    # P(M_n <= x) = F(x) G(x)**(n - 1) on a stationary path; the
    # replicates are independent, so their share of M_n <= x is binomial
    start = simulate_path(cfg, 1, 0).init_used
    replicates = 20_000 if start == "exact_marginal" else 1_000
    x = np.array([stationary_marginal_quantile(m, c, 0.8) for c, m in zip(cfg.c, cfg.margins)])
    log_f = stationary_joint_logcdf(cfg, x)
    log_g = copula_logcdf(cfg.copula, [math.log(margin_cdf(m, v)) for m, v in zip(cfg.margins, x)])
    below = np.empty((replicates, 5), dtype=bool)
    for lo in range(0, replicates, 1000):
        data = armax._simulate_batch(cfg, 5, [(21, k) for k in range(lo, lo + 1000)])
        below[lo:lo + 1000] = (data[:, -5:] <= x).all(axis=2)
    for n in (1, 5):
        p = math.exp(log_f + (n - 1) * log_g)
        share = below[:, :n].all(axis=1).mean()
        assert abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / replicates), (n, share, p)
    assert start == init_used


def test_exact_marginal_falls_back_for_non_frechet():
    cfg = d1_config(margin=MarginSpec.exponential(1.0), init=InitPolicy.exact_marginal())
    path = simulate_path(cfg, 100, 3)
    assert path.init_used == "burn_in:1000"


def test_default_init_simulates_a_burn_in():
    path = simulate_path(d1_config(), 100, 3)
    assert path.init_used == "burn_in:1000"


def test_simulate_rejects_bad_n():
    with pytest.raises(ValueError):
        simulate_path(d1_config(), 0, 1)
    for n in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            simulate_path(d1_config(), n, 1)
        with pytest.raises(ValueError, match="n must be an integer"):
            armax._simulate_batch(d1_config(), n, [1])
    assert simulate_path(d1_config(), np.int64(3), 1).data.shape == (3, 1)


# -------------------------------------------------------------- stationarity


def test_stationarity_series_unit_frechet_default_probe():
    # the probe is c times the median 1/ln 2, and sum_{i>=1} c^i / x is
    # geometric: c/((1-c) x) = 2 ln 2 at c=0.5, x=0.5/ln 2
    res = check_stationarity(d1_config())
    assert res.probe == pytest.approx((0.5 / math.log(2.0),), rel=1e-15)
    assert res.stationary
    assert res.converged
    assert res.series_value == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_stationarity_gpd_margins():
    cfg = ProcessConfig(
        2,
        (0.5, 0.7),
        (MarginSpec.gpd(0.5, 1.0), MarginSpec.gpd(-0.2, 2.0)),
        INDEP,
    )
    res = check_stationarity(cfg)
    assert res.stationary
    assert 0.0 < res.series_value < math.inf


def test_stationarity_uniform_margin():
    res = check_stationarity(d1_config(margin=MarginSpec.uniform01()))
    assert res.stationary
    # default probe is c * median = 0.25; only the i=1 term (at 0.5) is
    # inside the support, so the series is exactly log 2
    assert res.series_value == pytest.approx(math.log(2.0), abs=1e-15)


@pytest.mark.parametrize(
    "c, margin",
    [
        (0.999, FRECHET1),
        (0.99, MarginSpec.frechet(0.05)),
        (0.9999, MarginSpec.exponential(1.0)),
        (0.99999, MarginSpec.uniform01()),
    ],
)
def test_stationarity_is_the_condition_near_one(c, margin):
    # the series reaches its cap here, which does not make the process
    # non-stationary: the verdict is the paper's condition on c
    res = check_stationarity(d1_config(c=c, margin=margin))
    assert res.stationary
    assert not res.converged
    assert res.n_terms == armax._SERIES_TERMS == 10_000
    assert 0.0 < res.series_value < math.inf


# ------------------------------------------------- stationary distributions


def test_stationary_marginal_cdf_values():
    assert stationary_marginal_cdf(0.5, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert stationary_marginal_cdf(0.3, 1e12) > 1.0 - 1e-11
    assert stationary_marginal_cdf(1e-9, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-6)
    assert stationary_marginal_cdf(0.5, 0.0) == 0.0
    assert stationary_marginal_cdf(0.5, -3.0) == 0.0
    out = stationary_marginal_cdf(0.5, np.array([1.0, 2.0]))
    assert out.shape == (2,)
    with pytest.raises(ValueError):
        stationary_marginal_cdf(1.0, 2.0)


def test_stationary_joint_matches_marginal_d1():
    cfg = d1_config()
    for x in (0.5, 2.0, 7.0):
        assert stationary_joint_cdf(cfg, [x]) == pytest.approx(
            stationary_marginal_cdf(0.5, x), abs=1e-9
        )


def test_stationary_joint_comonotone_collapses():
    cfg = ProcessConfig(3, (0.5,) * 3, (FRECHET1,) * 3, CopulaSpec.comonotone())
    for t in (1.0, 2.0, 5.0):
        assert stationary_joint_cdf(cfg, [t] * 3) == pytest.approx(
            stationary_marginal_cdf(0.5, t), abs=1e-9
        )


def test_stationary_joint_independence_product():
    cfg = ProcessConfig(2, (0.5, 0.5), (FRECHET1, FRECHET1), INDEP)
    assert stationary_joint_cdf(cfg, [2.0, 2.0]) == pytest.approx(
        math.exp(-2.0), abs=1e-9
    )


@pytest.mark.parametrize(
    "make_margin",
    [
        MarginSpec.frechet,
        MarginSpec.exponential,
        lambda a: MarginSpec.gpd(0.4 * (a - 1.5), 1.0),
        MarginSpec.weibull_min,
    ],
    ids=["frechet", "exponential", "gpd", "weibull_min"],
)
def test_stationary_joint_fixed_point(make_margin):
    # F(x) = F(x/c) * G(x) to truncation accuracy, across dimensions,
    # margins, and copulas; light-tailed margins end the product within
    # a few factors
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        c = tuple(rng.random(d) * 0.9 + 0.05)
        margins = tuple(make_margin(a) for a in rng.random(d) * 2.0 + 0.5)
        copula = CopulaSpec.gumbel(1.0 + rng.random() * 3) if d > 1 else INDEP
        cfg = ProcessConfig(d, c, margins, copula)
        x = rng.random(d) * 4.0 + 0.5
        lhs = stationary_joint_cdf(cfg, x)
        g = math.exp(
            copula_logcdf(
                copula, np.log([margin_cdf(m, x[j]) for j, m in enumerate(margins)])
            )
        )
        rhs = stationary_joint_cdf(cfg, x / np.asarray(c)) * g
        assert abs(lhs - rhs) <= 1e-11


_FP_MARGINS = st.one_of(
    st.floats(0.5, 3.0).map(MarginSpec.frechet),
    st.floats(0.2, 5.0).map(MarginSpec.exponential),
    st.just(MarginSpec.uniform01()),
    st.builds(MarginSpec.gpd, st.floats(-0.5, 1.0), st.floats(0.5, 2.0)),
    st.floats(0.5, 3.0).map(MarginSpec.weibull_min),
)
_FP_COPULAS = st.one_of(
    st.floats(1.0, 5.0).map(CopulaSpec.gumbel),
    st.just(INDEP),
    st.just(CopulaSpec.comonotone()),
)


@given(st.data())
def test_stationary_joint_fixed_point_property(data):
    # log F(x) = log F(x/c) + log G(x) across margins and copulas.  With
    # T_i = log G(x / c**i), the product stops at its first term i >= 1
    # with -T_i < t and includes it: lhs sums T_0..T_K, K the first such
    # i >= 1, and rhs sums T_0 and T_1..T_K', K' the first such i >= 2.
    # -T_i falls as i grows, so K' = K unless K = 1, where K' = 2 and the
    # sides differ by the one term T_2, below t; the rounding of sums
    # this size stays well below t
    d = data.draw(st.integers(1, 3), label="d")
    c = data.draw(st.lists(st.floats(0.05, 0.95), min_size=d, max_size=d), label="c")
    margins = data.draw(st.lists(_FP_MARGINS, min_size=d, max_size=d), label="margins")
    copula = data.draw(_FP_COPULAS, label="copula")
    p = data.draw(st.lists(st.floats(0.05, 0.95), min_size=d, max_size=d), label="levels")
    cfg = ProcessConfig(d, c, margins, copula)
    x = np.array([margin_quantile(m, q) for m, q in zip(margins, p)])
    lhs = stationary_joint_logcdf(cfg, x)
    log_g = copula_logcdf(copula, np.log([margin_cdf(m, v) for m, v in zip(margins, x)]))
    rhs = stationary_joint_logcdf(cfg, x / np.asarray(c)) + log_g
    assert abs(lhs - rhs) <= -math.log1p(-1e-12)


def test_stationary_joint_inf_marginalizes_exactly():
    # x_j = inf gives G a factor of one in component j and log u_j = 0 in
    # the exchangeable copulas, which is the law of the other components
    margins = (
        FRECHET1,
        MarginSpec.exponential(1.0),
        MarginSpec.gpd(0.2, 1.0),
        MarginSpec.weibull_min(2.0),
    )
    c = (0.5, 0.7, 0.3, 0.9)
    x = np.array([1.5, 0.8, 2.0, 1.1])
    for copula in (CopulaSpec.gumbel(2.0), INDEP, CopulaSpec.comonotone()):
        cfg = ProcessConfig(4, c, margins, copula)
        for cols in ((0, 1), (3, 1), (2, 3), (0, 2, 3), (1,)):
            sub = ProcessConfig(
                len(cols),
                tuple(c[j] for j in cols),
                tuple(margins[j] for j in cols),
                copula,
            )
            full = np.full(4, math.inf)
            full[list(cols)] = x[list(cols)]
            assert stationary_joint_logcdf(cfg, full) == stationary_joint_logcdf(
                sub, x[list(cols)]
            )


def test_stationary_joint_batch_matches_rows():
    # each row of an (m, d) batch stops at its own factor, so the batch
    # equals the one-point calls exactly: rows needing about 40 to 140
    # factors, rows ending at -inf (x_j = 0, and an underflowing G), and
    # rows with components marginalized out at inf
    cfg = ProcessConfig(
        3,
        (0.5, 0.9, 0.3),
        (FRECHET1, MarginSpec.frechet(2.0), MarginSpec.exponential(1.0)),
        CopulaSpec.gumbel(2.0),
    )
    x = np.array(
        [
            [1.0, 2.0, 0.5],
            [50.0, 30.0, 3.0],
            [0.3, 0.5, 0.2],
            [1.0, 0.0, 2.0],
            [0.01, 0.02, 0.1],
            [math.inf, 1.5, math.inf],
            [2.0, math.inf, 0.7],
            [math.inf, math.inf, math.inf],
        ]
    )
    batch = stationary_joint_logcdf(cfg, x)
    rows = [stationary_joint_logcdf(cfg, row) for row in x]
    assert isinstance(batch, np.ndarray) and batch.shape == (len(x),)
    assert all(isinstance(v, float) for v in rows)
    assert batch.tolist() == rows
    assert rows[3] == rows[4] == -math.inf and rows[7] == 0.0
    assert stationary_joint_logcdf(cfg, x[:0]).shape == (0,)
    # numpy's exp may differ from libm's by an ulp
    assert stationary_joint_cdf(cfg, x).tolist() == pytest.approx(
        [math.exp(v) for v in rows], rel=1e-15, abs=0.0
    )


def test_stationary_joint_validation():
    cfg = d1_config()
    with pytest.raises(ValueError):
        stationary_joint_logcdf(cfg, [1.0, 2.0])  # wrong shape
    with pytest.raises(ValueError):
        stationary_joint_logcdf(cfg, [[[1.0]]])
    # about 27 600 factors are needed here, more than the 10 000 taken;
    # the config is stationary, so the cap is a numeric limit
    with pytest.raises(NumericLimitError, match="did not converge within 10000 factors"):
        stationary_joint_cdf(d1_config(c=0.999), [1.0])
    # a row at -inf (x_j = 0) is decided though it did not converge, and
    # does not excuse a row beside it that cannot converge
    assert stationary_joint_logcdf(d1_config(c=0.999), [[0.0]]).tolist() == [-math.inf]
    with pytest.raises(NumericLimitError, match=r"^stationary product did not converge within 10000 factors$"):
        stationary_joint_logcdf(d1_config(c=0.999), [[0.0], [1.0]])


def test_stationary_law_refuses_nan_points():
    # one error at the public edge for every margin: Frechet and
    # exponential CDFs map nan to 0, which would read as F = 0
    margins = (FRECHET1, MarginSpec.exponential(1.0), MarginSpec.uniform01())
    for margin in margins:
        cfg = ProcessConfig(2, (0.5, 0.7), (margin, FRECHET1), CopulaSpec.gumbel(2.0))
        for x in ([math.nan, 1.0], [[1.0, 2.0], [1.0, math.nan]]):
            with pytest.raises(ValueError, match=r"^x entries must not be nan$"):
                stationary_joint_logcdf(cfg, x)
        with pytest.raises(ValueError, match=r"^x entries must not be nan$"):
            stationary_joint_cdf(cfg, [1.0, math.nan])
        for x in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"^x entries must not be nan$"):
                stationary_marginal_logcdf(margin, 0.5, x)


def test_unit_frechet_level_and_cdf_refuse_nan():
    for x in (math.nan, [0.5, math.nan]):
        with pytest.raises(ValueError, match=r"^x entries must not be nan$"):
            stationary_marginal_cdf(0.5, x)
    with pytest.raises(ValueError, match=r"^tau must be nonnegative$"):
        normalized_level(0.5, 100, math.nan)


def _reference_log_product(config, x, first, last, threshold):
    """`armax._log_product` as a term-by-term loop over each row alone,
    through the public, validating copula entry."""
    powers = np.asarray(config.c) ** np.arange(last + 1)[:, None]
    totals, counts, flags = [], [], []
    for row in x:
        total, count, converged = 0.0, last - first + 1, False
        for i in range(first, last + 1):
            with np.errstate(divide="ignore", over="ignore"):
                point = row / powers[i]
                log_u = np.log([margin_cdf(m, v) for m, v in zip(config.margins, point)])
            term = copula_logcdf(config.copula, log_u)
            total += term
            if total == -math.inf or (i >= 1 and -term < threshold):
                count, converged = i - first + 1, total > -math.inf
                break
        totals.append(total)
        counts.append(count)
        flags.append(converged)
    return totals, counts, flags


_KERNEL_MARGINS = st.sampled_from(
    [
        FRECHET1,
        MarginSpec.frechet(0.5),
        MarginSpec.exponential(2.0),
        MarginSpec.uniform01(),
        MarginSpec.gpd(0.3, 1.0),
        MarginSpec.gpd(-0.5, 1.0),
        MarginSpec.weibull_min(2.0),
    ]
)
_KERNEL_COPULAS = st.sampled_from(
    [INDEP, CopulaSpec.comonotone(), CopulaSpec.gumbel(1.0), CopulaSpec.gumbel(2.5)]
)
# 0 and negative entries end a row at its first factor, 1e-3 underflows
# a Frechet factor to 0, inf marginalizes a component out
_KERNEL_SPECIAL = st.sampled_from([0.0, -1.0, 1e-3, math.inf])
_KERNEL_TOL = -math.log1p(-1e-12)


@st.composite
def _kernel_cases(draw):
    d = draw(st.integers(1, 3), label="d")
    c = draw(st.lists(st.sampled_from([0.99, 0.9, 0.8]) | st.floats(0.05, 0.95), min_size=d, max_size=d))
    margins = draw(st.lists(_KERNEL_MARGINS, min_size=d, max_size=d))
    config = ProcessConfig(d, c, margins, draw(_KERNEL_COPULAS))
    m = draw(st.integers(0, 4), label="m")
    x = np.array(draw(st.lists(st.floats(0.05, 50.0), min_size=m * d, max_size=m * d)))
    if m:
        for k, v in draw(st.lists(st.tuples(st.integers(0, m * d - 1), _KERNEL_SPECIAL), max_size=3)):
            x[k] = v
    first = draw(st.sampled_from([0, 1]), label="first")
    last = draw(st.sampled_from([1, 2, 40, 350, 1000]), label="last")
    threshold = draw(st.sampled_from([_KERNEL_TOL, 1e-6, 1e-3]), label="threshold")
    # tiled copies make batches of up to 360 entries; the reference
    # loop runs once per distinct row
    copies = draw(st.sampled_from([1, 5, 30]), label="copies")
    return config, x.reshape(m, d), first, last, threshold, copies


# light-tailed rows whose products stop within a few factors
_LIGHT_ROWS = (
    ProcessConfig(
        2, (0.5, 0.7), (MarginSpec.exponential(2.0), MarginSpec.weibull_min(2.0)), CopulaSpec.gumbel(2.5)
    ),
    np.array([[1.0, 2.0], [0.5, 3.0], [2.0, 0.7]]),
)


@settings(max_examples=200)
@given(_kernel_cases())
@example(  # unit Frechet at c = 0.99: 689 and 620 factors, then converged
    (d1_config(c=0.99), np.array([[1.0], [2.0]]), 0, 1000, 1e-3, 1)
)
@example(  # the same row runs out of factors before converging
    (d1_config(c=0.99), np.array([[1.0]]), 0, 350, _KERNEL_TOL, 1)
)
@example(  # a row with x_j = 0 beside a row that takes one chunk
    (
        ProcessConfig(2, (0.3, 0.99), (MarginSpec.uniform01(), FRECHET1), CopulaSpec.gumbel(2.0)),
        np.array([[0.0, 1.0], [0.5, math.inf]]),
        1,
        1000,
        _KERNEL_TOL,
        30,
    )
)
@example(  # every term is -0.0 (G = 1 under a Gumbel norm); the total is +0.0
    (
        ProcessConfig(2, (0.5, 0.7), (MarginSpec.uniform01(),) * 2, CopulaSpec.gumbel(2.0)),
        np.array([[1.0, 2.0], [1.5, 1.0]]),
        0,
        1000,
        _KERNEL_TOL,
        1,
    )
)
@example(  # rows that stop in the first chunk beside a unit Frechet row
    # at c = 0.99 that needs several chunks
    (
        ProcessConfig(2, (0.3, 0.99), (MarginSpec.exponential(2.0), FRECHET1), CopulaSpec.gumbel(2.5)),
        np.array([[0.5, math.inf], [1.0, math.inf], [1.0, 2.0], [3.0, math.inf]]),
        0,
        1000,
        1e-3,
        5,
    )
)
@example(  # every row stops in the first chunk (5 to 7 terms from i = 0),
    # where the kernel returns that chunk's sums as they are
    (
        *_LIGHT_ROWS,
        0,
        1000,
        _KERNEL_TOL,
        5,
    )
)
@example(  # the same rows from i = 1: 4 to 6 terms, all in the first chunk
    (
        *_LIGHT_ROWS,
        1,
        1000,
        _KERNEL_TOL,
        5,
    )
)
@example(  # one row goes on past the first chunk (518 terms from i = 1), the
    # rows at inf in the unit Frechet component stop in it (4 and 5 terms)
    (
        ProcessConfig(2, (0.5, 0.95), (MarginSpec.exponential(2.0), FRECHET1), CopulaSpec.gumbel(2.5)),
        np.array([[1.0, math.inf], [2.0, 3.0], [0.5, math.inf]]),
        1,
        1000,
        _KERNEL_TOL,
        1,
    )
)
def test_log_product_equals_term_by_term_loop(case):
    config, x, first, last, threshold, copies = case
    expected = _reference_log_product(config, x, first, last, threshold)
    total, n_terms, converged = armax._log_product(config, np.tile(x, (copies, 1)), first, last, threshold)
    assert total.shape == n_terms.shape == converged.shape == (copies * len(x),)
    assert np.array_equal(total.view(np.int64), np.tile(np.array(expected[0]).view(np.int64), copies))
    assert n_terms.dtype.kind == "i"
    assert n_terms.tolist() == expected[1] * copies
    assert converged.dtype == bool
    assert converged.tolist() == expected[2] * copies


def test_log_product_divisor_cache_is_bounded():
    # one table per set of kept coefficients and chunk, read-only, and
    # no more than `_DIVISOR_CACHE_SIZE` of them
    armax._divisors.cache_clear()
    x = np.array([[1.0, 2.0]])
    for k in range(2 * armax._DIVISOR_CACHE_SIZE):
        config = ProcessConfig(2, (0.3 + k / 1000, 0.5), (MarginSpec.exponential(2.0),) * 2, INDEP)
        armax._log_product(config, x, 0, 100, _KERNEL_TOL)
    info = armax._divisors.cache_info()
    assert info.maxsize == armax._DIVISOR_CACHE_SIZE
    assert info.currsize == armax._DIVISOR_CACHE_SIZE
    table = armax._divisors((0.5, 0.7), 0, 64)
    assert table.shape == (64, 2) and not table.flags.writeable
    assert table.tobytes() == (np.array([0.5, 0.7]) ** np.arange(64)[:, None]).tobytes()


@st.composite
def _marginal_row_cases(draw):
    d = draw(st.sampled_from([2, 3]), label="d")
    c = draw(st.lists(st.floats(0.05, 0.95), min_size=d, max_size=d), label="c")
    margins = draw(st.lists(_KERNEL_MARGINS, min_size=d, max_size=d), label="margins")
    config = ProcessConfig(d, c, margins, draw(_KERNEL_COPULAS, label="copula"))
    j = draw(st.integers(0, d - 1), label="j")
    values = draw(st.lists(st.floats(0.01, 100.0) | _KERNEL_SPECIAL, min_size=1, max_size=6))
    return config, j, values


@settings(max_examples=200)
@given(_marginal_row_cases())
@example(  # x_j = inf, 0 and a negative value beside a finite one
    (
        ProcessConfig(2, (0.5, 0.9), (FRECHET1, MarginSpec.gpd(-0.5, 1.0)), CopulaSpec.gumbel(2.5)),
        1,
        [math.inf, 0.0, -1.0, 2.0],
    )
)
def test_stationary_joint_rows_at_inf_equal_the_marginal_bit_for_bit(case):
    # a row with every component but j at inf gives each factor a
    # copula argument log u = 0 in the others, so its log F is the one-
    # component product of `stationary_marginal_logcdf` bit for bit (the
    # lag-TDC batch relies on it)
    config, j, values = case
    margin, c = config.margins[j], config.c[j]
    x = np.full((len(values), config.d), math.inf)
    x[:, j] = values
    joint = stationary_joint_logcdf(config, x)
    marginal = stationary_marginal_logcdf(margin, c, np.array(values))
    assert np.array_equal(joint.view(np.int64), marginal.view(np.int64))
    one = stationary_joint_logcdf(config, x[0])
    assert one.hex() == stationary_marginal_logcdf(margin, c, values[0]).hex()


@st.composite
def _restricted_cases(draw):
    d = draw(st.integers(1, 10), label="d")
    c = draw(st.lists(st.floats(0.05, 0.9), min_size=d, max_size=d), label="c")
    margins = draw(st.lists(_KERNEL_MARGINS, min_size=d, max_size=d), label="margins")
    config = ProcessConfig(d, c, margins, draw(_KERNEL_COPULAS, label="copula"))
    m = draw(st.integers(1, 6), label="m")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.uniform(0.05, 50.0, size=(m, d))
    # each row keeps its own components, at least one; a column may be
    # at inf in every row
    out = rng.random((m, d)) < rng.random()
    out[np.arange(m), rng.integers(0, d, size=m)] = False
    x[out] = math.inf
    special = st.sampled_from([0.0, -1.0, 1e-3])
    for k, v in draw(st.lists(st.tuples(st.integers(0, m * d - 1), special), max_size=2)):
        x.flat[k] = v
    return config, x


@settings(max_examples=200)
@given(_restricted_cases())
def test_stationary_joint_components_at_inf_give_the_restricted_law_bit_for_bit(case):
    # each row's log F equals that of the process restricted to its
    # finite components, for every d; a pairwise sum of the copula's 8
    # or more columns would not give it
    config, x = case
    joint = stationary_joint_logcdf(config, x)
    for row, value in zip(x, joint.tolist()):
        kept = np.flatnonzero(row != math.inf).tolist()
        restricted = ProcessConfig(
            len(kept), [config.c[j] for j in kept], [config.margins[j] for j in kept], config.copula
        )
        assert value.hex() == stationary_joint_logcdf(restricted, row[kept]).hex()
    assert stationary_joint_logcdf(config, x[0]).hex() == joint[0].hex()


@pytest.mark.parametrize("copula", [INDEP, CopulaSpec.comonotone(), CopulaSpec.gumbel(2.5)])
def test_stationary_joint_rows_at_inf_fail_as_the_marginal_near_unit_c(copula):
    # unit Frechet at c = 0.999 needs about 27 600 factors at x = 1
    config = ProcessConfig(2, (0.5, 0.999), (MarginSpec.exponential(1.0), FRECHET1), copula)
    with pytest.raises(NumericLimitError) as joint:
        stationary_joint_logcdf(config, [[math.inf, 1.0], [math.inf, 2.0]])
    with pytest.raises(NumericLimitError) as marginal:
        stationary_marginal_logcdf(FRECHET1, 0.999, np.array([1.0, 2.0]))
    assert str(joint.value) == str(marginal.value)
    assert str(joint.value) == "stationary product did not converge within 10000 factors"


def test_stationary_marginal_quantile_round_trip():
    cases = [
        (FRECHET1, 0.5),
        (MarginSpec.exponential(1.0), 0.5),
        (MarginSpec.uniform01(), 0.3),
        (MarginSpec.gpd(0.5, 1.0), 0.6),
        (MarginSpec.weibull_min(1.5), 0.4),
    ]
    for margin, c in cases:
        for p in (0.1, 0.5, 0.9):
            q = stationary_marginal_quantile(margin, c, p)
            assert math.exp(stationary_marginal_logcdf(margin, c, q)) == pytest.approx(
                p, abs=1e-9
            )


def test_stationary_marginal_quantile_memoised():
    # the root-find runs once per (margin, c, p); a repeated
    # request is a cache hit returning the identical float
    margin = MarginSpec.gpd(0.3, 2.0)
    first = stationary_marginal_quantile(margin, 0.6, 0.95)
    hits = armax._stationary_quantile.cache_info().hits
    again = stationary_marginal_quantile(margin, 0.6, 0.95)
    assert armax._stationary_quantile.cache_info().hits == hits + 1
    assert isinstance(again, float) and again == first
    # the validation runs on every call, before the cache
    for _ in range(2):
        with pytest.raises(ValueError):
            stationary_marginal_quantile(margin, 1.6, 0.95)
        with pytest.raises(ValueError):
            stationary_marginal_quantile(margin, 0.6, 1.0)


def test_stationary_marginal_quantile_validation():
    with pytest.raises(ValueError):
        stationary_marginal_quantile(FRECHET1, 1.5, 0.5)
    with pytest.raises(ValueError):
        stationary_marginal_quantile(FRECHET1, 0.5, 0.0)
    with pytest.raises(ValueError):
        stationary_marginal_quantile(FRECHET1, 0.5, 1.0)


@pytest.mark.parametrize(
    "alpha, p",
    [(0.001, 0.5), (1e-20, 0.5), (0.01, 1.0 - 1e-16)],
    ids=["scale-overflows", "scale-divides-by-zero", "power-overflows"],
)
def test_stationary_frechet_quantile_outside_the_float_range(alpha, p):
    with pytest.raises(NumericLimitError, match="outside the float range"):
        stationary_marginal_quantile(MarginSpec.frechet(alpha), 0.5, p)
    # a finite closed form is the formula itself, near the edge too
    expected = (1.0 - 0.5**0.01) ** (-1.0 / 0.01) * (-math.log(0.5)) ** (-1.0 / 0.01)
    assert stationary_marginal_quantile(MarginSpec.frechet(0.01), 0.5, 0.5) == expected


def test_stationary_quantile_raises_where_the_innovation_quantile_overflows():
    # F <= G, so an innovation quantile past the float range puts the
    # stationary one there too; a search from it would read
    # log F(inf) = 0 >= log p and return inf
    margin = MarginSpec.gpd(1.0, 1e300)
    with pytest.raises(NumericLimitError, match="^the stationary quantile is outside the float range$"):
        stationary_marginal_quantile(margin, 0.5, 1.0 - 1e-10)
    assert stationary_marginal_quantile(margin, 0.5, 0.999) == 1.998651285913215e303


def test_stationary_marginal_quantile_brackets_near_unit_c():
    # a solve at c = 0.999, where the product needs thousands of factors
    margin = MarginSpec.exponential(1.0)
    q = stationary_marginal_quantile(margin, 0.999, 0.5)
    assert abs(stationary_marginal_logcdf(margin, 0.999, q) - math.log(0.5)) <= 1e-12


def test_stationary_marginal_logcdf_array_matches_scalars():
    margin = MarginSpec.gpd(0.2, 1.0)
    x = np.array([0.0, 0.05, 1.0, 7.5, 1e3, math.inf])
    values = stationary_marginal_logcdf(margin, 0.7, x)
    assert isinstance(values, np.ndarray) and values.shape == (6,)
    scalars = [stationary_marginal_logcdf(margin, 0.7, v) for v in x.tolist()]
    assert all(isinstance(v, float) for v in scalars)
    assert values.tolist() == scalars
    assert stationary_marginal_logcdf(margin, 0.7, np.empty(0)).shape == (0,)
    with pytest.raises(ValueError):
        stationary_marginal_logcdf(margin, 0.7, np.ones((2, 1)))


_SEARCHED_MARGINS = st.one_of(
    st.floats(1e-3, 100.0).map(MarginSpec.gpd),
    st.floats(-5.0, -1e-3).map(MarginSpec.gpd),
    st.floats(1e-3, 10.0).map(MarginSpec.weibull_min),
    st.floats(1e-3, 1e3).map(MarginSpec.exponential),
    st.just(MarginSpec.uniform01()),
)


@settings(max_examples=150, deadline=None)
@given(
    _SEARCHED_MARGINS,
    st.floats(1e-100, 0.999),
    st.floats(1e-300, 1.0, exclude_max=True),
)
def test_stationary_marginal_quantile_is_the_least_float_reaching_p(margin, c, p):
    # the quantile is the least float q >= 0 with log F(q) >= log p, or
    # the innovation quantile when F already reaches p there; a solve
    # that cannot give it raises NumericLimitError and nothing else
    try:
        q = stationary_marginal_quantile(margin, c, p)
    except NumericLimitError:
        return
    log_p = math.log(p)
    assert math.isfinite(q) and q >= 0.0
    assert stationary_marginal_logcdf(margin, c, q) >= log_p
    if q != margin_quantile(margin, p):
        assert stationary_marginal_logcdf(margin, c, math.nextafter(q, 0.0)) < log_p


# ----------------------------------------------------------- normalized levels


def test_normalized_level_closed_form():
    u = normalized_level(0.5, 100, 1.0)
    assert u == pytest.approx(-1.0 / (0.5 * math.log(0.99)), abs=1e-9)
    assert u == pytest.approx(199.0, abs=0.01)
    assert normalized_level(0.5, 100, 0.0) == math.inf


def test_normalized_level_scaling():
    # n (1 - F(u / c)) approaches tau * c for a unit-Frechet margin
    n, c, tau = 10**6, 0.5, 1.0
    u = normalized_level(c, n, tau)
    assert n * (1.0 - stationary_marginal_cdf(c, u / c)) == pytest.approx(
        tau * c, abs=1e-4
    )


def test_normalized_level_validation():
    with pytest.raises(ValueError):
        normalized_level(0.5, 100, 100.0)  # tau >= n
    with pytest.raises(ValueError):
        normalized_level(0.5, 100, -1.0)
    with pytest.raises(ValueError):
        normalized_level(0.5, 0, 1.0)
    with pytest.raises(ValueError, match="n must be an integer"):
        normalized_level(0.5, 1.5, 1.0)
    with pytest.raises(ValueError, match="n must be an integer"):
        normalized_level(0.5, True, 0.5)
    with pytest.raises(ValueError):
        normalized_level(1.2, 100, 1.0)
