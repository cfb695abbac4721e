"""End-to-end tests of the command-line interface.

Most run ``cli.main`` in process; the few that need a real process (the
``-m`` entry, reruns in fresh interpreters, exit codes and stderr with
no traceback) start ``python -m armax_extremes.cli``.
"""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armax_extremes import armax, cli, estimation, taildep
from armax_extremes.armax import ProcessConfig, simulate_path
from armax_extremes.copulas import CopulaSpec
from armax_extremes.errors import ConfigurationError, NumericLimitError, UndefinedResultError
from armax_extremes.estimation import VARIANCE_CONVENTIONS, build_estimate_report
from armax_extremes.margins import MarginSpec
from armax_extremes.schema import canonical_json, to_json

D2_GUMBEL = {
    "d": 2,
    "c": [0.5, 0.5],
    "margins": [{"kind": "frechet", "alpha": 1.0}, {"kind": "frechet", "alpha": 1.0}],
    "copula": {"kind": "gumbel", "gamma": 2.0},
}
D1_INDEP = {
    "d": 1,
    "c": [0.5],
    "margins": [{"kind": "frechet", "alpha": 1.0}],
    "copula": {"kind": "independence"},
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "armax_extremes.cli", *args],
        capture_output=True,
        text=True,
    )


def main_exit(argv):
    """Exit status of ``cli.main(argv)`` run in process."""
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    return exit_.value.code


def run_main(capsys, *args):
    """``cli.main(args)`` run in process, with its exit status and the
    output it printed, in the shape `run_cli` returns."""
    code = main_exit(list(args))
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


# ------------------------------------------------------------------ simulate


def test_simulate_writes_csv_and_meta(tmp_path):
    out = tmp_path / "path.csv"
    cfg = write_config(
        tmp_path,
        "sim.json",
        {"command": "simulate", "process": D2_GUMBEL, "n": 50, "seed": 7,
         "output_path": str(out)},
    )
    proc = run_cli("simulate", "--config", cfg)
    assert proc.returncode == 0
    assert f"simulate: wrote 50 rows to {out}" in proc.stdout

    header, rows = read_rows(out)
    assert header == ["t", "x1", "x2"]
    assert len(rows) == 50
    assert [int(r[0]) for r in rows] == list(range(50))

    with open(str(out) + ".meta.json") as fh:
        meta = json.load(fh)
    expected = ProcessConfig(
        2,
        (0.5, 0.5),
        (MarginSpec.frechet(1.0), MarginSpec.frechet(1.0)),
        CopulaSpec.gumbel(2.0),
    )
    assert meta["command"] == "simulate"
    assert meta["n"] == 50
    assert meta["seed"] == 7
    assert meta["init_used"] == "burn_in:1000"
    assert meta["config_digest"] == expected.digest()
    assert meta["process"] == expected.to_dict()

    # the %.17g formatting round-trips every sample exactly
    path = simulate_path(expected, 50, 7)
    for i, row in enumerate(rows):
        assert float(row[1]) == path.data[i, 0]
        assert float(row[2]) == path.data[i, 1]


def test_simulate_reruns_are_byte_identical(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cfg = write_config(
            tmp_path,
            f"{name}.json",
            {"command": "simulate", "process": D2_GUMBEL, "n": 30, "seed": 7,
             "output_path": str(out)},
        )
        assert run_cli("simulate", "--config", cfg).returncode == 0
        outputs.append((out.read_bytes(), (tmp_path / (name + ".meta.json"))))
    assert outputs[0][0] == outputs[1][0]
    meta_a = (tmp_path / "a.csv.meta.json").read_bytes()
    meta_b = (tmp_path / "b.csv.meta.json").read_bytes()
    assert meta_a == meta_b


def test_simulate_seed_override(tmp_path, capsys):
    out7 = tmp_path / "s7.csv"
    cfg = write_config(
        tmp_path,
        "sim.json",
        {"command": "simulate", "process": D2_GUMBEL, "n": 30, "seed": 7,
         "output_path": str(out7)},
    )
    assert run_main(capsys, "simulate", "--config", cfg).returncode == 0
    out8 = tmp_path / "s8.csv"
    assert run_main(
        capsys, "simulate", "--config", cfg, "--seed", "8", "--out", str(out8)
    ).returncode == 0
    assert out7.read_bytes() != out8.read_bytes()
    with open(str(out8) + ".meta.json") as fh:
        assert json.load(fh)["seed"] == 8


def test_simulate_csv_bytes_pinned(tmp_path, capsys):
    # sha256 of the path CSV written by the per-value formatter this
    # row-wise writer replaced
    out = tmp_path / "pin.csv"
    cfg = write_config(
        tmp_path,
        "sim.json",
        {"command": "simulate", "process": D2_GUMBEL, "n": 500, "seed": 7,
         "output_path": str(out)},
    )
    assert run_main(capsys, "simulate", "--config", cfg).returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "831a533993a5b0a9d8533023e556fa800b44d550945055c33be238a595da5f44"
    )


D3_MIXED = {
    "d": 3,
    "c": [0.5, 0.7, 0.9],
    "margins": [{"kind": "frechet", "alpha": 1.0}, {"kind": "frechet", "alpha": 2.0},
                {"kind": "exponential", "rate": 1.0}],
    "copula": {"kind": "gumbel", "gamma": 2.0},
}


def test_simulate_csv_bytes_pinned_across_row_blocks(tmp_path, capsys):
    # 30 000 rows written and 31 000 drawn (with the burn-in) span three
    # blocks of 8192 rows and a ragged tail in the Gumbel draw and in the
    # path writer; sha256 of the CSV written when both took the path whole
    out = tmp_path / "pin.csv"
    cfg = write_config(
        tmp_path,
        "sim.json",
        {"command": "simulate", "process": D3_MIXED, "n": 30_000, "seed": 7,
         "output_path": str(out)},
    )
    assert run_main(capsys, "simulate", "--config", cfg).returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ec64ecf0cc87f94be3df13549dbd58031206527e4f9bd3cc7c1f4087db62892b"
    )


@pytest.mark.parametrize("gamma", [1.0000001, 1e6])
def test_simulate_gumbel_near_one_and_at_large_gamma(tmp_path, gamma):
    # the frailty sampler once wrote nan paths near gamma = 1 and paths
    # pinned at the clip bound 1 - 1e-16 (values near 9e15) at large gamma
    out = tmp_path / "path.csv"
    process = dict(D2_GUMBEL, copula={"kind": "gumbel", "gamma": gamma})
    cfg = write_config(
        tmp_path,
        "sim.json",
        {"command": "simulate", "process": process, "n": 100, "seed": 1,
         "output_path": str(out)},
    )
    assert main_exit(["simulate", "--config", cfg]) == 0
    _, rows = read_rows(out)
    x = np.array([[float(v) for v in row[1:]] for row in rows])
    assert x.shape == (100, 2) and np.isfinite(x).all()
    assert x.max() < 1e6
    if gamma > 2:
        # nearly comonotone innovations and equal c: nearly equal columns
        assert np.max(np.abs(x[:, 0] / x[:, 1] - 1.0)) < 1e-4


def test_path_writer_chunks_render_like_fmt(tmp_path, monkeypatch):
    # a chunk size that splits the rows unevenly, and the float values
    # whose text is easiest to get wrong
    monkeypatch.setattr(cli, "_ROW_BLOCK", 3)
    data = np.array(
        [
            [math.nan, math.inf],
            [-math.inf, -0.0],
            [0.0, 1e-310],
            [1.0 / 3.0, 2.5e300],
            [-1.0, 123456789.0],
            [5e-324, 0.1],
            [7.0, -2.0 / 3.0],
        ]
    )
    expected = tmp_path / "expected.csv"
    cli._write_csv(str(expected), ["t", "x1", "x2"], ([i, *row] for i, row in enumerate(data)))
    written = tmp_path / "written.csv"
    cli._write_path_csv(str(written), data)
    assert written.read_bytes() == expected.read_bytes()
    assert "nan,inf" in expected.read_text() and "-inf,-0\n" in expected.read_text()


def test_path_writer_peak_does_not_grow_with_the_path(tmp_path):
    # the writer holds one block of rows as Python floats and text at a
    # time, so a path of four blocks peaks no higher than a path of one
    peaks = []
    for n in (cli._ROW_BLOCK, 4 * cli._ROW_BLOCK + 1):
        data = np.random.default_rng(0).random((n, 1))
        tracemalloc.start()
        try:
            cli._write_path_csv(str(tmp_path / "path.csv"), data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


# The writer's own kernel formats [1e-4, 1e17): integers stored as
# floats; powers of ten with their 1-ulp neighbours, where floor(log10)
# of the one below is one too high (nextafter(1e-3, 0) is
# 0.0009999999999999998, nextafter(1e17, 0) is 99999999999999984) and
# 1e17 itself is left to "%.17g" % v; and ties that round half to even
# (2**50 + 0.25 is 1125899906842624.2, 2**50 + 0.75 is 1125899906842624.8).
_POWERS_OF_TEN = [10.0**p for p in range(-4, 18)]
_KERNEL_EDGES = [
    *_POWERS_OF_TEN,
    *(math.nextafter(p, 0.0) for p in _POWERS_OF_TEN),
    *(math.nextafter(p, math.inf) for p in _POWERS_OF_TEN),
    2.0**50 + 0.25,
    2.0**50 + 0.75,
]
_KERNEL_VALUES = st.one_of(
    st.floats(1e-4, 1e17, exclude_max=True),
    st.integers(0, 10**17).map(float),
    st.sampled_from(_KERNEL_EDGES),
)
# besides those: nan, infinities, signed zeros, subnormals and values
# near 1e+-300, and any float; the last three print as 24 bytes, the
# widest text, which fills its three words with no NUL padding
_WIDEST = [-2.2250738585072014e-308, -1.7976931348623157e308, -5e-324]
_PATH_VALUES = st.one_of(
    _KERNEL_VALUES,
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-320,
                     2.2250738585072014e-308, 1.7976931348623157e308, *_WIDEST]),
    st.floats(1e299, 1e301) | st.floats(-1e301, -1e299),
    st.floats(1e-301, 1e-299) | st.floats(-1e-299, -1e-301),
)


@settings(max_examples=150, database=None)
@given(st.data())
def test_path_writer_matches_the_fmt_writer(tmp_path_factory, data):
    d = data.draw(st.integers(1, 3), label="d")
    n = data.draw(st.integers(1, 60), label="n")
    chunk = data.draw(st.integers(1, n + 2), label="chunk rows")
    values = data.draw(st.lists(_PATH_VALUES, min_size=n * d, max_size=n * d), label="values")
    path = np.array(values).reshape(n, d)
    folder = tmp_path_factory.mktemp("writer")
    expected = folder / "expected.csv"
    cli._write_csv(
        str(expected),
        ["t", *(f"x{j + 1}" for j in range(d))],
        ([i, *row] for i, row in enumerate(path)),
    )
    written = folder / "written.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_ROW_BLOCK", chunk)
        cli._write_path_csv(str(written), path)
    assert written.read_bytes() == expected.read_bytes()


def test_path_writer_keeps_the_widest_texts_whole(tmp_path):
    # a text of 24 bytes has no NUL to drop; every byte of it is written
    assert [len("%.17g" % v) for v in _WIDEST] == [24, 24, 24]
    path = np.array([_WIDEST, _WIDEST[::-1], [1.0, _WIDEST[1], 0.5]])
    expected = tmp_path / "expected.csv"
    cli._write_csv(str(expected), ["t", "x1", "x2", "x3"],
                   ([i, *row] for i, row in enumerate(path)))
    written = tmp_path / "written.csv"
    cli._write_path_csv(str(written), path)
    assert written.read_bytes() == expected.read_bytes()
    assert b"\0" not in written.read_bytes()


def test_fixed_point_kernel_leaves_only_values_outside_its_range():
    # a value whose exponent guess is one off stays in the kernel after
    # the fix; the rest of the float line goes to "%.17g" % v
    inside = [1e-4, math.nextafter(1e-4, 1.0), math.nextafter(1e-3, 0.0), 1.0,
              math.nextafter(1.0, 0.0), 2.0**50 + 0.25, 2.0**50 + 0.75, 1e16,
              math.nextafter(1e17, 0.0)]
    outside = [1e17, math.nextafter(1e-4, 0.0), 0.0, -0.0, -1.0, 5e-324, math.nan,
               math.inf, -math.inf]
    *_, left = cli._fixed_point_words(np.array(inside + outside))
    assert left.tolist() == [False] * len(inside) + [True] * len(outside)


def test_no_float_below_a_power_of_ten_rounds_up_to_it():
    # the kernel reads 10**16 <= N as v >= 10**k: the largest float below
    # 10**k, times 10**(16 - k), stays more than 0.8 below 10**16, so N,
    # rounded to an integer, stays below 10**16
    for k in range(-4, 17):
        below = 10.0**k
        while Fraction(below) >= Fraction(10) ** k:
            below = math.nextafter(below, 0.0)
        assert Fraction(below) * Fraction(10) ** (16 - k) < 10**16 - Fraction(4, 5)


def test_path_writer_stays_exact_where_the_exponent_guess_is_two_off(tmp_path, monkeypatch):
    # one fix cannot mend a guess two off; such a value goes to "%.17g" % v
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x, out=None: np.subtract(log10(x, out=out), 2.0, out=out))
    path = np.array([[0.5, 123.25], [1e16, 3e-4], [7.0, 99999999999999984.0]])
    *_, left = cli._fixed_point_words(path.reshape(-1))
    assert left.any()
    expected = tmp_path / "expected.csv"
    cli._write_csv(str(expected), ["t", "x1", "x2"], ([i, *row] for i, row in enumerate(path)))
    written = tmp_path / "written.csv"
    cli._write_path_csv(str(written), path)
    assert written.read_bytes() == expected.read_bytes()


def test_path_writer_matches_format_on_random_bit_patterns(tmp_path):
    # 10**5 seeded bit patterns spread over the kernel's range
    low, high = np.array([1e-4, 1e17]).view(np.int64)
    values = np.random.default_rng(40).integers(low, high, size=100_000).view(np.float64)
    values = values.reshape(-1, 2)
    written = tmp_path / "path.csv"
    cli._write_path_csv(str(written), values)
    lines = written.read_text().splitlines()
    assert lines[0] == "t,x1,x2"
    assert lines[1:] == [
        f"{i},{format(a, '.17g')},{format(b, '.17g')}" for i, (a, b) in enumerate(values.tolist())
    ]


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("chunk", [7, 30])
def test_path_writer_row_numbers_across_powers_of_ten(tmp_path, monkeypatch, d, chunk):
    # 10 011 rows, not a whole number of blocks, whose row numbers grow a
    # digit at 10, 100, 1000 and 10 000; blocks of 7 rows split rows
    # 9990..10 010, and one block of 30 (9990..10 019) holds them all
    monkeypatch.setattr(cli, "_ROW_BLOCK", chunk)
    rng = np.random.default_rng(d)
    path = rng.random((10_011, d)) * 10.0 ** rng.integers(-6, 18, size=(10_011, d))
    expected = tmp_path / "expected.csv"
    cli._write_csv(
        str(expected),
        ["t", *(f"x{j + 1}" for j in range(d))],
        ([i, *row] for i, row in enumerate(path)),
    )
    written = tmp_path / "written.csv"
    cli._write_path_csv(str(written), path)
    assert written.read_bytes() == expected.read_bytes()


def test_path_rows_past_one_hundred_million():
    # a row number of nine digits takes a second word; one block that
    # crosses 10**8 is built directly, without a path of that length
    start = 10**8 - 5
    values = [0.5, 2.0, 1e-5, 3.25, 7.0, 1e16, 0.125, -1.0]
    chunk = np.array(values)[:, None]
    rows = np.empty((len(values), 2 + 1 + 4), np.uint64)
    text = cli._path_rows(chunk, start, rows).tobytes()
    assert text.decode() == "".join(f"{start + i},{v:.17g}\n" for i, v in enumerate(values))


@pytest.mark.parametrize("package", ["scipy", "concurrent.futures", "_hashlib", "statistics"])
def test_cli_import_leaves_scipy_unloaded(package):
    # montecarlo imports concurrent.futures only when it asks for a pool;
    # `config_digest` imports hashlib (OpenSSL's `_hashlib`, about 3.5 MB
    # resident) and the estimate interval `statistics` when they run
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, armax_extremes.cli; "
            f"print(sorted(m for m in sys.modules if m == {package!r} "
            f"or m.startswith({package + '.'!r})))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------------ estimate

ESTIMATE_HEADER = [
    "j",
    "n",
    "u_bar",
    "c_moment",
    "c_lebedev",
    "c_davis_resnick",
    "sigma2",
    "ci_low",
    "ci_high",
    "variance_convention",
    "alpha_hill",
    "flag",
]


def test_estimate_from_file_matches_process_mode(tmp_path, capsys):
    sim_out = tmp_path / "path.csv"
    sim_cfg = write_config(
        tmp_path,
        "sim.json",
        {"command": "simulate", "process": D1_INDEP, "n": 400, "seed": 3,
         "output_path": str(sim_out)},
    )
    assert run_main(capsys, "simulate", "--config", sim_cfg).returncode == 0

    est_file = tmp_path / "est_file.csv"
    file_cfg = write_config(
        tmp_path,
        "est_file.json",
        {"command": "estimate", "input_path": str(sim_out),
         "output_path": str(est_file)},
    )
    assert run_main(capsys, "estimate", "--config", file_cfg).returncode == 0

    est_proc = tmp_path / "est_proc.csv"
    proc_cfg = write_config(
        tmp_path,
        "est_proc.json",
        {"command": "estimate", "process": D1_INDEP, "n": 400, "seed": 3,
         "output_path": str(est_proc)},
    )
    assert run_main(capsys, "estimate", "--config", proc_cfg).returncode == 0

    # the CSV round trip is exact, so both estimate modes agree to the byte
    assert est_file.read_bytes() == est_proc.read_bytes()

    header, rows = read_rows(est_file)
    assert header == ESTIMATE_HEADER
    assert len(rows) == 1
    expected = ProcessConfig(
        1, (0.5,), (MarginSpec.frechet(1.0),), CopulaSpec.independence()
    )
    report = build_estimate_report(simulate_path(expected, 400, 3).data[:, 0])
    row = rows[0]
    assert int(row[0]) == 0 and int(row[1]) == 400
    assert float(row[3]) == report.c_moment
    assert float(row[4]) == report.c_lebedev
    assert float(row[5]) == report.c_davis_resnick
    assert row[9] == "delta_pow4"
    assert row[11] == "ok"


def test_estimate_flags_are_warnings_not_errors(tmp_path, capsys):
    data = tmp_path / "increasing.csv"
    data.write_text("".join(f"{float(i)}\n" for i in range(1, 101)))
    out = tmp_path / "est.csv"
    cfg = write_config(
        tmp_path,
        "est.json",
        {"command": "estimate", "input_path": str(data), "output_path": str(out)},
    )
    proc = run_main(capsys, "estimate", "--config", cfg)
    assert proc.returncode == 0
    assert "warning: column 0:" in proc.stderr
    assert "lebedev_misfit" in proc.stderr
    _, rows = read_rows(out)
    assert "lebedev_misfit" in rows[0][11]
    assert rows[0][4] == "nan"


def test_estimate_of_a_c_09_column_has_a_positive_variance(tmp_path, capsys):
    # the benchmark's pipeline process: the paper's variance series is
    # negative near c = 0.9, the exact one the report uses is not
    process = {
        "d": 2,
        "c": [0.5, 0.9],
        "margins": [{"kind": "frechet", "alpha": 1.0}, {"kind": "frechet", "alpha": 1.0}],
        "copula": {"kind": "gumbel", "gamma": 2.0},
    }
    out = tmp_path / "est.csv"
    cfg = write_config(tmp_path, "est.json", {
        "command": "estimate", "process": process, "n": 20_000, "seed": 101,
        "output_path": str(out),
    })
    proc = run_main(capsys, "estimate", "--config", cfg)
    assert proc.returncode == 0
    assert proc.stderr == ""
    header, rows = read_rows(out)
    for row in map(lambda r: dict(zip(header, r)), rows):
        c_hat = float(row["c_moment"])
        assert row["flag"] == "ok"
        assert float(row["sigma2"]) == estimation.asymptotic_variance_exact(c_hat) > 0.0
        assert float(row["ci_low"]) < c_hat < float(row["ci_high"])
    assert estimation.asymptotic_variance(float(rows[1][3])) < 0.0


def test_estimate_flags_a_nan_no_code_explains(tmp_path):
    # inf / inf makes the minimum ratio nan on a positive series; estimate
    # writes the code montecarlo writes for it, not ok
    code, _, err = _estimate_in_process(tmp_path, b"x1\n1.0\n2.0\ninf\ninf\n3.0\n1.5\n")
    assert code == 0
    header, rows = read_rows(tmp_path / "est.csv")
    row = dict(zip(header, rows[0]))
    assert row["c_davis_resnick"] == "nan"
    assert "estimator_unavailable" in row["flag"].split(";")
    assert "davis_resnick_unavailable" not in row["flag"]
    assert f"warning: column 0: {row['flag']}\n" in err


@pytest.mark.parametrize(
    "content, codes",
    [(b"x1\n1.0\nnan\n2.0\n", {"moment_misfit", "ci_unavailable", "hill_unavailable"}),
     (b"x1\n1.0\ninf\ninf\n2.0\n", {"hill_unavailable"})],
    ids=["nan", "inf"],
)
def test_estimate_flags_a_hill_index_that_is_not_finite(tmp_path, content, codes):
    # a nan entry is nan through u_bar and c_moment, and the Hill index of
    # either column (nan, and 0.0 from inf / 2) is unavailable
    code, _, err = _estimate_in_process(tmp_path, content)
    assert code == 0
    header, rows = read_rows(tmp_path / "est.csv")
    row = dict(zip(header, rows[0]))
    assert row["alpha_hill"] == "nan"
    assert codes <= set(row["flag"].split(";"))
    if "moment_misfit" in codes:
        assert row["u_bar"] == row["c_moment"] == row["sigma2"] == "nan"
    assert f"warning: column 0: {row['flag']}\n" in err


def _estimate_in_process(tmp_dir, content: bytes | None):
    """Exit status, stdout and stderr of ``estimate`` on an input file
    holding ``content`` (a directory for None), run in process with
    warnings made errors."""
    data = tmp_dir / "in.csv"
    if content is None:
        data.mkdir()
    else:
        data.write_bytes(content)
    cfg = write_config(tmp_dir, "est.json", {
        "command": "estimate", "input_path": str(data), "output_path": str(tmp_dir / "est.csv"),
    })
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exit_:
            cli.main(["estimate", "--config", cfg])
    return exit_.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "content, fragment",
    [
        (None, "cannot read input file"),
        (b"", "is empty"),
        (b"\n  \n", "is empty"),
        (b"1.0\nabc\n", "is not numeric CSV"),
        (b"1.0\n", "input file must hold at least two rows"),
        (b"t,x1\n", "input file must hold at least two rows"),
    ],
    ids=["unreadable", "empty", "blank", "non-numeric", "one-row", "header-only"],
)
def test_estimate_refuses_bad_input_files(tmp_path, content, fragment):
    code, out, err = _estimate_in_process(tmp_path, content)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and fragment in err
    assert err.count("\n") == 1


def test_estimate_skips_blank_lines_before_the_first_row(tmp_path):
    for content in (b"\n1.0\n2.0\n3.0\n", b" \n\nt,x1\n0,1.0\n1,2.0\n2,3.0\n"):
        code, out, _ = _estimate_in_process(tmp_path, content)
        assert code == 0
        assert out.startswith("estimate: wrote 1 rows")
        _, rows = read_rows(tmp_path / "est.csv")
        assert rows[0][:2] == ["0", "3"]


def test_estimate_keeps_a_lone_t_column_and_skips_lines_of_spaces(tmp_path):
    # a header t drops its column only when another column follows it,
    # and a line of spaces is skipped where an empty line is
    for same in ((b"1\n2\n3\n", b"t\n1\n2\n3\n"), (b"1.0\n2.0\n\n3.0\n", b"1.0\n2.0\n  \n3.0\n")):
        outputs = []
        for content in same:
            code, out, _ = _estimate_in_process(tmp_path, content)
            assert code == 0 and out.startswith("estimate: wrote 1 rows")
            outputs.append((tmp_path / "est.csv").read_bytes())
        assert outputs[0] == outputs[1]
        _, rows = read_rows(tmp_path / "est.csv")
        assert rows[0][:2] == ["0", "3"]


@pytest.mark.parametrize("k", [0, 1000])
def test_estimate_refuses_a_hill_k_outside_0_n(tmp_path, monkeypatch, capsys, k):
    def no_path(*args):
        raise AssertionError("estimate drew a path")

    fragment = "config error: k must lie strictly between 0 and n\n"
    # a simulated path is refused before it is drawn, also under --print-config
    monkeypatch.setattr(cli, "simulate_path", no_path)
    out = tmp_path / "est.csv"
    cfg = write_config(tmp_path, "est.json", {
        "command": "estimate", "process": D1_INDEP, "n": 1000, "seed": 1, "k": k,
        "output_path": str(out),
    })
    for flags in ([], ["--print-config"]):
        assert main_exit(["estimate", "--config", cfg, *flags]) == 2
        assert capsys.readouterr().err == fragment
    # a file is refused once it is read
    data = tmp_path / "in.csv"
    data.write_text("".join(f"{i + 1.0}\n" for i in range(1000)))
    cfg = write_config(tmp_path, "est.json", {
        "command": "estimate", "input_path": str(data), "k": k, "output_path": str(out),
    })
    assert main_exit(["estimate", "--config", cfg]) == 2
    assert capsys.readouterr() == ("", fragment)
    assert not out.exists()


_CSV_NUMBERS = st.sampled_from(
    ["1.5", "0.25", "3", "7e2", "-2", "0", "1e-300", "1e300", "nan", "inf", "-inf"]
)


@st.composite
def _csv_texts(draw):
    """CSV text: an optional header over rows of one width, with up to
    three blank lines, ragged rows or stray tokens put in anywhere."""
    width = draw(st.integers(1, 3))
    row = st.lists(_CSV_NUMBERS, min_size=width, max_size=width).map(",".join)
    lines = draw(st.lists(row, max_size=8))
    defect = st.sampled_from(["", " ", "t", "x"]) | st.lists(_CSV_NUMBERS, max_size=4).map(",".join)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(defect))
    names = [f"x{j + 1}" for j in range(width)]
    header = draw(st.sampled_from([[], [",".join(names)], [",".join(["t", *names[1:]])]]))
    return "".join(line + "\n" for line in header + lines)


@settings(max_examples=100, database=None)
@given(_csv_texts())
def test_estimate_input_files_exit_cleanly(tmp_path_factory, text):
    # each file is estimated or refused, with no traceback and no Python
    # warning
    code, _, err = _estimate_in_process(tmp_path_factory.mktemp("fuzz"), text.encode())
    assert code in (0, 2, 3)
    assert "Traceback" not in err and "Warning" not in err


# ------------------------------------------------------------ extremal index


def test_extremal_index_defaults_and_theory(tmp_path, capsys):
    out = tmp_path / "theta.csv"
    cfg = write_config(
        tmp_path,
        "idx.json",
        {
            "command": "extremal_index",
            "process": {
                "d": 2,
                "c": [0.8, 0.1],
                "margins": [
                    {"kind": "frechet", "alpha": 1.0},
                    {"kind": "frechet", "alpha": 1.0},
                ],
                "copula": {"kind": "comonotone"},
            },
            "n": 3000,
            "seed": 5,
            "output_path": str(out),
        },
    )
    proc = run_main(capsys, "extremal-index", "--config", cfg)
    assert proc.returncode == 0
    assert "extremal-index: wrote 1 rows" in proc.stdout
    header, rows = read_rows(out)
    assert header == [
        "tau_1", "tau_2", "theta_theoretical", "theta_empirical", "k", "n", "flag",
    ]
    row = rows[0]
    # default tau grid is a single row of ones; default k is ceil(sqrt(n))
    assert float(row[0]) == 1.0 and float(row[1]) == 1.0
    # hand computation for comonotone innovations at tau = (1, 1): the
    # tau levels are x = (5, 10/9), the innovation tail is
    # max(1/5, 9/10) = 0.9 and the stationary tail sums to 1.7
    assert float(row[2]) == pytest.approx(9.0 / 17.0, abs=1e-9)
    assert 0.0 <= float(row[3]) <= 1.0
    assert int(row[4]) == 55
    assert int(row[5]) == 3000
    assert row[6] == "ok"


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2)])
def test_extremal_index_default_k_lies_below_n(tmp_path, capsys, n, k):
    # ceil(sqrt(2)) is 2, which is not below n = 2; the default is
    # clamped to n - 1 as estimate's Hill k is, and moves nothing at n >= 3
    out = tmp_path / "theta.csv"
    cfg = write_config(
        tmp_path,
        "idx.json",
        {"command": "extremal_index", "process": D2_GUMBEL, "n": n, "seed": 7, "output_path": str(out)},
    )
    assert run_main(capsys, "extremal-index", "--config", cfg).returncode == 0
    header, rows = read_rows(out)
    assert [int(row[header.index("k")]) for row in rows] == [k]
    assert [int(row[header.index("n")]) for row in rows] == [n]


def test_extremal_index_csv_bytes_pinned(tmp_path, capsys):
    # sha256 of the CSV written when each tau row ranked the path anew
    out = tmp_path / "pin.csv"
    cfg = write_config(
        tmp_path,
        "idx.json",
        {"command": "extremal_index", "process": D2_GUMBEL, "n": 2000, "seed": 7,
         "tau_grid": [[1.0, 1.0], [0.5, 2.0], [0.0, 1.5]], "output_path": str(out)},
    )
    assert run_main(capsys, "extremal-index", "--config", cfg).returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7907a94e64621177474c77b30dc025cb5b7cbfedb73313ea5f9832f5d7e2f7b7"
    )


def test_extremal_index_undefined_flags_every_row(tmp_path, monkeypatch, capsys):
    def undefined(*args):
        raise cli.UndefinedResultError("no observation exceeds the tau levels")

    monkeypatch.setattr(cli, "empirical_mv_extremal_index", undefined)
    out = tmp_path / "theta.csv"
    config = cli.RunConfig(
        command="extremal_index",
        process=ProcessConfig.from_dict(D2_GUMBEL),
        n=200,
        seed=3,
        output_path=str(out),
        tau_grid=((1.0, 1.0), (0.0, 1.0)),
    )
    assert cli.run(config) == 0
    assert capsys.readouterr().err.count("warning:") == 1
    _, rows = read_rows(out)
    assert [(r[3], r[6]) for r in rows] == [("nan", "empirical_undefined")] * 2


@pytest.mark.parametrize(
    "extra, fragment",
    [
        ({"tau_grid": [[-1.0, 1.0]]}, "tau must be nonnegative with at least one positive entry"),
        ({"tau_grid": [[1.0, 1.0], [0.0, 0.0]]}, "tau must be nonnegative with at least one"),
        ({"tau_grid": []}, "tau must be nonnegative with at least one positive entry"),
        ({"k": 0}, "k must lie strictly between 0 and n"),
        ({"k": 1000}, "k must lie strictly between 0 and n"),
        # n = 2 takes the default k = n - 1 = 1; n = 1 has no k to take
        ({"n": 1}, "extremal_index requires n >= 2"),
        # the command field may spell the command as the subcommand does
        ({"command": "extremal-index", "k": 0}, "k must lie strictly between 0 and n"),
        ({"command": "tail-dep"}, "config command 'tail-dep' does not match the extremal-index "
                                  "subcommand, which takes 'extremal-index' or 'extremal_index'"),
        # a row of the wrong length
        ({"tau_grid": [[1.0, 1.0], [1.0]]}, "tau_grid rows must have length d"),
    ],
)
def test_extremal_index_refuses_bad_parameters_before_drawing_a_path(
    tmp_path, monkeypatch, capsys, extra, fragment
):
    def no_path(*args):
        raise AssertionError("extremal-index drew a path")

    monkeypatch.setattr(cli, "simulate_path", no_path)
    out = tmp_path / "theta.csv"
    cfg = write_config(tmp_path, "idx.json", {
        "command": "extremal_index", "process": D2_GUMBEL, "n": 1000, "seed": 1,
        "output_path": str(out), **extra,
    })
    for flags in ([], ["--print-config"]):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["extremal-index", "--config", cfg, *flags])
        assert exit_.value.code == 2
        assert f"config error: {fragment}" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ tail dep


def test_tail_dep_defaults(tmp_path, capsys):
    out = tmp_path / "tdc.csv"
    cfg = write_config(
        tmp_path,
        "tdc.json",
        {"command": "tail_dep", "process": D2_GUMBEL, "n": 4000, "seed": 7,
         "output_path": str(out)},
    )
    proc = run_main(capsys, "tail-dep", "--config", cfg)
    assert proc.returncode == 0
    assert "(regime bands: +/-0.05 around 0.5 and 1)" in proc.stdout
    header, rows = read_rows(out)
    assert header == [
        "j", "jp", "r", "lambda_theoretical", "lambda_empirical",
        "eta_empirical", "regime", "flag",
    ]
    # default pairs are all ordered pairs, default lags are 0..2
    assert len(rows) == 12
    assert {(r[0], r[1]) for r in rows} == {
        ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")
    }
    by_key = {(r[0], r[1], r[2]): r for r in rows}
    assert float(by_key[("0", "0", "1")][3]) == pytest.approx(0.5, abs=1e-6)
    # equal-c cross pair at lag 0: the stationary pair copula keeps the
    # innovation dependence, so lambda = 2 - 2**(1/gamma)
    assert float(by_key[("0", "1", "0")][3]) == pytest.approx(
        2.0 - math.sqrt(2.0), abs=1e-4
    )
    assert all(r[7] == "ok" for r in rows)


def test_tail_dep_defaults_exponential_margin(tmp_path, capsys):
    out = tmp_path / "tdc.csv"
    process = dict(D1_INDEP, c=[0.7], margins=[{"kind": "exponential", "rate": 1.0}])
    cfg = write_config(
        tmp_path,
        "tdc.json",
        {"command": "tail_dep", "process": process, "n": 4000, "seed": 7,
         "output_path": str(out)},
    )
    proc = run_main(capsys, "tail-dep", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    _, rows = read_rows(out)
    assert [r[2] for r in rows] == ["0", "1", "2"]
    assert float(rows[0][3]) == 1.0


D2_UNEQUAL = {**D2_GUMBEL, "c": [0.5, 0.9]}


def test_tail_dep_csv_bytes_pinned(tmp_path, capsys):
    # sha256 of the CSV written when every cell ranked its own windows
    out = tmp_path / "pin.csv"
    cfg = write_config(
        tmp_path,
        "tdc.json",
        {"command": "tail_dep", "process": D2_UNEQUAL, "n": 4000, "seed": 7,
         "output_path": str(out)},
    )
    assert run_main(capsys, "tail-dep", "--config", cfg).returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "031195666d891edff8c49e5aade2153802a73f83754719e440a442b369efaf35"
    )


def test_tail_dep_sorts_each_column_once(tmp_path, monkeypatch):
    # the 12 default cells read all 20 of their windows' thresholds off
    # one sorted copy of each of the two columns, and no whole window or
    # column is ranked by an argsort
    n = 4000
    calls = []
    for name in ("sort", "argsort"):
        def counting(a, *args, _name=name, _func=getattr(np, name), **kwargs):
            if np.size(a) >= n - 2:
                calls.append((_name, a))
            return _func(a, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    config = cli.resolve_run_config(cli.run_config_from_dict(
        {"command": "tail_dep", "process": D2_UNEQUAL, "n": n, "seed": 7,
         "output_path": str(tmp_path / "tdc.csv")}
    ))
    assert cli.run(config) == 0
    assert [name for name, _ in calls] == ["sort", "sort"]
    assert not np.shares_memory(calls[0][1], calls[1][1])


def test_tail_dep_flags_undefined_cells_in_row_order(tmp_path, monkeypatch, capsys):
    # rows are pair-major while ranks are taken lag by lag: the two
    # undefined cells below come in the opposite order lag by lag
    n, undefined = 1000, {(0, 0, 1): "no head", (0, 1, 0): "no tail"}
    data = simulate_path(ProcessConfig.from_dict(D2_GUMBEL), n, 3).data

    windows = {cell: (data[: n - cell[2], cell[0]], data[cell[2] :, cell[1]])
               for cell in undefined}
    rank_eta = taildep._rank_eta

    def undefined_eta(head, tail, k):
        for cell, (h, tl) in windows.items():
            if np.array_equal(head.values, h) and np.array_equal(tail.values, tl):
                raise UndefinedResultError(undefined[cell])
        return rank_eta(head, tail, k)

    monkeypatch.setattr(taildep, "_rank_eta", undefined_eta)
    out = tmp_path / "tdc.csv"
    cfg = write_config(tmp_path, "tdc.json", {
        "command": "tail_dep", "process": D2_GUMBEL, "n": n, "seed": 3,
        "pairs": [[0, 0], [0, 1]], "r_list": [0, 1], "output_path": str(out),
    })
    with pytest.raises(SystemExit) as exit_:
        cli.main(["tail-dep", "--config", cfg])
    assert exit_.value.code == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: pair (0,0) lag 1: no head",
        "warning: pair (0,1) lag 0: no tail",
    ]
    _, rows = read_rows(out)
    assert [tuple(map(int, row[:3])) for row in rows] == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    for row in rows:
        assert math.isfinite(float(row[3]))
        if tuple(map(int, row[:3])) in undefined:
            assert row[4:] == ["nan", "nan", "nan", "empirical_undefined"]
        else:
            assert math.isfinite(float(row[4])) and math.isfinite(float(row[5]))
            assert row[6] != "nan" and row[7] == "ok"


def test_tail_dep_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    # the lag-1 cell (1, 0) of this process has a diverging grid: its row
    # is flagged and the other 11 default cells keep their values
    out = tmp_path / "tdc.csv"
    cfg = write_config(
        tmp_path,
        "tdc.json",
        {
            "command": "tail_dep",
            "process": {
                "d": 2,
                "c": [0.3, 0.9],
                "margins": [{"kind": "frechet", "alpha": 1.0}, {"kind": "exponential", "rate": 1.0}],
                "copula": {"kind": "gumbel", "gamma": 4.0},
            },
            "n": 1000,
            "seed": 7,
            "output_path": str(out),
        },
    )
    proc = run_cli("tail-dep", "--config", cfg)
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        "warning: pair (1,0) lag 1: lag TDC grid did not converge: last increment "
        "-1.094e-03 exceeds 10x the previous 5.199e-05"
    ]
    header, rows = read_rows(out)
    assert len(rows) == 12
    flag = header.index("flag")
    for row in rows:
        if row[:3] == ["1", "0", "1"]:
            assert row[3] == "nan" and row[flag] == "theoretical_undefined"
            assert math.isfinite(float(row[4])) and math.isfinite(float(row[5]))
        else:
            assert math.isfinite(float(row[3])) and row[flag] == "ok"
    # the same cell with no empirical value either carries both reasons
    real_cells = cli.empirical_cells

    def cells_without_head(path, cells, t, k):
        found = real_cells(path, cells, t, k)
        return [UndefinedResultError("no head") if cell == (1, 0, 1) else value
                for cell, value in zip(cells, found)]

    monkeypatch.setattr(cli, "empirical_cells", cells_without_head)
    assert main_exit(["tail-dep", "--config", cfg]) == 0
    assert capsys.readouterr().err.splitlines()[1:] == ["warning: pair (1,0) lag 1: no head"]
    _, rows = read_rows(out)
    assert [row[3:] for row in rows if row[:3] == ["1", "0", "1"]] == [
        ["nan", "nan", "nan", "nan", "theoretical_undefined;empirical_undefined"]
    ]


def test_tail_dep_writes_an_exact_limit(tmp_path):
    # identical comonotone components: lambda is exactly 1, and the grid's
    # truncation noise (last increment 4.4e-12) stays below the floor
    out = tmp_path / "tdc.csv"
    uniform = {"kind": "uniform01"}
    cfg = write_config(tmp_path, "tdc.json", {
        "command": "tail_dep",
        "process": {"d": 2, "c": [0.5, 0.5], "margins": [uniform, uniform],
                    "copula": {"kind": "comonotone"}},
        "n": 1000, "seed": 1, "pairs": [[0, 1]], "r_list": [0], "output_path": str(out),
    })
    assert main_exit(["tail-dep", "--config", cfg]) == 0
    header, rows = read_rows(out)
    assert [row[header.index("lambda_theoretical")] for row in rows] == ["1"]


@pytest.mark.parametrize(
    "extra, fragment",
    [
        ({"r_list": [-1]}, "lag r must be nonnegative"),
        ({"r_list": [0, 999]}, "series too short for the requested lag"),
        ({"t": 0.0}, "t must lie in (0, 1)"),
        ({"t": 1.5}, "t must lie in (0, 1)"),
        ({"t": 0.005}, "t * (n - r) must be at least 10"),
        ({"r_list": [0, 600]}, "t * (n - r) must be at least 10"),
        ({"k": 0}, "k must lie strictly between 0 and n - r"),
        ({"k": 999, "r_list": [0, 1]}, "k must lie strictly between 0 and n - r"),
        ({"t_grid": [0.01, 0.001]}, "unknown config fields: ['t_grid']"),
        ({"pairs": [[-1, 0]]}, "component indices out of range"),
        ({"pairs": [[0, 0], [1, 0]]}, "component indices out of range"),
        ({"pairs": [[0, 2]]}, "component indices out of range"),
        # the command field may spell the command as the subcommand does
        ({"command": "tail-dep", "t": 0.0}, "t must lie in (0, 1)"),
    ],
)
def test_tail_dep_refuses_bad_parameters_before_drawing_a_path(
    tmp_path, monkeypatch, capsys, extra, fragment
):
    def no_path(*args):
        raise AssertionError("tail-dep drew a path")

    monkeypatch.setattr(cli, "simulate_path", no_path)
    out = tmp_path / "tdc.csv"
    cfg = write_config(tmp_path, "tdc.json", {
        "command": "tail_dep", "process": D1_INDEP, "n": 1000, "seed": 1,
        "output_path": str(out), **extra,
    })
    for flags in ([], ["--print-config"]):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["tail-dep", "--config", cfg, *flags])
        assert exit_.value.code == 2
        assert f"config error: {fragment}" in capsys.readouterr().err
    assert not out.exists()


def test_tail_dep_without_cells_is_refused(tmp_path, monkeypatch, capsys):
    # an empty cell grid would write a header-only CSV; it is refused
    # before any parameter check, so t = 5.0 is not what refuses it
    for empty in ({"pairs": []}, {"r_list": []}):
        test_tail_dep_refuses_bad_parameters_before_drawing_a_path(
            tmp_path, monkeypatch, capsys, {**empty, "t": 5.0},
            "tail_dep needs at least one pair and one lag in r_list",
        )


# -------------------------------------------------------------------- copula


def test_copula_tables_for_valid_derived(tmp_path, capsys):
    out = tmp_path / "cop.csv"
    cfg = write_config(
        tmp_path,
        "cop.json",
        {
            "command": "copula",
            "copula": {
                "kind": "derived",
                "base": {"kind": "gumbel", "gamma": 2.0},
                "theta": [0.5, 0.5],
            },
            "output_path": str(out),
        },
    )
    proc = run_main(capsys, "copula", "--config", cfg)
    assert proc.returncode == 0
    assert proc.stderr == ""
    header, rows = read_rows(out)
    assert header == ["table", "copula", "m", "p", "value", "flag"]
    assert len(rows) == 21  # 2 coefficients + 2 x 9 diagonal + validity
    coeff = {r[1]: float(r[4]) for r in rows if r[0] == "extremal_coefficient"}
    # equal theta reproduces the base copula exactly
    assert coeff["base"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert coeff["derived"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    validity = [r for r in rows if r[0] == "validity"]
    assert validity == [["validity", "derived", "nan", "nan", "1", "ok"]]


def test_copula_flags_invalid_derived(tmp_path, capsys):
    out = tmp_path / "cop.csv"
    cfg = write_config(
        tmp_path,
        "cop.json",
        {
            "command": "copula",
            "copula": {
                "kind": "derived",
                "base": {"kind": "gumbel", "gamma": 2.0},
                "theta": [1.0, 0.5],
            },
            "output_path": str(out),
        },
    )
    proc = run_main(capsys, "copula", "--config", cfg)
    assert proc.returncode == 0  # diagnostics still useful, so flag + warn only
    assert "derived copula fails the bound checks" in proc.stderr
    _, rows = read_rows(out)
    validity = [r for r in rows if r[0] == "validity"][0]
    assert validity[4] == "0" and validity[5] == "invalid_derived_copula"
    coeff = {r[1]: float(r[4]) for r in rows if r[0] == "extremal_coefficient"}
    assert coeff["derived"] == pytest.approx(math.sqrt(5.0) - 1.0, abs=1e-12)


def test_copula_base_only(tmp_path, capsys):
    out = tmp_path / "cop.csv"
    cfg = write_config(
        tmp_path,
        "cop.json",
        {"command": "copula", "copula": {"kind": "gumbel", "gamma": 2.0},
         "output_path": str(out)},
    )
    assert run_main(capsys, "copula", "--config", cfg).returncode == 0
    _, rows = read_rows(out)
    assert len(rows) == 10  # one coefficient + 9 diagonal, no validity table
    assert {r[0] for r in rows} == {"extremal_coefficient", "diagonal"}
    assert all(r[1] == "base" for r in rows)


# ---------------------------------------------------------------- montecarlo

SUMMARY_KEYS = [
    "bias_c_dr",
    "bias_c_lebedev",
    "bias_c_moment",
    "c_true",
    "ci_coverage",
    "command",
    "empirical_var_sqrt_n_c_moment",
    "empirical_var_sqrt_n_u_bar",
    "matching_convention",
    "n",
    "normality_pvalue",
    "predicted_var_delta_pow4",
    "predicted_var_paper_3m2c",
    "replicates",
    "rmse_c_dr",
    "rmse_c_lebedev",
    "rmse_c_moment",
    "seed",
    "sigma2_at_c_true",
    "sigma2_exact_at_c_true",
]


def _mc_config(tmp_path, out, **extra):
    payload = {
        "command": "montecarlo",
        "process": D1_INDEP,
        "n": 200,
        "seed": 42,
        "replicates": 12,
        "output_path": str(out),
        **extra,
    }
    return write_config(tmp_path, f"mc_{out.stem}.json", payload)


def test_montecarlo_outputs(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    cfg = _mc_config(tmp_path, out)
    proc = run_main(capsys, "montecarlo", "--config", cfg)
    assert proc.returncode == 0
    assert "matching variance convention:" in proc.stdout
    header, rows = read_rows(out)
    assert header == ["replicate", "n", "c_true", "c_moment", "c_lebedev", "c_dr", "flag"]
    assert [int(r[0]) for r in rows] == list(range(12))
    assert all(r[1] == "200" and float(r[2]) == 0.5 for r in rows)
    with open(str(out) + ".summary.json") as fh:
        summary = json.load(fh)
    assert sorted(summary) == SUMMARY_KEYS
    assert summary["replicates"] == 12
    assert summary["normality_pvalue"] is None  # needs at least 20 replicates


def test_montecarlo_workers_do_not_change_results(tmp_path, capsys):
    out1 = tmp_path / "w1.csv"
    assert run_main(capsys, "montecarlo", "--config", _mc_config(tmp_path, out1)).returncode == 0
    out2 = tmp_path / "w2.csv"
    assert run_main(
        capsys, "montecarlo", "--config", _mc_config(tmp_path, out2), "--workers", "2"
    ).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "w1.csv.summary.json").read_bytes() == (
        tmp_path / "w2.csv.summary.json"
    ).read_bytes()


@pytest.mark.parametrize(
    "workers, replicates, cpus, sizes",
    [(64, 3, 8, []), (64, 12, 8, [2]), (3, 12, 8, [2]), (64, 12, None, []),
     (64, 40, 8, [5]), (3, 40, 8, [3]), (64, 40, 4, [4])],
)
def test_montecarlo_pool_is_bounded(tmp_path, monkeypatch, workers, replicates, cpus, sizes):
    # a serial stand-in for the process pool records the size asked of it;
    # no worker process is started.  The tasks are batches of 8
    # replicates, so a pool never outnumbers the batches, the CPUs or
    # the workers asked for, and one batch runs serially
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    outputs = []
    for name, count in (("pool.csv", workers), ("serial.csv", 1)):
        out = tmp_path / name
        config = cli.resolve_run_config(cli.run_config_from_dict(
            {"command": "montecarlo", "process": D1_INDEP, "n": 200, "seed": 42,
             "replicates": replicates, "workers": count, "output_path": str(out)}
        ))
        assert cli.run(config) == 0
        outputs.append((out.read_bytes(), (tmp_path / (name + ".summary.json")).read_bytes()))
    assert asked == sizes
    assert outputs[0] == outputs[1]


def test_serial_montecarlo_reuses_one_scratch(tmp_path, monkeypatch):
    # a fresh estimator scratch per batch would be handed back to the
    # system and faulted in again each time; 20 replicates are 3 batches
    scratches = []
    estimates = cli._c_estimates

    def spy(x, scratch=None):
        scratches.append(scratch)
        return estimates(x, scratch)

    monkeypatch.setattr(cli, "_c_estimates", spy)
    config = cli.resolve_run_config(cli.run_config_from_dict(
        {"command": "montecarlo", "process": D1_INDEP, "n": 200, "seed": 42,
         "replicates": 20, "workers": 1, "output_path": str(tmp_path / "mc.csv")}
    ))
    assert cli.run(config) == 0
    assert len(scratches) == 3 and isinstance(scratches[0], np.ndarray)
    assert all(scratch is scratches[0] for scratch in scratches)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("replicates", [2, 7, 8, 9, 17])
def test_montecarlo_batches_equal_the_scalar_loop(tmp_path, monkeypatch, replicates, workers):
    # batches of 8 replicates, ragged last batches and one batch per pool
    # task write the bytes of a study drawn one replicate at a time on
    # the scalar loop; n = 2000 puts every column on the lane sweeps
    def study(name, count):
        out = tmp_path / name
        config = cli.resolve_run_config(cli.run_config_from_dict(
            {"command": "montecarlo", "process": D1_INDEP, "n": 2000, "seed": 42,
             "replicates": replicates, "workers": count, "output_path": str(out)}
        ))
        assert cli.run(config) == 0
        return out.read_bytes(), (tmp_path / (name + ".summary.json")).read_bytes()

    assert armax._block_length(0.5, 3000) > 0 and armax._batch_size(
        ProcessConfig.from_dict(D1_INDEP), 2000) == 8
    batched = study("batched.csv", workers)
    with monkeypatch.context() as patch:
        patch.setattr(armax, "_MAX_BATCH", 1)
        patch.setattr(armax, "_block_length", lambda c, n: 0)
        assert study("scalar.csv", 1) == batched


@pytest.mark.parametrize(
    "margin",
    [{"kind": "exponential", "rate": 1.0}, {"kind": "uniform01"}, {"kind": "frechet", "alpha": 1.0}],
    ids=["exponential", "uniform01", "frechet"],
)
def test_montecarlo_flags_the_codes_estimate_writes(tmp_path, capsys, margin):
    # a replicate carries the estimator codes estimate writes for the
    # same path (its interval and Hill codes are not montecarlo's);
    # unit Frechet paths fit, and read ok
    process = {**D1_INDEP, "margins": [margin]}
    out = tmp_path / "mc.csv"
    cfg = _mc_config(tmp_path, out, process=process, n=200, seed=1, replicates=5)
    assert main_exit(["montecarlo", "--config", cfg]) == 0
    _, rows = read_rows(out)
    codes = ("moment_misfit", "lebedev_misfit", "lebedev_boundary", "davis_resnick_unavailable")
    config = ProcessConfig.from_dict(process)
    for i, row in enumerate(rows):
        report = build_estimate_report(simulate_path(config, 200, (1, i)).data[:, 0])
        assert float(row[3]) == report.c_moment
        assert row[6] == (";".join(f for f in report.flags if f in codes) or "ok")
    flags = [row[6] for row in rows]
    if margin["kind"] == "frechet":
        assert flags == ["ok"] * 5
    else:
        assert all(flag != "ok" for flag in flags)


def test_montecarlo_flags_a_nan_no_code_explains(tmp_path, capsys, monkeypatch):
    # a minimum ratio of nan with no entry <= 0, as inf / inf gives
    monkeypatch.setattr(estimation, "_min_ratio", lambda x, scratch: np.full(len(x), math.nan))
    out = tmp_path / "mc.csv"
    assert main_exit(["montecarlo", "--config", _mc_config(tmp_path, out, replicates=3)]) == 0
    _, rows = read_rows(out)
    assert [row[5:] for row in rows] == [["nan", "estimator_unavailable"]] * 3


def test_montecarlo_replicates_override(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    cfg = _mc_config(tmp_path, out)
    assert run_main(capsys, "montecarlo", "--config", cfg, "--replicates", "6").returncode == 0
    _, rows = read_rows(out)
    assert len(rows) == 6


@pytest.mark.parametrize("command", [name for name in cli.COMMANDS if name != "montecarlo"])
def test_only_montecarlo_takes_replicates_and_workers(capsys, command):
    for flag in ("--replicates", "--workers"):
        with pytest.raises(SystemExit) as exit_:
            cli.main([command.replace("_", "-"), "--config", "unused.json", flag, "3"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


# -------------------------------------------------------------- print-config


def test_print_config_resolves_defaults_and_round_trips(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "tdc.json",
        {"command": "tail_dep", "process": D2_GUMBEL, "n": 1000, "seed": 1,
         "output_path": str(tmp_path / "x.csv")},
    )
    proc = run_main(capsys, "tail-dep", "--config", cfg, "--print-config")
    assert proc.returncode == 0
    resolved = json.loads(proc.stdout)
    assert resolved["command"] == "tail_dep"
    assert resolved["t"] == 0.02
    assert resolved["r_list"] == [0, 1, 2]
    assert resolved["pairs"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    # tail_dep reads no level, convention or workers, so none is echoed
    assert not {"level", "convention", "workers"} & set(resolved)
    assert (tmp_path / "x.csv").exists() is False  # print-config does not run

    # the echoed config is itself a valid config and resolves to itself
    echo = tmp_path / "resolved.json"
    echo.write_text(proc.stdout)
    proc2 = run_main(capsys, "tail-dep", "--config", str(echo), "--print-config")
    assert proc2.returncode == 0
    assert proc2.stdout == proc.stdout
    # the subcommand's spelling of the command resolves to the same
    # config, which echoes the tail_dep spelling
    spelled = tmp_path / "spelled.json"
    spelled.write_text(json.dumps({**resolved, "command": "tail-dep"}))
    assert run_main(capsys, "tail-dep", "--config", str(spelled), "--print-config").stdout == proc.stdout

    # the commands that read them echo their defaults
    for command, extra, defaults in (
        ("estimate", {"input_path": "in.csv"}, {"level": 0.95, "convention": "delta_pow4"}),
        ("montecarlo", {"process": D1_INDEP, "n": 100, "seed": 1}, {"workers": 1, "replicates": 100}),
    ):
        cfg = write_config(tmp_path, "cfg.json", {"command": command, "output_path": "x.csv", **extra})
        proc = run_main(capsys, command, "--config", cfg, "--print-config")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout).items() >= defaults.items()


@pytest.mark.parametrize(
    "convention, level", [("bogus", 0.95), ("delta_pow4", 1.0), ("paper_3m2c", -0.5)]
)
def test_estimate_refuses_the_interval_arguments_confidence_interval_refuses(
    tmp_path, capsys, convention, level
):
    with pytest.raises(ValueError) as refused:
        estimation.confidence_interval(0.5, 100, convention, level)
    cfg = write_config(tmp_path, "est.json", {
        "command": "estimate", "process": D1_INDEP, "n": 100, "seed": 1,
        "convention": convention, "level": level, "output_path": str(tmp_path / "x.csv"),
    })
    assert main_exit(["estimate", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {refused.value}\n"


# any JSON value, with the numbers most likely to slip through a coercion
# values a coercing parser lets through, or turns into a crash later on
_MALFORMED = [
    None, True, "x", 10.9, 2.0, -1, 2**63, -(2**63) - 1, 10**400,
    math.inf, -math.inf, math.nan, [], [math.inf], [[math.nan, 1.0]], [10**400], {},
]
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(_MALFORMED)
    | st.floats()
    | st.text(max_size=4),
    lambda items: st.lists(items, max_size=3) | st.dictionaries(st.text(max_size=4), items, max_size=3),
    max_leaves=6,
)


_PROCESSES = [
    D1_INDEP,
    # unequal c_j**alpha_j: exact_marginal falls back to a burn-in
    {**D2_GUMBEL, "c": [0.5, 0.9], "init": {"kind": "exact_marginal"}},
    {**D2_GUMBEL, "c": [0.7, 0.7], "init": {"kind": "exact_marginal"}},
    {**D1_INDEP, "margins": [{"kind": "gpd", "shape": 0.2, "scale": 1.0}],
     "init": {"kind": "burn_in", "length": 10}},
]
_RUN_VALUES = {
    "process": st.sampled_from(_PROCESSES).map(dict),
    "n": st.integers(2, 10**6),
    "seed": st.integers(0, 2**32),
    "output_path": st.text(max_size=5),
    "input_path": st.text(max_size=5),
    "replicates": st.integers(2, 50),
    "level": st.floats(0.0, 0.99),
    "convention": st.sampled_from(VARIANCE_CONVENTIONS),
    "k": st.integers(1, 100),
    "t": st.floats(1e-3, 0.5),
    "r_list": st.lists(st.integers(0, 3), max_size=3),
    "pairs": st.lists(st.lists(st.integers(0, 1), min_size=2, max_size=2), max_size=3),
    "tau_grid": st.lists(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=2), min_size=1, max_size=2),
    "copula": st.sampled_from(
        [{"kind": "gumbel", "gamma": 2.0},
         {"kind": "derived", "base": {"kind": "independence"}, "theta": [0.5, 1.0]}]
    ),
    "workers": st.integers(1, 4),
}
# estimate reads input_path or draws a path from process, n and seed
_ESTIMATE_MODES = ({"input_path"}, {"process", "n", "seed"})


@st.composite
def _configs(draw):
    """Config objects of one command built from valid values of the
    fields it reads, with any optional fields left out and up to three
    fields of the run or its process replaced by any JSON value."""
    command = draw(st.sampled_from(cli.COMMANDS))
    names = set(cli._COMMAND_FIELDS[command])
    if command == "estimate":
        names -= draw(st.sampled_from(_ESTIMATE_MODES))
    data = {"command": command, **{name: draw(_RUN_VALUES[name]) for name in sorted(names)}}
    for name in draw(st.sets(st.sampled_from(sorted(names - {"process", "n", "seed"})))):
        del data[name]
    process = data.get("process", {})
    for obj, name in draw(st.lists(st.sampled_from(
        [(data, name) for name in sorted(data)] + [(process, name) for name in sorted(process)]
    ), max_size=3)):
        obj[name] = draw(_JSON)
    return data


def _resolves_or_refuses(data):
    """A config resolves or raises `ConfigurationError`; what resolves
    prints as canonical JSON that parses and resolves back to itself.
    Returns whether it resolved."""
    try:
        config = cli.resolve_run_config(cli.run_config_from_dict(data))
    except ConfigurationError:
        return False
    text = canonical_json(to_json(config))
    again = cli.run_config_from_dict(json.loads(text))
    assert again == config
    assert cli.resolve_run_config(again) == config
    assert canonical_json(to_json(again)) == text
    return True


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_configs() | _JSON)
def test_config_values_resolve_or_refuse_and_round_trip(data):
    _resolves_or_refuses(data)


# one valid value of each field a config can set
_FIELD_VALUES = {
    "process": D2_GUMBEL, "n": 1000, "seed": 1, "output_path": "x.csv",
    "input_path": "in.csv", "replicates": 5, "level": 0.9, "convention": "delta_pow4",
    "k": 10, "t": 0.02, "t_grid": [0.01, 0.001], "r_list": [0, 1], "pairs": [[0, 1]],
    "tau_grid": [[1.0, 0.5]], "copula": {"kind": "gumbel", "gamma": 2.0}, "workers": 2,
}
_REQUIRED = {"command", "process", "n", "seed", "output_path", "input_path", "copula"}


def _full_configs(command, values=_FIELD_VALUES):
    """The configs of ``command`` that set every field it reads: one, or
    one per mode of estimate.  montecarlo, which studies one series,
    gets the d = 1 process with the same other entries (such as init)."""
    if command == "montecarlo":
        values = {**values, "process": {**values["process"], **D1_INDEP}}
    data = {"command": command, **{name: values[name] for name in cli._COMMAND_FIELDS[command]}}
    modes = _ESTIMATE_MODES if command == "estimate" else [set()]
    return [{name: v for name, v in data.items() if name not in mode} for mode in modes]


def _minimal(data):
    """``data`` with every field that has a default left out."""
    return {name: v for name, v in data.items() if name in _REQUIRED}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_field_resolves_or_refuses_each_malformed_value(command):
    process = {**D2_GUMBEL, "init": {"kind": "burn_in", "length": 10}}
    full = _full_configs(command, {**_FIELD_VALUES, "process": process})
    # every optional field set, and every one left to its default
    for data in full + [_minimal(d) for d in full]:
        assert _resolves_or_refuses(data)
        for name in set(data) - {"process"}:
            for value in _MALFORMED:
                _resolves_or_refuses({**data, name: value})
        for name in data.get("process", ()):
            for value in _MALFORMED:
                _resolves_or_refuses({**data, "process": {**data["process"], name: value}})


def test_command_field_table_is_pinned():
    # every settable (command, field) pair and its default, written out,
    # so adding or dropping a setting shows up as a change here
    path = {"process": None, "n": None, "seed": None, "output_path": None}
    assert cli._COMMAND_FIELDS == {
        "simulate": path,
        "estimate": {**path, "input_path": None, "level": 0.95, "convention": "delta_pow4",
                     "k": None},
        "extremal_index": {**path, "tau_grid": None, "k": None},
        "tail_dep": {**path, "pairs": None, "r_list": (0, 1, 2), "t": 0.02, "k": None},
        "copula": {"copula": None, "output_path": None},
        "montecarlo": {**path, "replicates": 100, "workers": 1},
    }
    assert sum(map(len, cli._COMMAND_FIELDS.values())) == 34


@pytest.mark.parametrize("field", sorted(_FIELD_VALUES))
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_command_takes_exactly_the_fields_it_reads(tmp_path, monkeypatch, capsys, command, field):
    def no_path(*args):
        raise AssertionError("a refused config drew a path")

    monkeypatch.setattr(cli, "simulate_path", no_path)
    monkeypatch.setattr(cli, "_simulate_batch", no_path)
    # estimate reads input_path only in its file mode, the last one
    full = _full_configs(command)
    base = _minimal(full[-1] if field == "input_path" else full[0])
    cli_name = command.replace("_", "-")
    # a field the base sets keeps its value (montecarlo's d = 1 process)
    cfg = write_config(tmp_path, "cfg.json", {field: _FIELD_VALUES[field], **base})
    flag = [f"--{field}", "3"] if field in ("seed", "replicates", "workers") else []
    if field in cli._COMMAND_FIELDS[command]:
        assert main_exit([cli_name, "--config", cfg, "--print-config"]) == 0
        assert field in json.loads(capsys.readouterr().out)
        # the override flag of a field exists where the field is read
        if flag:
            base_cfg = write_config(tmp_path, "base.json", base)
            assert main_exit([cli_name, "--config", base_cfg, *flag, "--print-config"]) == 0
            assert json.loads(capsys.readouterr().out)[field] == 3
        return
    for flags in ([], ["--print-config"]):
        assert main_exit([cli_name, "--config", cfg, *flags]) == 2
        assert capsys.readouterr() == ("", f"config error: unknown config fields: ['{field}']\n")
    if flag:
        assert main_exit([cli_name, "--config", cfg, *flag]) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_print_config_echoes_the_fields_its_command_reads(tmp_path, capsys, command):
    # set in full, a config echoes its command's row; left to its
    # defaults, it echoes no field of another command's row
    row = {"command", *cli._COMMAND_FIELDS[command]}
    echoed = set()
    full = _full_configs(command)
    for data in full + [_minimal(d) for d in full]:
        cfg = write_config(tmp_path, "cfg.json", data)
        assert main_exit([command.replace("_", "-"), "--config", cfg, "--print-config"]) == 0
        keys = set(json.loads(capsys.readouterr().out))
        assert keys <= row
        echoed |= keys
    assert echoed == row


# ------------------------------------------------------------- failure modes


def _frechet(alpha):
    return {"kind": "frechet", "alpha": alpha}


_GUMBEL_2 = {"kind": "gumbel", "gamma": 2.0}
# (1 - c**alpha)**(-1/alpha) overflows at alpha = 0.001
_SMALL_ALPHA = {"d": 2, "c": [0.5, 0.5], "margins": [_frechet(0.001), _frechet(1.0)],
                "copula": _GUMBEL_2}
_UNIT_FRECHET = {**_SMALL_ALPHA, "margins": [_frechet(1.0), _frechet(1.0)]}
# stationary, but the pair law's product needs more than its 10 000 factors
_NEAR_ONE = {**_UNIT_FRECHET, "c": [0.999, 0.5]}
_PRODUCT_CAP = "stationary product did not converge within 10000 factors"
# a GPD(30, 1) margin, whose stationary quantiles on the default t grid
# reach 4.8e190
_HEAVY_GPD = {**_UNIT_FRECHET, "c": [0.5, 0.3],
              "margins": [_frechet(1.0), {"kind": "gpd", "shape": 30.0, "scale": 1.0}]}


@pytest.mark.parametrize(
    "command, body, code, fragment, flags",
    [
        ("simulate",
         {"process": {**D1_INDEP, "margins": [_frechet(0.001)],
                      "init": {"kind": "exact_marginal"}}, "n": 100, "seed": 1},
         3, "numeric failure: the stationary Frechet quantile is outside the float range", None),
        ("extremal_index", {"process": _SMALL_ALPHA, "n": 400, "seed": 3},
         3, "numeric failure: the stationary Frechet quantile is outside the float range", None),
        # only the cross cells need the overflowing quantile
        ("tail_dep", {"process": _SMALL_ALPHA, "n": 400, "seed": 3, "t": 0.05},
         0, "warning: pair (0,1) lag 0: the stationary Frechet quantile is outside the float range",
         ["ok"] * 3 + ["theoretical_undefined"] * 6 + ["ok"] * 3),
        # c**r underflows to 0, so the lag level c**(-r) w_t is +inf
        ("tail_dep",
         {"process": {**_SMALL_ALPHA, "c": [1e-300, 0.5], "margins": [{"kind": "uniform01"}, _frechet(1.0)]},
          "n": 400, "seed": 3, "t": 0.05},
         0, "", ["ok"] * 12),
        # exp(-tau_1 c**1000) rounds to 1: that component is marginalized
        ("extremal_index",
         {"process": {**_SMALL_ALPHA, "margins": [_frechet(1000.0), _frechet(1.0)]}, "n": 400, "seed": 3},
         0, "", ["ok"]),
        ("extremal_index", {"process": _UNIT_FRECHET, "n": 400, "seed": 1, "tau_grid": [[1e-320, 0]]},
         3, "numeric failure: every denominator level rounds to argument one", None),
        ("extremal_index", {"process": _UNIT_FRECHET, "n": 400, "seed": 1, "tau_grid": [[1e300, 1]]},
         3, "numeric failure: exp(-level) underflows to 0 at level 1.0000000000000001e+300", None),
        # only the cross cells need the pair law
        ("tail_dep", {"process": _NEAR_ONE, "n": 2000, "seed": 3},
         0, f"warning: pair (0,1) lag 0: {_PRODUCT_CAP}",
         ["ok"] * 3 + ["theoretical_undefined"] * 6 + ["ok"] * 3),
        ("extremal_index", {"process": _NEAR_ONE, "n": 2000, "seed": 3},
         3, f"numeric failure: {_PRODUCT_CAP}", None),
        ("tail_dep", {"process": _HEAVY_GPD, "n": 2000, "seed": 3}, 0, "", ["ok"] * 12),
    ],
    ids=["simulate-small-alpha", "extremal-index-small-alpha", "tail-dep-small-alpha",
         "tail-dep-lag-level-inf", "extremal-index-alpha-1000", "tau-rounds-to-one",
         "tau-rounds-to-zero", "tail-dep-c-near-one", "extremal-index-c-near-one",
         "tail-dep-heavy-gpd"],
)
def test_float_edges_exit_without_traceback(tmp_path, capsys, command, body, code, fragment, flags):
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, "edge.json", {"command": command, **body, "output_path": str(out)})
    assert main_exit([command.replace("_", "-"), "--config", cfg]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert fragment in err
    if flags is None:
        assert not out.exists()
        return
    header, rows = read_rows(out)
    assert [row[header.index("flag")] for row in rows] == flags
    theory = header.index("lambda_theoretical" if command == "tail_dep" else "theta_theoretical")
    for row, flag in zip(rows, flags):
        assert math.isfinite(float(row[theory])) == (flag == "ok")
    if command == "extremal_index":
        assert rows[0][theory] == "0.69098300562544113"


def test_a_run_too_large_for_memory_exits_2(tmp_path, monkeypatch, capsys):
    def no_memory(config, n, seed):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "simulate_path", no_memory)
    process = {**D1_INDEP, "init": {"kind": "burn_in", "length": 10**12}}
    cfg = write_config(tmp_path, "big.json", {"command": "simulate", "process": process, "n": 10,
                                              "seed": 1, "output_path": str(tmp_path / "x.csv")})
    assert main_exit(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: the run does not fit in memory (Unable to allocate 7.28 TiB)\n"
    )


@pytest.mark.parametrize(
    "error, code, message",
    [
        (ConfigurationError("bad value"), 2, "config error: bad value"),
        (ValueError("bad value"), 2, "config error: bad value"),
        (NumericLimitError("no limit"), 3, "numeric failure: no limit"),
        (UndefinedResultError("no data"), 3, "numeric failure: no data"),
        (MemoryError("too big"), 2, "config error: the run does not fit in memory (too big)"),
    ],
)
def test_loading_printing_and_running_share_the_exit_codes(
    tmp_path, monkeypatch, capsys, error, code, message
):
    # an exception from loading the config, from --print-config or from
    # the run exits with the same code and message, never a traceback
    def fail(*args):
        raise error

    cfg = write_config(tmp_path, "sim.json", {"command": "simulate", "process": D1_INDEP, "n": 10,
                                              "seed": 1, "output_path": str(tmp_path / "x.csv")})
    for stage, flags in (("_load_config", []), ("to_json", ["--print-config"]), ("run", [])):
        with monkeypatch.context() as patch:
            patch.setattr(cli, stage, fail)
            assert main_exit(["simulate", "--config", cfg, *flags]) == code
        assert capsys.readouterr() == ("", message + "\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({"command": "copula", "copula": 3, "output_path": "x.csv"},
         "copula must be an object with a 'kind' field"),
        ({"command": "copula", "copula": {"kind": "gumbel", "gamma": 2.0}},
         "an output path is required (--out or output_path)"),
        ({"command": "simulate", "process": {**D1_INDEP, "c": [1.5]},
          "n": 10, "seed": 1, "output_path": "x.csv"},
         "autoregression coefficients must lie in (0, 1)"),
        ({"command": "simulate", "process": D1_INDEP, "n": 10,
          "output_path": "x.csv"},
         "requires an explicit seed"),
        ({"command": "simulate", "process": D1_INDEP, "n": 10, "seed": 1,
          "output_path": "x.csv", "bogus": True},
         "unknown config fields"),
        ({"command": "estimate", "input_path": "p.csv", "output_path": "x.csv",
          "level": "abc"},
         "bad config: level: must be a number"),
        ({"command": "tail_dep", "process": D1_INDEP, "n": 100, "seed": 1,
          "output_path": "x.csv", "t": {}},
         "bad config: t: must be a number"),
        ({"command": "simulate", "process": {**D1_INDEP, "init": 5}, "n": 10,
          "seed": 1, "output_path": "x.csv"},
         "init must be a JSON object"),
        ({"command": "simulate", "process": {**D1_INDEP, "init": "ab"}, "n": 10,
          "seed": 1, "output_path": "x.csv"},
         "init must be a JSON object"),
        ({"command": "tail_dep", "process": D1_INDEP, "n": 100, "seed": 1,
          "output_path": "x.csv", "t": math.inf},
         "bad config: t: must be finite"),
        ({"command": "extremal_index", "process": D1_INDEP, "n": 10**400,
          "seed": 1, "output_path": "x.csv"},
         "bad config: n: must fit in a signed 64-bit integer"),
        ({"command": "simulate", "process": D1_INDEP, "n": 10.9, "seed": 1,
          "output_path": "x.csv"},
         "bad config: n: must be an integer"),
        ({"command": "simulate", "process": {**D1_INDEP, "d": 1.7}, "n": 10,
          "seed": 1, "output_path": "x.csv"},
         "bad process config: d: must be an integer"),
        ({"command": "estimate", "input_path": "p.csv", "process": D1_INDEP, "n": 10,
          "seed": 1, "output_path": "x.csv"},
         "estimate takes input_path or process, n and seed, not both"),
        # the study reads column 0 only, so a second column would be drawn
        # and never read
        ({"command": "montecarlo", "process": D2_GUMBEL, "n": 200, "seed": 42,
          "output_path": "x.csv"},
         "montecarlo studies one series: give a d = 1 process"),
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, payload, fragment):
    name = payload["command"]
    cfg = write_config(tmp_path, f"{name}_bad.json", payload)
    proc = run_main(capsys, name.replace("_", "-"), "--config", cfg)
    assert proc.returncode == 2
    assert "config error:" in proc.stderr
    assert fragment in proc.stderr


@pytest.mark.parametrize(
    "command, extra, fragment",
    [
        ("tail_dep", {"t": math.inf}, "bad config: t: must be finite"),
        ("extremal_index", {"n": 10**400}, "bad config: n: must fit in a signed 64-bit integer"),
    ],
)
def test_print_config_refuses_malformed_values(tmp_path, command, extra, fragment):
    payload = {"command": command, "process": D1_INDEP, "n": 100, "seed": 1,
               "output_path": "x.csv", **extra}
    cfg = write_config(tmp_path, "bad.json", payload)
    proc = run_cli(command.replace("_", "-"), "--config", cfg, "--print-config")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"config error: {fragment}" in proc.stderr


@pytest.mark.parametrize(
    "content, fragment",
    [
        (b"\xff\xfe{", "codec can't decode"),
        (b'{"n": ' + b"9" * 5000 + b"}", "integer string conversion"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth"),
    ],
    ids=["undecodable", "long-integer", "deep-nesting"],
)
def test_unreadable_json_config_exit_2(tmp_path, capsys, content, fragment):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    proc = run_main(capsys, "simulate", "--config", str(bad))
    assert proc.returncode == 2
    assert "config error: config file is not valid JSON" in proc.stderr
    assert fragment in proc.stderr


def test_missing_config_file_exit_2(tmp_path):
    proc = run_cli("simulate", "--config", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert "cannot read config file" in proc.stderr


def test_invalid_json_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_main(capsys, "simulate", "--config", str(bad))
    assert proc.returncode == 2
    assert "config file is not valid JSON" in proc.stderr


def test_command_mismatch_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "sim.json",
        {"command": "simulate", "process": D1_INDEP, "n": 10, "seed": 1,
         "output_path": "x.csv"},
    )
    proc = run_main(capsys, "estimate", "--config", cfg)
    assert proc.returncode == 2
    assert "does not match" in proc.stderr
