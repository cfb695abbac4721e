"""End-to-end tests of the command-line interface (run as subprocesses)."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from armax_extremes import cli
from armax_extremes.armax import ProcessConfig, simulate_path
from armax_extremes.copulas import CopulaSpec
from armax_extremes.estimation import build_estimate_report
from armax_extremes.margins import MarginSpec

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


def test_simulate_seed_override(tmp_path):
    out7 = tmp_path / "s7.csv"
    cfg = write_config(
        tmp_path,
        "sim.json",
        {"command": "simulate", "process": D2_GUMBEL, "n": 30, "seed": 7,
         "output_path": str(out7)},
    )
    assert run_cli("simulate", "--config", cfg).returncode == 0
    out8 = tmp_path / "s8.csv"
    assert run_cli(
        "simulate", "--config", cfg, "--seed", "8", "--out", str(out8)
    ).returncode == 0
    assert out7.read_bytes() != out8.read_bytes()
    with open(str(out8) + ".meta.json") as fh:
        assert json.load(fh)["seed"] == 8


def test_simulate_csv_bytes_pinned(tmp_path):
    # sha256 of the path CSV written by the per-value formatter this
    # row-wise writer replaced
    out = tmp_path / "pin.csv"
    cfg = write_config(
        tmp_path,
        "sim.json",
        {"command": "simulate", "process": D2_GUMBEL, "n": 500, "seed": 7,
         "output_path": str(out)},
    )
    assert run_cli("simulate", "--config", cfg).returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "831a533993a5b0a9d8533023e556fa800b44d550945055c33be238a595da5f44"
    )


def test_path_writer_chunks_render_like_fmt(tmp_path, monkeypatch):
    # a chunk size that splits the rows unevenly, and the float values
    # whose text is easiest to get wrong
    monkeypatch.setattr(cli, "_PATH_CHUNK_ROWS", 3)
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


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, armax_extremes.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
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


def test_estimate_from_file_matches_process_mode(tmp_path):
    sim_out = tmp_path / "path.csv"
    sim_cfg = write_config(
        tmp_path,
        "sim.json",
        {"command": "simulate", "process": D1_INDEP, "n": 400, "seed": 3,
         "output_path": str(sim_out)},
    )
    assert run_cli("simulate", "--config", sim_cfg).returncode == 0

    est_file = tmp_path / "est_file.csv"
    file_cfg = write_config(
        tmp_path,
        "est_file.json",
        {"command": "estimate", "input_path": str(sim_out),
         "output_path": str(est_file)},
    )
    assert run_cli("estimate", "--config", file_cfg).returncode == 0

    est_proc = tmp_path / "est_proc.csv"
    proc_cfg = write_config(
        tmp_path,
        "est_proc.json",
        {"command": "estimate", "process": D1_INDEP, "n": 400, "seed": 3,
         "output_path": str(est_proc)},
    )
    assert run_cli("estimate", "--config", proc_cfg).returncode == 0

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


def test_estimate_flags_are_warnings_not_errors(tmp_path):
    data = tmp_path / "increasing.csv"
    data.write_text("".join(f"{float(i)}\n" for i in range(1, 101)))
    out = tmp_path / "est.csv"
    cfg = write_config(
        tmp_path,
        "est.json",
        {"command": "estimate", "input_path": str(data), "output_path": str(out)},
    )
    proc = run_cli("estimate", "--config", cfg)
    assert proc.returncode == 0
    assert "warning: column 0:" in proc.stderr
    assert "lebedev_misfit" in proc.stderr
    _, rows = read_rows(out)
    assert "lebedev_misfit" in rows[0][11]
    assert rows[0][4] == "nan"


# ------------------------------------------------------------ extremal index


def test_extremal_index_defaults_and_theory(tmp_path):
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
    proc = run_cli("extremal-index", "--config", cfg)
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


def test_extremal_index_csv_bytes_pinned(tmp_path):
    # sha256 of the CSV written when each tau row ranked the path anew
    out = tmp_path / "pin.csv"
    cfg = write_config(
        tmp_path,
        "idx.json",
        {"command": "extremal_index", "process": D2_GUMBEL, "n": 2000, "seed": 7,
         "tau_grid": [[1.0, 1.0], [0.5, 2.0], [0.0, 1.5]], "output_path": str(out)},
    )
    assert run_cli("extremal-index", "--config", cfg).returncode == 0
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


# ------------------------------------------------------------------ tail dep


def test_tail_dep_defaults(tmp_path):
    out = tmp_path / "tdc.csv"
    cfg = write_config(
        tmp_path,
        "tdc.json",
        {"command": "tail_dep", "process": D2_GUMBEL, "n": 4000, "seed": 7,
         "output_path": str(out)},
    )
    proc = run_cli("tail-dep", "--config", cfg)
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


def test_tail_dep_defaults_exponential_margin(tmp_path):
    out = tmp_path / "tdc.csv"
    process = dict(D1_INDEP, c=[0.7], margins=[{"kind": "exponential", "rate": 1.0}])
    cfg = write_config(
        tmp_path,
        "tdc.json",
        {"command": "tail_dep", "process": process, "n": 4000, "seed": 7,
         "output_path": str(out)},
    )
    proc = run_cli("tail-dep", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    _, rows = read_rows(out)
    assert [r[2] for r in rows] == ["0", "1", "2"]
    assert float(rows[0][3]) == 1.0


def test_tail_dep_numeric_failure_exit_code(tmp_path):
    out = tmp_path / "tdc.csv"
    cfg = write_config(
        tmp_path,
        "tdc.json",
        {
            "command": "tail_dep",
            "process": D1_INDEP,
            "n": 200,
            "seed": 7,
            "pairs": [[0, 0]],
            "r_list": [2],
            "t_grid": [0.01, 0.0099, 1e-06],
            "output_path": str(out),
        },
    )
    proc = run_cli("tail-dep", "--config", cfg)
    assert proc.returncode == 3
    assert "numeric failure:" in proc.stderr


# -------------------------------------------------------------------- copula


def test_copula_tables_for_valid_derived(tmp_path):
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
    proc = run_cli("copula", "--config", cfg)
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


def test_copula_flags_invalid_derived(tmp_path):
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
    proc = run_cli("copula", "--config", cfg)
    assert proc.returncode == 0  # diagnostics still useful, so flag + warn only
    assert "derived copula fails the bound checks" in proc.stderr
    _, rows = read_rows(out)
    validity = [r for r in rows if r[0] == "validity"][0]
    assert validity[4] == "0" and validity[5] == "invalid_derived_copula"
    coeff = {r[1]: float(r[4]) for r in rows if r[0] == "extremal_coefficient"}
    assert coeff["derived"] == pytest.approx(math.sqrt(5.0) - 1.0, abs=1e-12)


def test_copula_base_only(tmp_path):
    out = tmp_path / "cop.csv"
    cfg = write_config(
        tmp_path,
        "cop.json",
        {"command": "copula", "copula": {"kind": "gumbel", "gamma": 2.0},
         "output_path": str(out)},
    )
    assert run_cli("copula", "--config", cfg).returncode == 0
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


def test_montecarlo_outputs(tmp_path):
    out = tmp_path / "mc.csv"
    cfg = _mc_config(tmp_path, out)
    proc = run_cli("montecarlo", "--config", cfg)
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


def test_montecarlo_workers_do_not_change_results(tmp_path):
    out1 = tmp_path / "w1.csv"
    assert run_cli("montecarlo", "--config", _mc_config(tmp_path, out1)).returncode == 0
    out2 = tmp_path / "w2.csv"
    assert run_cli(
        "montecarlo", "--config", _mc_config(tmp_path, out2), "--workers", "2"
    ).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "w1.csv.summary.json").read_bytes() == (
        tmp_path / "w2.csv.summary.json"
    ).read_bytes()


def test_montecarlo_replicates_override(tmp_path):
    out = tmp_path / "mc.csv"
    cfg = _mc_config(tmp_path, out)
    assert run_cli("montecarlo", "--config", cfg, "--replicates", "6").returncode == 0
    _, rows = read_rows(out)
    assert len(rows) == 6


# -------------------------------------------------------------- print-config


def test_print_config_resolves_defaults_and_round_trips(tmp_path):
    cfg = write_config(
        tmp_path,
        "tdc.json",
        {"command": "tail_dep", "process": D2_GUMBEL, "n": 100, "seed": 1,
         "output_path": str(tmp_path / "x.csv")},
    )
    proc = run_cli("tail-dep", "--config", cfg, "--print-config")
    assert proc.returncode == 0
    resolved = json.loads(proc.stdout)
    assert resolved["command"] == "tail_dep"
    assert resolved["t"] == 0.02
    assert resolved["t_grid"] == [0.01, 0.001, 0.0001, 1e-05]
    assert resolved["r_list"] == [0, 1, 2]
    assert resolved["pairs"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert resolved["level"] == 0.95
    assert resolved["convention"] == "delta_pow4"
    assert resolved["workers"] == 1
    assert (tmp_path / "x.csv").exists() is False  # print-config does not run

    # the echoed config is itself a valid config and resolves to itself
    echo = tmp_path / "resolved.json"
    echo.write_text(proc.stdout)
    proc2 = run_cli("tail-dep", "--config", str(echo), "--print-config")
    assert proc2.returncode == 0
    assert proc2.stdout == proc.stdout


# ------------------------------------------------------------- failure modes


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
    ],
)
def test_config_errors_exit_2(tmp_path, payload, fragment):
    name = payload["command"]
    cfg = write_config(tmp_path, f"{name}_bad.json", payload)
    proc = run_cli(name.replace("_", "-"), "--config", cfg)
    assert proc.returncode == 2
    assert "config error:" in proc.stderr
    assert fragment in proc.stderr


def test_missing_config_file_exit_2(tmp_path):
    proc = run_cli("simulate", "--config", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert "cannot read config file" in proc.stderr


def test_invalid_json_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("simulate", "--config", str(bad))
    assert proc.returncode == 2
    assert "config file is not valid JSON" in proc.stderr


def test_command_mismatch_exit_2(tmp_path):
    cfg = write_config(
        tmp_path,
        "sim.json",
        {"command": "simulate", "process": D1_INDEP, "n": 10, "seed": 1,
         "output_path": "x.csv"},
    )
    proc = run_cli("estimate", "--config", cfg)
    assert proc.returncode == 2
    assert "does not match" in proc.stderr
