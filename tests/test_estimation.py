"""Tests for the autoregression-coefficient estimators and their asymptotics."""

import json
import math

import numpy as np
import pytest
from scipy.stats import anderson, norm

from armax_extremes import cli
from armax_extremes.armax import ProcessConfig, simulate_path
from armax_extremes.copulas import CopulaSpec
from armax_extremes.errors import UndefinedResultError
from armax_extremes.estimation import (
    VARIANCE_CONVENTIONS,
    asymptotic_variance,
    build_estimate_report,
    confidence_interval,
    cross_moment,
    estimate_c_davis_resnick,
    estimate_c_lebedev,
    estimate_c_moment,
    hill_tail_index,
)
from armax_extremes.margins import MarginSpec

FRECHET1_ARMAX = ProcessConfig(
    1, (0.5,), (MarginSpec.frechet(1.0),), CopulaSpec.independence()
)


# ------------------------------------------------------------ point estimates


def test_moment_estimator_examples():
    # a constant series whose transform mean is exactly 2/3
    x = -1.0 / math.log(2.0 / 3.0)
    est = estimate_c_moment([x] * 10)
    assert est.u_bar == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert est.c_hat == pytest.approx(0.5, abs=1e-12)
    assert not est.misfit

    x = -1.0 / math.log(0.6)
    est = estimate_c_moment([x, x])
    assert est.c_hat == pytest.approx(2.0 - 1.0 / 0.6, abs=1e-12)


def test_moment_estimator_misfit_flag():
    est = estimate_c_moment([0.05] * 50)  # transform mean near zero
    assert est.u_bar < 0.5
    assert est.misfit


def test_moment_estimator_handles_nonpositive_entries():
    est = estimate_c_moment([-1.0, 0.0, 0.5])
    assert est.u_bar == pytest.approx(math.exp(-2.0) / 3.0, abs=1e-15)
    assert est.misfit


def test_moment_estimator_validation():
    with pytest.raises(ValueError):
        estimate_c_moment([])
    with pytest.raises(ValueError):
        estimate_c_moment(np.ones((3, 2)))


def test_lebedev_estimator_examples():
    est = estimate_c_lebedev([3.0, 2.0, 1.0, 4.0])
    assert est.p_tilde == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert est.c_hat == pytest.approx(0.5, abs=1e-15)
    assert not est.misfit and not est.boundary


def test_lebedev_estimator_degenerate_cases():
    inc = estimate_c_lebedev([1.0, 2.0, 3.0, 4.0])
    assert inc.p_tilde == 0.0
    assert math.isnan(inc.c_hat)
    assert inc.misfit

    dec = estimate_c_lebedev([4.0, 3.0, 2.0, 1.0])
    assert dec.p_tilde == 1.0
    assert dec.c_hat == 1.0
    assert dec.boundary


def test_lebedev_estimator_validation():
    with pytest.raises(ValueError):
        estimate_c_lebedev([1.0])


def test_davis_resnick_examples():
    assert estimate_c_davis_resnick([1.0, 0.5, 2.0, 1.0]) == 0.5
    assert estimate_c_davis_resnick([3.0, 3.0, 3.0]) == 1.0
    with pytest.raises(ValueError):
        estimate_c_davis_resnick([1.0, -2.0])
    with pytest.raises(ValueError):
        estimate_c_davis_resnick([2.0])


def test_davis_resnick_respects_recursion_bound():
    # X_i >= c X_{i-1} exactly, so the minimum ratio cannot fall below c
    # (up to one ulp of the c * x multiplication when c has no exact
    # binary representation)
    for c, slack in ((0.5, 0.0), (0.8, 1e-15)):
        cfg = ProcessConfig(
            1, (c,), (FRECHET1_ARMAX.margins[0],), CopulaSpec.independence()
        )
        path = simulate_path(cfg, 20_000, 21).data[:, 0]
        assert estimate_c_davis_resnick(path) >= c * (1.0 - slack)


def test_moment_is_permutation_invariant_lebedev_is_not():
    base = simulate_path(FRECHET1_ARMAX, 1_000, 8).data[:, 0]
    reordered = base[::-1].copy()
    assert estimate_c_moment(reordered).c_hat == pytest.approx(
        estimate_c_moment(base).c_hat, abs=1e-12
    )
    assert estimate_c_lebedev(reordered).p_tilde != estimate_c_lebedev(base).p_tilde


# ------------------------------------------------------- moments and variance


def test_cross_moment_values():
    assert cross_moment(0.5, 1) == pytest.approx(4.0 / 9.0, abs=1e-15)
    # at c = 1/2 the denominator factor collapses to 1.5 (1 - 0.5**r)
    # and the lag dependence cancels entirely
    for r in (1, 2, 3, 10, 50):
        assert cross_moment(0.5, r) == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert cross_moment(1e-9, 1) == pytest.approx(0.25, abs=1e-8)
    with pytest.raises(ValueError):
        cross_moment(0.0, 1)
    with pytest.raises(ValueError):
        cross_moment(0.5, 0)


@pytest.mark.xfail(
    strict=True,
    reason="the closed-form cross moment escapes (0, 1) at large c: the "
    "denominator factor 2 - c - c**r - c**(r+1) changes sign",
)
def test_cross_moment_always_a_probability():
    for c in np.arange(0.1, 0.95, 0.1):
        for r in range(1, 6):
            value = cross_moment(float(c), r)
            assert 0.0 < value < 1.0


def test_cross_moment_sign_change_pinned():
    # documented counterexamples to the (0, 1) range: at c=0.8 the r=1
    # denominator factor is 2 - 0.8 - 0.8 - 0.64 = -0.24
    assert cross_moment(0.8, 1) == pytest.approx(-25.0 / 36.0, abs=1e-12)
    assert cross_moment(0.8, 2) == pytest.approx(6.25, abs=1e-12)


def test_asymptotic_variance_values():
    assert asymptotic_variance(0.5) == pytest.approx(1.0 / 18.0, abs=1e-12)
    assert asymptotic_variance(1e-9) == pytest.approx(1.0 / 12.0, abs=1e-9)
    with pytest.raises(ValueError):
        asymptotic_variance(1.0)


@pytest.mark.xfail(
    strict=True,
    reason="the covariance series is negative on parts of (0, 1), so the "
    "closed form is not a variance there",
)
def test_asymptotic_variance_positive_on_grid():
    for c in np.arange(0.1, 0.95, 0.1):
        assert asymptotic_variance(float(c)) > 0.0


def test_asymptotic_variance_sign_structure_pinned():
    # where the series actually is positive/negative on the usual grid
    for c in (0.1, 0.2, 0.5, 0.6, 0.7, 0.8):
        assert asymptotic_variance(c) > 0.0
    for c in (0.3, 0.4, 0.9):
        assert asymptotic_variance(c) < 0.0


# ------------------------------------------------------- confidence intervals


def test_confidence_interval_conventions():
    z = float(norm.ppf(0.975))
    lo, hi = confidence_interval(0.5, 100, "delta_pow4")
    assert (hi - lo) / 2 == pytest.approx(z * math.sqrt(0.28125 / 100), abs=1e-12)
    assert lo <= 0.5 <= hi
    lo, hi = confidence_interval(0.5, 100, "paper_3m2c")
    assert (hi - lo) / 2 == pytest.approx(z * math.sqrt((1.0 / 9.0) / 100), abs=1e-12)
    assert VARIANCE_CONVENTIONS == ("delta_pow4", "paper_3m2c")


def test_confidence_interval_level_zero_degenerate():
    assert confidence_interval(0.5, 100, level=0.0) == (0.5, 0.5)


def test_confidence_interval_negative_variance():
    with pytest.raises(UndefinedResultError):
        confidence_interval(0.3, 100)


def test_confidence_interval_validation():
    with pytest.raises(ValueError):
        confidence_interval(0.0, 100)
    with pytest.raises(ValueError):
        confidence_interval(0.5, 0)
    with pytest.raises(ValueError):
        confidence_interval(0.5, 100, "bogus")
    with pytest.raises(ValueError):
        confidence_interval(0.5, 100, level=1.0)


# ------------------------------------------------------------ hill estimator


def test_hill_on_exact_pareto():
    rng = np.random.default_rng(0)
    pareto = (1.0 - rng.random(100_000)) ** (-0.5)  # tail index 2
    assert hill_tail_index(pareto, 1_000) == pytest.approx(2.0, abs=0.2)


def test_hill_scale_invariance():
    rng = np.random.default_rng(1)
    x = (1.0 - rng.random(10_000)) ** (-1.0)
    assert hill_tail_index(4.0 * x, 500) == hill_tail_index(x, 500)


def test_hill_on_armax_stationary_margin():
    # the stationary margin of a unit-Frechet ARMAX keeps tail index 1
    path = simulate_path(FRECHET1_ARMAX, 100_000, 12).data[:, 0]
    assert hill_tail_index(path, 1_000) == pytest.approx(1.0, abs=0.2)


def test_hill_validation():
    with pytest.raises(ValueError):
        hill_tail_index([1.0, 2.0], 2)
    with pytest.raises(UndefinedResultError):
        hill_tail_index(np.ones(100), 10)
    with pytest.raises(ValueError):
        hill_tail_index(np.concatenate([np.zeros(50), -np.ones(50)]), 10)


# ------------------------------------------------------------------- reports


def test_report_on_clean_path():
    path = simulate_path(FRECHET1_ARMAX, 50_000, 1).data[:, 0]
    report = build_estimate_report(path)
    assert report.flags == ()
    assert report.n == 50_000
    assert report.c_moment == pytest.approx(0.5, abs=0.05)
    assert report.c_lebedev == pytest.approx(0.5, abs=0.05)
    assert report.c_davis_resnick >= 0.5
    assert report.sigma2 > 0.0
    assert report.ci[0] <= report.c_moment <= report.ci[1]
    assert report.alpha_hill == pytest.approx(1.0, abs=0.3)
    assert report.variance_convention == "delta_pow4"


def test_report_negative_variance_flagged():
    cfg = ProcessConfig(
        1, (0.3,), (FRECHET1_ARMAX.margins[0],), CopulaSpec.independence()
    )
    path = simulate_path(cfg, 50_000, 2).data[:, 0]
    report = build_estimate_report(path)
    assert "variance_negative" in report.flags
    assert report.sigma2 < 0.0
    assert math.isnan(report.ci[0]) and math.isnan(report.ci[1])
    # the point estimate itself is still fine
    assert report.c_moment == pytest.approx(0.3, abs=0.05)


def test_report_on_unsuitable_data():
    report = build_estimate_report(np.arange(1.0, 101.0))
    assert "lebedev_misfit" in report.flags
    assert math.isnan(report.c_lebedev)


def test_report_on_contaminated_data():
    x = np.concatenate([[-1.0], np.arange(1.0, 50.0)])
    report = build_estimate_report(x)
    assert "davis_resnick_unavailable" in report.flags
    assert math.isnan(report.c_davis_resnick)


def test_report_validation():
    with pytest.raises(ValueError):
        build_estimate_report([1.0])


# ------------------------------------------------------------- monte carlo


def test_mc_moment_estimator_unbiased(mc_study):
    assert float(np.mean(mc_study["c_moment"])) == pytest.approx(
        mc_study["c_true"], abs=0.01
    )


def test_mc_lebedev_estimator_unbiased(mc_study):
    assert float(np.mean(mc_study["c_lebedev"])) == pytest.approx(
        mc_study["c_true"], abs=0.03
    )


def test_mc_davis_resnick_bounded_below(mc_study):
    assert min(mc_study["c_dr"]) >= mc_study["c_true"]


def test_mc_normality_of_moment_estimator(mc_study):
    # standardized under the delta_pow4 convention, the replicate
    # estimates pass Anderson-Darling at the 1% level
    n, c = mc_study["n"], mc_study["c_true"]
    scale = math.sqrt(asymptotic_variance(c) * (2.0 - c) ** 4)
    z = np.sqrt(n) * (np.asarray(mc_study["c_moment"]) - c) / scale
    result = anderson(z, dist="norm", method="interpolate")
    assert result.pvalue > 0.01


def test_mc_summary_prefers_delta_convention(mc_study):
    assert mc_study["summary"]["matching_convention"] == "delta_pow4"


def test_rmse_shrinks_with_sample_size(tmp_path):
    # consistency sweep: each estimator's RMSE at n=10^5 is no worse
    # than at n=10^3, across low/mid/high c
    rmse = {}
    for c_true in (0.2, 0.5, 0.8):
        for n in (1_000, 100_000):
            out = tmp_path / f"mc_{c_true}_{n}.csv"
            config = cli.resolve_run_config(
                cli.run_config_from_dict(
                    {
                        "command": "montecarlo",
                        "process": {
                            "d": 1,
                            "c": [c_true],
                            "margins": [{"kind": "frechet", "alpha": 1.0}],
                            "copula": {"kind": "independence"},
                        },
                        "n": n,
                        "seed": 515,
                        "replicates": 100,
                        "output_path": str(out),
                    }
                )
            )
            assert cli.run(config) == 0
            with open(str(out) + ".summary.json") as fh:
                summary = json.load(fh)
            rmse[(c_true, n)] = {
                key: summary[f"rmse_{key}"]
                for key in ("c_moment", "c_lebedev", "c_dr")
            }
    for c_true in (0.2, 0.5, 0.8):
        small, large = rmse[(c_true, 1_000)], rmse[(c_true, 100_000)]
        assert large["c_moment"] < small["c_moment"]
        assert large["c_lebedev"] < small["c_lebedev"]
        # the ratio estimator can hit its floor (the exact c) already at
        # n=10^3, so only require no degradation
        assert large["c_dr"] <= small["c_dr"] + 1e-12
