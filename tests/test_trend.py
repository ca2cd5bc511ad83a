"""OLS volatility trend with t-based confidence interval; tail medians by year."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spotvol as sv
from spotvol import DegenerateDesign
from spotvol.pipeline import trend_from_year_reports
from spotvol.reports import write_trend_csv
from spotvol.trend import _T975


def test_perfect_line_recovered_exactly():
    points = [(2006 + k, 10.0 - 0.5 * k) for k in range(11)]
    fit = sv.fit_trend(points)
    assert fit.slope == -0.5
    assert fit.stderr == 0.0
    assert fit.ci95 == (-0.5, -0.5)
    assert fit.dof == 9
    assert fit.fitted(2006) == 10.0


def test_three_years_mu_4_3_2_slope_minus_one():
    fit = sv.fit_trend([(2014, 4.0), (2015, 3.0), (2016, 2.0)])
    assert fit.slope == -1.0
    assert fit.ci95 == (-1.0, -1.0)


def test_degenerate_designs_rejected():
    with pytest.raises(DegenerateDesign):
        sv.fit_trend([(2015, 3.0), (2016, 2.0)])
    with pytest.raises(DegenerateDesign):
        sv.fit_trend([(2016, 3.0), (2016, 2.0), (2016, 1.0)])


def test_ci_uses_t_quantile():
    rng = np.random.default_rng(0)
    years = list(range(2006, 2017))
    values = [8.0 - 0.5 * k + rng.normal(0, 0.5) for k in range(11)]
    fit = sv.fit_trend(list(zip(years, values)))
    from scipy import stats

    half = stats.t.ppf(0.975, 9) * fit.stderr
    assert fit.ci95[0] == pytest.approx(fit.slope - half)
    assert fit.ci95[1] == pytest.approx(fit.slope + half)
    assert fit.ci95[0] <= fit.slope <= fit.ci95[1]


@pytest.mark.parametrize("n", [3, 4, 5, 7, 11, 32, 101])
def test_ci95_matches_scipy_stats_t_quantile(n):
    from scipy import stats

    rng = np.random.default_rng(n)
    fit = sv.fit_trend([(2000 + k, 5.0 + rng.normal()) for k in range(n)])
    half = float(stats.t.ppf(0.975, n - 2)) * fit.stderr
    assert fit.ci95 == (fit.slope - half, fit.slope + half)


def test_affine_equivariance():
    rng = np.random.default_rng(1)
    points = [(2006 + k, 5.0 + rng.normal()) for k in range(8)]
    base = sv.fit_trend(points)
    scaled = sv.fit_trend([(y, 2.0 * v + 3.0) for y, v in points])
    assert scaled.slope == pytest.approx(2.0 * base.slope, rel=1e-12)
    assert scaled.ci95[0] == pytest.approx(2.0 * base.ci95[0] + 0.0, rel=1e-12)
    assert scaled.ci95[1] == pytest.approx(2.0 * base.ci95[1] + 0.0, rel=1e-12)
    flipped = sv.fit_trend([(y, -v) for y, v in points])
    assert flipped.slope == pytest.approx(-base.slope, rel=1e-12)
    assert flipped.ci95[0] == pytest.approx(-base.ci95[1], rel=1e-12)
    assert flipped.ci95[1] == pytest.approx(-base.ci95[0], rel=1e-12)


def test_year_shift_invariance():
    rng = np.random.default_rng(2)
    points = [(2006 + k, 5.0 + rng.normal()) for k in range(9)]
    base = sv.fit_trend(points)
    shifted = sv.fit_trend([(y + 100, v) for y, v in points])
    assert shifted.slope == pytest.approx(base.slope, rel=1e-12)
    assert shifted.stderr == pytest.approx(base.stderr, rel=1e-12)
    width = base.ci95[1] - base.ci95[0]
    assert shifted.ci95[1] - shifted.ci95[0] == pytest.approx(width, rel=1e-12)


def test_residual_orthogonality():
    rng = np.random.default_rng(3)
    years = np.arange(2006, 2017, dtype=float)
    values = 8.0 - 0.5 * (years - 2006) + rng.normal(0, 0.5, 11)
    fit = sv.fit_trend(list(zip(years.astype(int).tolist(), values.tolist())))
    resid = values - fit.fitted(years)
    scale = float(np.abs(values).sum())
    assert abs(resid.sum()) < 1e-9 * scale
    assert abs(resid @ (years - years.mean())) < 1e-9 * scale


def fake_report(year, mu, tail):
    return {"year": year, "residuals": {"mu_hat": mu, "tail_median": tail}}


def trend_csv_tails(tmp_path, report):
    """The year and tail_median columns of the trend.csv written from report."""
    path = tmp_path / "trend.csv"
    write_trend_csv(path, report)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [(int(year), tail) for year, _, _, tail in rows]


def test_tail_trend_orders_by_year(tmp_path):
    # reports arriving out of year order
    report = trend_from_year_reports(
        [fake_report(2016, 2.0, 9.0), fake_report(2014, 4.0, 20.0), fake_report(2015, 3.0, 15.0)]
    )
    assert list(report["tail_median"]) == ["2014", "2015", "2016"]
    assert list(report["tail_median"].values()) == [20.0, 15.0, 9.0]
    assert len(report["tail_median"]) == 3
    assert trend_csv_tails(tmp_path, report) == [(2014, "20.0"), (2015, "15.0"), (2016, "9.0")]


def test_tail_trend_single_pair(tmp_path):
    # one tail median among years without one
    report = trend_from_year_reports(
        [fake_report(2016, 2.0, 9.1), fake_report(2014, 4.0, None), fake_report(2015, 3.0, None)]
    )
    assert report["tail_median"] == {"2016": 9.1}
    assert trend_csv_tails(tmp_path, report) == [(2014, ""), (2015, ""), (2016, "9.1")]


def test_tail_trend_keeps_monotone_shape(tmp_path):
    # a monotone tail keeps its shape whatever order the reports come in
    shuffled = [fake_report(2006 + k, 5.0, 20.0 - k) for k in (3, 0, 5, 1, 4, 2)]
    report = trend_from_year_reports(shuffled)
    values = list(report["tail_median"].values())
    assert len(values) == 6
    assert all(b < a for a, b in zip(values, values[1:]))
    assert [float(tail) for _, tail in trend_csv_tails(tmp_path, report)] == values


def test_t975_table_matches_scipy_stdtrit_bit_for_bit():
    from scipy.special import stdtrit

    assert len(_T975) == 30
    for dof, t in enumerate(_T975, start=1):
        assert t == float(stdtrit(dof, 0.975)), dof


def test_importing_spotvol_leaves_scipy_unloaded():
    # the CLI starts without scipy, and fit_trend loads scipy.special only
    # past its table of t quantiles: a fit of more than 32 points
    code = (
        "import sys, spotvol, spotvol.cli;"
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules), 'scipy loaded';"
        "spotvol.fit_trend([(2014, 4.0), (2015, 3.0), (2016, 2.0)]);"
        "spotvol.fit_trend([(1990 + k, k % 5) for k in range(32)]);"
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules), 'loaded at 32';"
        "spotvol.fit_trend([(1990 + k, k % 5) for k in range(33)]);"
        "assert 'scipy.special' in sys.modules"
    )
    src = str(Path(sv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
