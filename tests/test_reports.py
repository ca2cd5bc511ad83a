"""Report CSV writers: exact bytes for hand-built inputs."""

import numpy as np
import pytest

from spotvol import reports
from spotvol.lowrank import RankPModel


def test_trend_csv_leaves_absent_tail_median_empty(tmp_path):
    path = tmp_path / "trend.csv"
    reports.write_trend_csv(path, [
        {"year": 2014, "mu_hat": 4.0, "fitted": 3.5, "tail_median": None},
        {"year": 2015, "mu_hat": 3.0, "fitted": 1 / 3, "tail_median": 7.25},
    ])
    assert path.read_bytes() == (
        b"year,mu_hat,fitted,tail_median\n"
        b"2014,4.0,3.5,\n"
        b"2015,3.0,0.3333333333333333,7.25\n"
    )


def test_histogram_csv_writes_int_counts(tmp_path):
    path = tmp_path / "hist.csv"
    reports.write_histogram_csv(path, [
        {"bin_left": 0.5, "bin_right": 1.25, "count": 3},
        {"bin_left": 1.25, "bin_right": 2.0, "count": 0},
    ])
    assert path.read_bytes() == b"bin_left,bin_right,count\n0.5,1.25,3\n1.25,2.0,0\n"


def test_profile_and_amplitude_csvs_at_rank_two(tmp_path):
    profiles = np.array([[0.5, -0.25], [0.1, 1 / 3], [-1e-20, 2.0]])
    amplitudes = np.array([[1.0, 0.0], [-0.5, 0.75]])
    model = RankPModel(
        p=2, approximation=np.zeros((3, 2)), frobenius_error=0.0,
        profiles=profiles, amplitudes=amplitudes, energy_fraction=1.0,
    )
    reports.write_profiles_csv(tmp_path / "profiles.csv", model)
    reports.write_amplitudes_csv(tmp_path / "amplitudes.csv", model)
    assert (tmp_path / "profiles.csv").read_bytes() == (
        b"k,hour,u_value\n"
        b"1,0,0.5\n1,1,0.1\n1,2,-1e-20\n"
        b"2,0,-0.25\n2,1,0.3333333333333333\n2,2,2.0\n"
    )
    assert (tmp_path / "amplitudes.csv").read_bytes() == (
        b"k,day,v_value\n"
        b"1,1,1.0\n1,2,-0.5\n"
        b"2,1,0.0\n2,2,0.75\n"
    )


# floats whose shortest round-trip form has an exponent, a sign, 17 digits,
# or sits at the subnormal and overflow ends of the double range
EDGE_FLOATS = [1e-20, 1e16, -0.0, 0.1 + 0.2, 5e-324, 1.7976931348623157e308]
EDGE_TEXT = [
    b"1e-20", b"1e+16", b"-0.0", b"0.30000000000000004", b"5e-324", b"1.7976931348623157e+308",
]


def test_probplot_csv_writes_edge_floats_in_shortest_form(tmp_path):
    path = tmp_path / "probplot.csv"
    reports.write_probplot_csv(path, list(zip(EDGE_FLOATS, EDGE_FLOATS[::-1])))
    assert path.read_bytes() == b"theoretical_quantile,ordered_residual\n" + b"".join(
        x + b"," + y + b"\n" for x, y in zip(EDGE_TEXT, EDGE_TEXT[::-1])
    )


def test_spectrum_csv_writes_edge_floats_in_shortest_form(tmp_path):
    path = tmp_path / "spectrum.csv"
    reports.write_spectrum_csv(path, [
        {"year": 2016, "k": k, "sigma": s, "sigma_normalized": sn}
        for k, (s, sn) in enumerate(zip(EDGE_FLOATS, EDGE_FLOATS[::-1]), start=1)
    ])
    assert path.read_bytes() == b"year,k,sigma,sigma_normalized\n" + b"".join(
        b"2016,%d,%s,%s\n" % (k, s, sn)
        for k, (s, sn) in enumerate(zip(EDGE_TEXT, EDGE_TEXT[::-1]), start=1)
    )


def test_trend_csv_writes_an_integer_mu_hat_as_a_float(tmp_path):
    # a hand-edited year report may hold "mu_hat": 4
    path = tmp_path / "trend.csv"
    reports.write_trend_csv(path, [{"year": 2014, "mu_hat": 4, "fitted": 4.0, "tail_median": 9.5}])
    assert path.read_bytes() == b"year,mu_hat,fitted,tail_median\n2014,4.0,4.0,9.5\n"


@pytest.mark.parametrize("row", [(0.5,), (0.5, 1.0, 2.0)], ids=["short", "long"])
def test_row_with_wrong_cell_count_raises_and_writes_nothing(tmp_path, row):
    path = tmp_path / "probplot.csv"
    with pytest.raises(TypeError):
        reports.write_probplot_csv(path, [(0.0, 1.0), row])
    assert not path.exists()
