"""Report CSV writers: exact bytes for hand-built inputs."""

import numpy as np

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
