"""Angular-momentum statistic and its seeded permutation test."""

import numpy as np
import pytest
from scipy import stats as sps

import spotvol as sv
from spotvol import EmptySeries, ResidualSeries, TooFewPermutations, seasonality


def test_zero_residuals_zero_statistic():
    assert sv.angular_momentum(np.zeros(8784)) == 0.0


def test_constant_residuals_match_riemann_sum():
    # mean of x(h)^2 over the year tends to 1/3, so L -> n/3000
    n = 8784
    value = sv.angular_momentum(np.ones(n))
    assert value == pytest.approx(n / 3000.0, rel=1e-3)


def test_statistic_counts_from_one_and_pivots_at_midyear():
    # direct formula check on a small series
    r = np.array([5.0, 1.0, 1.0, 7.0])
    h = np.arange(1, 5)
    x = (h - 2.0) / 2.0
    assert sv.angular_momentum(r) == pytest.approx(float(np.abs(r) @ (x * x) / 1000.0))


def test_accepts_residual_series_and_uses_absolute_values():
    values = np.array([-3.0, 2.0, -1.0, 4.0])
    rs = ResidualSeries(values=values, imputed=np.zeros(4, dtype=bool))
    assert sv.angular_momentum(rs) == sv.angular_momentum(np.abs(values))


def test_empty_series_rejected():
    with pytest.raises(EmptySeries):
        sv.angular_momentum(np.array([1.0]))
    with pytest.raises(EmptySeries):
        sv.permutation_test(np.array([1.0]), 1000)


def test_too_few_permutations_rejected():
    with pytest.raises(TooFewPermutations):
        sv.permutation_test(np.ones(100), 99)


def test_constant_residuals_p_value_one():
    test = sv.permutation_test(np.full(2000, 2.5), 500, seed=3)
    assert test.p_value == 1.0
    assert np.all(test.samples == test.l_observed)


def test_same_seed_reproduces_identical_results(exp_sample_series):
    a = sv.permutation_test(exp_sample_series, 200, seed=11)
    b = sv.permutation_test(exp_sample_series, 200, seed=11)
    assert a.p_value == b.p_value
    assert np.array_equal(a.samples, b.samples)
    assert a.permutation_values == b.permutation_values


def test_different_seeds_differ(exp_sample_series):
    a = sv.permutation_test(exp_sample_series, 200, seed=0)
    b = sv.permutation_test(exp_sample_series, 200, seed=1)
    assert not np.array_equal(a.samples, b.samples)


def test_u_shaped_fixture_is_significant():
    # mass concentrated at the year edges by construction
    n = 8784
    h = np.arange(1, n + 1)
    x = (h - n / 2) / (n / 2)
    rng = np.random.default_rng(7)
    r = np.abs(x) + rng.exponential(0.1, n)
    test = sv.permutation_test(r, 1000, seed=0)
    assert test.p_value <= 0.002
    assert test.l_observed > test.permutation_values["max"]


def test_add_one_smoothing_and_count_consistency(exp_sample_series):
    test = sv.permutation_test(exp_sample_series, 250, seed=2)
    exceed = int(np.count_nonzero(test.samples >= test.l_observed))
    assert test.p_value == (exceed + 1) / 251
    assert test.p_value >= 1 / 251


def test_scale_equivariance(exp_sample_series):
    base = sv.permutation_test(exp_sample_series, 150, seed=4)
    scaled_values = 2.0 * exp_sample_series.values
    scaled = sv.permutation_test(scaled_values, 150, seed=4)
    # doubling is exact in floating point
    assert scaled.l_observed == 2.0 * base.l_observed
    assert np.array_equal(scaled.samples, 2.0 * base.samples)
    assert scaled.p_value == base.p_value


def test_null_distribution_shuffle_invariant():
    rng = np.random.default_rng(42)
    r = rng.exponential(3.0, 8784)
    s1 = sv.permutation_test(r, 1000, seed=0).samples
    s2 = sv.permutation_test(np.random.default_rng(5).permutation(r), 1000, seed=1).samples
    assert sps.ks_2samp(s1, s2).statistic <= 0.1


def test_histogram_summary_shape(exp_sample_series):
    test = sv.permutation_test(exp_sample_series, 300, seed=9)
    hist = test.permutation_values["histogram"]
    assert sum(b["count"] for b in hist) == 300
    lefts = [b["bin_left"] for b in hist]
    rights = [b["bin_right"] for b in hist]
    assert all(l < r for l, r in zip(lefts, rights))
    assert lefts[1:] == rights[:-1]
    assert test.permutation_values["min"] >= lefts[0]
    assert test.permutation_values["max"] <= rights[-1]


def _reference_samples(r, n_permutations, seed):
    """The sequential loop the threaded chunks must reproduce bit for bit."""
    r = np.abs(r)
    n = r.size
    x = (np.arange(1, n + 1) - n / 2) / (n / 2)
    w = x * x / 1000.0
    return np.array([
        r[np.random.default_rng((seed, i)).permutation(n)] @ w for i in range(n_permutations)
    ])


@pytest.mark.parametrize("workers", [1, 2, 3, None])
@pytest.mark.parametrize("n_permutations", [101, 250])
def test_samples_do_not_depend_on_workers(workers, n_permutations):
    r = np.random.default_rng(8).normal(0.0, 2.0, 2000)
    before = r.copy()
    for seed in (0, 5, 123):
        test = sv.permutation_test(r, n_permutations, seed=seed, workers=workers)
        assert np.array_equal(test.samples, _reference_samples(r, n_permutations, seed))
    assert np.array_equal(r, before)


def test_samples_match_reference_in_every_cache_state():
    r = np.random.default_rng(3).normal(0.0, 2.0, 1500)
    n = 120
    cache = seasonality._seeded_states
    cache.cache_clear()

    def check(seed):
        test = sv.permutation_test(r, n, seed=seed, workers=2)
        assert np.array_equal(test.samples, _reference_samples(r, n, seed))

    check(4)
    assert cache.cache_info().misses == 1  # cold
    states = cache(4, n)
    check(4)
    assert cache.cache_info().misses == 1  # warm
    # a call reads the cached states and leaves them as PCG64 seeds them
    assert cache(4, n) is states
    assert states == tuple(
        (start["state"], start["inc"])
        for start in (np.random.PCG64((4, i)).state["state"] for i in range(n))
    )
    for seed in range(10, 11 + cache.cache_info().maxsize):
        check(seed)
    misses = cache.cache_info().misses
    check(4)
    assert cache.cache_info().misses == misses + 1  # evicted, seeded again
    check(2**40 + 3)


def test_shuffle_streams_match_golden():
    # the report bytes rest on these streams; a numpy that shuffles
    # differently must fail here, not change the reports quietly
    assert [np.random.default_rng((0, i)).permutation(10).tolist() for i in range(3)] == [
        [4, 6, 2, 7, 3, 5, 9, 0, 8, 1],
        [9, 1, 3, 8, 7, 6, 0, 4, 2, 5],
        [8, 2, 1, 0, 5, 6, 7, 4, 3, 9],
    ]


def test_workers_below_one_rejected():
    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        sv.permutation_test(np.ones(100), 100, workers=0)


@pytest.mark.parametrize("series_seed", [1, 2, 3])
def test_null_samples_match_exact_permutation_moments(series_seed):
    # L is a linear permutation statistic; its exact mean over all
    # permutations is n*mean(r)*mean(w) and its variance
    # sum((r - mean r)^2) * sum((w - mean w)^2) / (n - 1) (Hoeffding 1951)
    n, draws = 8784, 1000
    r = np.random.default_rng(series_seed).exponential(3.0, n)
    x = (np.arange(1, n + 1) - n / 2) / (n / 2)
    w = x * x / 1000.0
    mean = n * r.mean() * w.mean()
    sd = np.sqrt(np.sum((r - r.mean()) ** 2) * np.sum((w - w.mean()) ** 2) / (n - 1))
    samples = sv.permutation_test(r, draws, seed=series_seed).samples
    assert abs(samples.mean() - mean) <= 4 * sd / np.sqrt(draws)
    assert samples.std(ddof=1) == pytest.approx(sd, rel=0.15)
