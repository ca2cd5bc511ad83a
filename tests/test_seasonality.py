"""Angular-momentum statistic L, its null draws and its seeded permutation test."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

import spotvol as sv
from spotvol import AnalysisError, EmptySeries, ResidualSeries, TooFewPermutations, seasonality


def statistic(residuals):
    """The observed L, as the permutation test reports it."""
    return sv.permutation_test(residuals, 100).l_observed


def test_zero_residuals_zero_statistic():
    assert statistic(np.zeros(8784)) == 0.0


def test_constant_residuals_match_riemann_sum():
    # mean of x(h)^2 over the year tends to 1/3, so L -> n/3000
    n = 8784
    value = statistic(np.ones(n))
    assert value == pytest.approx(n / 3000.0, rel=1e-3)


def test_statistic_counts_from_one_and_pivots_at_midyear():
    # direct formula check on a small series
    r = np.array([5.0, 1.0, 1.0, 7.0])
    h = np.arange(1, 5)
    x = (h - 2.0) / 2.0
    assert statistic(r) == pytest.approx(float(np.abs(r) @ (x * x) / 1000.0))


def test_accepts_residual_series_and_uses_absolute_values():
    values = np.array([-3.0, 2.0, -1.0, 4.0])
    rs = ResidualSeries(values=values, imputed=np.zeros(4, dtype=bool))
    assert statistic(rs) == statistic(np.abs(values))


def test_empty_series_rejected():
    with pytest.raises(EmptySeries):
        statistic(np.array([1.0]))
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


# thread counts for the permutation test; None is this machine's usable_cores()
THREAD_COUNTS = [1, 2, 3, None]
USABLE_CORES = seasonality.usable_cores


def cores(monkeypatch, count):
    """Make the permutation test draw on count threads, as usable_cores() sets it."""
    monkeypatch.setattr(seasonality, "usable_cores",
                        USABLE_CORES if count is None else lambda: count)


# (thread count, draws, seeds): every count at two draw counts, then a seed
# numpy hashes into three words and more threads than draws
SAMPLE_CASES = [
    *(pytest.param(count, n, (0, 5, 123), id=f"{n}-{count}")
      for n in (101, 250) for count in THREAD_COUNTS),
    pytest.param(2, 120, (2**64 + 7,), id="three-word-seed"),
    pytest.param(300, 101, (6,), id="more-workers-than-draws"),
]


@pytest.mark.parametrize("workers, n_permutations, seeds", SAMPLE_CASES)
def test_samples_do_not_depend_on_workers(monkeypatch, workers, n_permutations, seeds):
    cores(monkeypatch, workers)
    r, w = seasonality._abs_and_weights(np.random.default_rng(8).normal(0.0, 2.0, 2000))
    before = r.copy()
    for seed in seeds:
        samples = seasonality.null_samples(r, w, seed, n_permutations)
        assert np.array_equal(samples, _reference_samples(r, n_permutations, seed))
    assert np.array_equal(r, before)


def numpy_states(seed, draws):
    return [np.random.PCG64((seed, i)).state for i in draws]


def test_samples_and_states_match_numpy_on_every_call(monkeypatch):
    # nothing is kept between calls: a seed drawn again, after others, draws alike
    r = np.random.default_rng(3).normal(0.0, 2.0, 1500)
    n = 120
    for seed in (4, 10, 11, 12, 4, 2**40 + 3):
        expected = _reference_samples(r, n, seed)
        for count in THREAD_COUNTS:
            cores(monkeypatch, count)
            assert np.array_equal(sv.permutation_test(r, n, seed=seed).samples, expected)
        assert list(seasonality._pcg64_states(seed, range(n))) == numpy_states(seed, range(n))


# one-word seeds, then seeds numpy hashes into two, three and seven words
@pytest.mark.parametrize("seed", [0, 1, 5, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 7, 2**200 + 1])
def test_seeded_states_match_numpy_for_multi_word_seeds(seed):
    for n in (1, 100, 101, 1000):
        assert list(seasonality._pcg64_states(seed, range(n))) == numpy_states(seed, range(n))


@pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 7, 2**96 + 1])
def test_seeded_states_match_numpy_where_an_index_takes_two_words(seed):
    # from 2**32 on, numpy hashes i as two entropy words; a block may hold both kinds
    for draws in (range(2**32 - 3, 2**32 + 3), range(2**32 - 5, 2**40, 2**37 + 1)):
        assert list(seasonality._pcg64_states(seed, draws)) == numpy_states(seed, draws)


@pytest.mark.parametrize("seed, expected", [
    (True, 1), (np.int64(3), 3), (np.uint64(2**63 + 5), 2**63 + 5),
    (-1, ValueError), (np.int64(-1), ValueError),
    (1.5, TypeError), (None, TypeError), ("3", TypeError),
])
def test_a_seed_is_a_non_negative_integer(seed, expected):
    r = np.random.default_rng(9).normal(0.0, 2.0, 300)
    if isinstance(expected, type):
        with pytest.raises(expected):
            sv.permutation_test(r, 101, seed=seed)
        return
    assert list(seasonality._pcg64_states(seed, range(101))) == numpy_states(expected, range(101))
    assert np.array_equal(sv.permutation_test(r, 101, seed=seed).samples,
                          _reference_samples(r, 101, expected))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_residuals_rejected_before_any_draw(monkeypatch, bad):
    monkeypatch.setattr(seasonality, "null_samples", None)
    values = np.ones(300)
    values[[17, 40]] = bad, np.nan
    with pytest.raises(AnalysisError, match=f"^residual 17 of 300 is not finite: {bad}$"):
        sv.permutation_test(values, 100)


def test_a_permutation_test_keeps_no_memory_once_it_returns():
    r = np.random.default_rng(5).normal(0.0, 2.0, 200)
    tracemalloc.start()
    try:
        sv.permutation_test(r, 50_000, seed=7)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    assert retained < 1_000_000


def test_shuffle_streams_match_golden():
    # the report bytes rest on these streams; a numpy that shuffles
    # differently must fail here, not change the reports quietly
    assert [np.random.default_rng((0, i)).permutation(10).tolist() for i in range(3)] == [
        [4, 6, 2, 7, 3, 5, 9, 0, 8, 1],
        [9, 1, 3, 8, 7, 6, 0, 4, 2, 5],
        [8, 2, 1, 0, 5, 6, 7, 4, 3, 9],
    ]


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
