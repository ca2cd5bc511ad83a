"""Bulk exponential fit, tail median, probability-plot coordinates."""

import numpy as np
import pytest

import spotvol as sv
from spotvol import NonPositiveMu, ResidualSeries, TooFewResiduals, TooFewTailPoints
from conftest import CLOSED_FORM_TRIMMED_MEAN


def series_of(values, imputed=None):
    values = np.asarray(values, dtype=float)
    if imputed is None:
        imputed = np.zeros(values.size, dtype=bool)
    return ResidualSeries(values=values, imputed=np.asarray(imputed, dtype=bool))


def test_constant_residuals_yield_their_value():
    rs = series_of(np.full(500, 3.25))
    fit = sv.fit_bulk_exponential(rs, q=0.99)
    assert fit.mu_hat == 3.25
    assert fit.cutoff == 3.25
    assert fit.n == 500


def test_cutoff_is_ceil_q_n_order_statistic():
    rs = series_of(np.arange(1.0, 101.0))
    fit = sv.fit_bulk_exponential(rs, q=0.9)
    # ceil(0.9 * 100) = 90 -> cutoff is the 90th smallest value
    assert fit.cutoff == 90.0
    assert fit.mu_hat == pytest.approx(np.mean(np.arange(1.0, 91.0)))
    assert fit.mean_all == pytest.approx(50.5)


def test_tail_median_strictly_above_cutoff():
    rs = series_of(np.arange(1.0, 101.0))
    assert sv.tail_median(rs, q=0.9) == pytest.approx(95.5)


def test_sign_flip_invariance():
    rng = np.random.default_rng(0)
    values = rng.exponential(2.0, 1000)
    signs = np.where(rng.random(1000) < 0.5, -1.0, 1.0)
    plain = sv.fit_bulk_exponential(series_of(values))
    flipped = sv.fit_bulk_exponential(series_of(signs * values))
    assert plain.mu_hat == flipped.mu_hat
    assert sv.tail_median(series_of(values)) == sv.tail_median(series_of(signs * values))


def test_too_few_residuals():
    with pytest.raises(TooFewResiduals):
        sv.fit_bulk_exponential(series_of(np.ones(99)))


def test_too_few_tail_points():
    with pytest.raises(TooFewTailPoints):
        sv.tail_median(series_of(np.full(200, 1.0)), q=0.99)


def test_trim_quantile_domain():
    rs = series_of(np.ones(200))
    for q in (0.5, 0.0, 1.2):
        with pytest.raises(ValueError):
            sv.fit_bulk_exponential(rs, q=q)
    with pytest.raises(ValueError):
        sv.fit_bulk_exponential(rs, method="winsorized")


def test_q_of_one_keeps_everything():
    rng = np.random.default_rng(1)
    rs = series_of(rng.exponential(3.0, 1000))
    fit = sv.fit_bulk_exponential(rs, q=1.0)
    assert fit.mu_hat == pytest.approx(fit.mean_all)
    with pytest.raises(TooFewTailPoints):
        sv.tail_median(rs, q=1.0)


def test_truncated_mean_law():
    # E[mu_hat] on Exp(3) data: closed-form truncated mean, 100 trials within 2%
    values = []
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        rs = series_of(rng.exponential(3.0, 8784))
        values.append(sv.fit_bulk_exponential(rs).mu_hat)
    assert abs(np.mean(values) / CLOSED_FORM_TRIMMED_MEAN - 1) < 0.02


def test_censored_estimator_nearly_unbiased():
    values = []
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        rs = series_of(rng.exponential(3.0, 8784))
        values.append(sv.fit_bulk_exponential(rs, method="censored").mu_hat)
    assert abs(np.mean(values) / 3.0 - 1) < 0.02
    # the censored correction always sits above the plain trimmed mean
    rng = np.random.default_rng(5)
    rs = series_of(rng.exponential(3.0, 8784))
    assert (
        sv.fit_bulk_exponential(rs, method="censored").mu_hat
        > sv.fit_bulk_exponential(rs, method="trimmed").mu_hat
    )


def test_scale_equivariance():
    rng = np.random.default_rng(2)
    values = rng.exponential(3.0, 2000)
    base = sv.fit_bulk_exponential(series_of(values))
    base_tail = sv.tail_median(series_of(values))
    # powers of two scale without rounding, so equality is exact
    scaled = sv.fit_bulk_exponential(series_of(4.0 * values))
    assert scaled.mu_hat == 4.0 * base.mu_hat
    assert scaled.cutoff == 4.0 * base.cutoff
    assert sv.tail_median(series_of(4.0 * values)) == 4.0 * base_tail
    general = sv.fit_bulk_exponential(series_of(1.7 * values))
    assert general.mu_hat == pytest.approx(1.7 * base.mu_hat, rel=1e-12)


def test_trimming_monotone_in_q():
    rng = np.random.default_rng(3)
    rs = series_of(rng.exponential(3.0, 5000))
    fits = [sv.fit_bulk_exponential(rs, q=q).mu_hat for q in (0.6, 0.7, 0.8, 0.9, 0.99, 1.0)]
    assert all(b >= a for a, b in zip(fits, fits[1:]))


def test_imputed_cells_excluded():
    rng = np.random.default_rng(4)
    values = rng.exponential(3.0, 2000)
    imputed = np.zeros(2000, dtype=bool)
    imputed[::10] = True
    rs = series_of(values, imputed)
    poisoned = values.copy()
    poisoned[imputed] = 1e6
    rs_poisoned = series_of(poisoned, imputed)
    a = sv.fit_bulk_exponential(rs)
    b = sv.fit_bulk_exponential(rs_poisoned)
    assert (a.mu_hat, a.cutoff, a.n) == (b.mu_hat, b.cutoff, b.n)
    assert sv.tail_median(rs) == sv.tail_median(rs_poisoned)
    assert sv.probplot_points(rs, 3.0) == sv.probplot_points(rs_poisoned, 3.0)


def test_probplot_single_point():
    rs = series_of([2.5])
    points = sv.probplot_points(rs, mu=1.5)
    assert points == [(-1.5 * np.log(0.5), 2.5)]


def test_probplot_monotone_and_anchored():
    rng = np.random.default_rng(5)
    rs = series_of(rng.exponential(2.0, 500))
    points = np.array(sv.probplot_points(rs, mu=2.0))
    assert np.all(np.diff(points[:, 0]) > 0)
    assert np.all(np.diff(points[:, 1]) >= 0)
    assert points.shape == (500, 2)


def test_probplot_slope_near_unity_for_exponential_sample():
    rng = np.random.default_rng(3)
    rs = series_of(rng.exponential(2.5, 10**4))
    points = np.array(sv.probplot_points(rs, mu=2.5))
    x, y = points[:, 0], points[:, 1]
    slope = float(x @ y / (x @ x))
    assert 0.95 < slope < 1.05


def test_probplot_requires_positive_mu():
    rs = series_of(np.ones(10))
    for mu in (0.0, -1.0):
        with pytest.raises(NonPositiveMu):
            sv.probplot_points(rs, mu)


def test_analyze_residuals_populates_everything(noisy_residuals):
    analysis = sv.analyze_residuals(noisy_residuals)
    assert analysis.n == 8784
    assert analysis.tail_median is not None
    assert analysis.tail_median >= analysis.cutoff >= 0
    assert analysis.mu_hat > 0
    assert len(analysis.probplot) == analysis.n
    assert analysis.mean_all > analysis.mu_hat


def test_analyze_residuals_degenerate_zero_noise():
    rs = series_of(np.zeros(500))
    analysis = sv.analyze_residuals(rs)
    assert analysis.mu_hat == 0.0
    assert analysis.tail_median is None
    assert analysis.probplot == []


@pytest.mark.parametrize("statistic", [
    pytest.param(sv.tail_median, id="tail-median"),
    pytest.param(lambda residuals: sv.probplot_points(residuals, 1.0), id="probplot"),
])
def test_an_all_imputed_series_has_too_few_residuals(statistic):
    with pytest.raises(TooFewResiduals) as info:
        statistic(series_of(np.ones(200), np.ones(200, dtype=bool)))
    assert str(info.value) == "no observed residuals"
