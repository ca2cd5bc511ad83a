"""Distributional characterization of absolute deseasonalized residuals.

The bulk of the absolute residuals (lowest fraction q, default 99%) is
fitted with an exponential law; the remaining top tail is tracked
separately through its median.  Probability-plot coordinates let the fit
quality be inspected against the exponential diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveMu, TooFewResiduals, TooFewTailPoints
from .lowrank import ResidualSeries

DEFAULT_TRIM = 0.99
ESTIMATORS = ("trimmed", "censored")
MIN_RESIDUALS = 100
MIN_TAIL_POINTS = 10


@dataclass
class ResidualAnalysis:
    """Summary of one year's absolute residual distribution.

    mu_hat is the exponential scale fitted on the trimmed bulk; mean_all
    is the untrimmed mean recorded alongside for comparison.  tail_median
    and probplot stay unset until their computations run.
    """

    n: int
    trim_quantile: float
    mu_hat: float
    cutoff: float
    mean_all: float
    method: str = "trimmed"
    tail_median: float | None = None
    probplot: list[tuple[float, float]] = field(default_factory=list, repr=False)


def _observed_abs_sorted(residuals: ResidualSeries) -> np.ndarray:
    return np.sort(residuals.observed_abs)


def _quantile_cutoff(sorted_abs: np.ndarray, q: float) -> float:
    """Empirical q-quantile: order statistic at 1-based index ceil(q*n).

    The round() guards against float noise pushing an exact q*n across
    the ceiling.
    """
    n = sorted_abs.size
    idx = math.ceil(round(q * n, 9))
    idx = min(max(idx, 1), n)
    return float(sorted_abs[idx - 1])


def fit_bulk_exponential(
    residuals: ResidualSeries,
    q: float = DEFAULT_TRIM,
    method: str = "trimmed",
) -> ResidualAnalysis:
    """Fit an exponential scale to the lowest-q bulk of absolute residuals.

    The cutoff is the empirical q-quantile; values at or below it form the
    bulk.  method "trimmed" takes the plain bulk mean (the estimator has a
    known downward truncation bias of about (1-q) relative for q near 1);
    method "censored" applies the censored-data correction
    (sum_bulk + n_tail * cutoff) / n_bulk, which is unbiased for censored
    exponential samples.  Imputed cells are excluded throughout.
    """
    if not (0.5 < q <= 1.0):
        raise ValueError(f"trim quantile must lie in (0.5, 1], got {q}")
    if method not in ESTIMATORS:
        raise ValueError(f"unknown method {method!r}")

    s = _observed_abs_sorted(residuals)
    n = s.size
    if n < MIN_RESIDUALS:
        raise TooFewResiduals(f"need at least {MIN_RESIDUALS} observed residuals, got {n}")

    cutoff = _quantile_cutoff(s, q)
    n_bulk = int(np.searchsorted(s, cutoff, side="right"))
    bulk_sum = float(np.sum(s[:n_bulk]))
    if method == "trimmed":
        mu_hat = bulk_sum / n_bulk
    else:
        mu_hat = (bulk_sum + (n - n_bulk) * cutoff) / n_bulk
    return ResidualAnalysis(
        n=n,
        trim_quantile=q,
        mu_hat=float(mu_hat),
        cutoff=cutoff,
        mean_all=float(s.mean()),
        method=method,
    )


def tail_median(residuals: ResidualSeries, q: float = DEFAULT_TRIM) -> float:
    """Median of the absolute residuals strictly above the q-quantile cutoff."""
    s = _observed_abs_sorted(residuals)
    if s.size == 0:
        raise TooFewResiduals("no observed residuals")
    cutoff = _quantile_cutoff(s, q)
    tail = s[np.searchsorted(s, cutoff, side="right") :]
    if tail.size < MIN_TAIL_POINTS:
        raise TooFewTailPoints(
            f"only {tail.size} residuals above the {q:g} cutoff, need {MIN_TAIL_POINTS}"
        )
    return float(np.median(tail))


def probplot_points(residuals: ResidualSeries, mu: float) -> list[tuple[float, float]]:
    """Exponential probability-plot coordinates for the absolute residuals.

    Orders the absolute residuals and pairs the i-th order statistic with
    the exponential quantile at the midpoint plotting position,
    x_i = -mu * ln(1 - (i - 0.5)/n).  A good fit lies on y = x; heavy
    tails bend above the diagonal at the top end.
    """
    if not (mu > 0):
        raise NonPositiveMu(f"probability plot needs mu > 0, got {mu}")
    s = _observed_abs_sorted(residuals)
    n = s.size
    if n == 0:
        raise TooFewResiduals("no observed residuals")
    i = np.arange(1, n + 1)
    x = -mu * np.log(1.0 - (i - 0.5) / n)
    return list(zip(x.tolist(), s.tolist()))


def analyze_residuals(
    residuals: ResidualSeries,
    q: float = DEFAULT_TRIM,
    method: str = "trimmed",
) -> ResidualAnalysis:
    """Run the full residual characterization: bulk fit, tail median, probplot.

    Degenerate-but-valid inputs stay analyzable: if too few points lie
    above the cutoff (e.g. noiseless data) tail_median is left unset, and
    the probability plot is skipped when mu_hat is zero.
    """
    analysis = fit_bulk_exponential(residuals, q=q, method=method)
    try:
        analysis.tail_median = tail_median(residuals, q=q)
    except TooFewTailPoints:
        analysis.tail_median = None
    if analysis.mu_hat > 0:
        analysis.probplot = probplot_points(residuals, analysis.mu_hat)
    return analysis
