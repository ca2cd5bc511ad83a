"""Multi-year evolution of the fitted volatility parameters.

The per-year exponential scales mu_hat are regressed on calendar year by
ordinary least squares with a t-based 95% confidence interval for the
slope.  The top-tail medians are only collected per year (see
pipeline.trend_from_year_reports); no law is fitted to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .errors import DegenerateDesign


@dataclass
class VolatilityTrend:
    """OLS fit of per-year values on calendar year.

    Units: slope in EUR/MWh per year, intercept in EUR/MWh at year zero
    of the calendar scale (fitted value = intercept + slope * year).
    ci95 is the two-sided t-interval for the slope.
    """

    slope: float
    intercept: float
    ci95: tuple[float, float]
    stderr: float
    dof: int

    def fitted(self, year) -> np.ndarray:
        return self.intercept + self.slope * np.asarray(year, dtype=float)


def fit_trend(points: list[tuple[int, float]]) -> VolatilityTrend:
    """Least-squares line through (year, value) points with a 95% CI.

    Years are centered at their mean for conditioning; the intercept is
    mapped back to calendar coordinates.  A perfect fit yields stderr 0
    and a collapsed interval.  Raises DegenerateDesign for fewer than 3
    points or a single distinct year.
    """
    pts = [(int(y), float(v)) for y, v in points]
    n = len(pts)
    if n < 3:
        raise DegenerateDesign(f"need at least 3 points, got {n}")
    years = np.array([y for y, _ in pts], dtype=float)
    values = np.array([v for _, v in pts], dtype=float)
    if np.unique(years).size < 2:
        raise DegenerateDesign("all points share one year")

    yc = years - years.mean()
    sxx = float(yc @ yc)
    slope = float((yc @ values) / sxx)
    intercept_centered = float(values.mean())
    intercept = intercept_centered - slope * float(years.mean())

    resid = values - (intercept_centered + slope * yc)
    dof = n - 2
    rss = float(resid @ resid)
    stderr = float(np.sqrt(rss / dof / sxx))
    t = float(stdtrit(dof, 0.975))  # the Student t quantile scipy.stats.t.ppf returns
    half = t * stderr
    return VolatilityTrend(
        slope=slope,
        intercept=intercept,
        ci95=(slope - half, slope + half),
        stderr=stderr,
        dof=dof,
    )
