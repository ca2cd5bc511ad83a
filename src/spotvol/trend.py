"""Multi-year evolution of the fitted volatility parameters.

The per-year exponential scales mu_hat are regressed on calendar year by
ordinary least squares with a t-based 95% confidence interval for the
slope.  The top-tail medians are only collected per year (see
pipeline.trend_from_year_reports); no law is fitted to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesign

MIN_YEARS = 3  # fewest points (analyzed years) a trend with a t-interval is fitted to

# float(scipy.special.stdtrit(dof, 0.975)) for dof 1..30 (fits of up to 32 years),
# as shortest-repr literals: importing scipy.special costs ~0.3 s and ~23 MB
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378,
)


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
    and a collapsed interval.  Raises DegenerateDesign for fewer than
    MIN_YEARS points or a single distinct year.
    """
    pts = [(int(y), float(v)) for y, v in points]
    n = len(pts)
    if n < MIN_YEARS:
        raise DegenerateDesign(f"need at least {MIN_YEARS} points, got {n}")
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
    if dof <= len(_T975):
        t = _T975[dof - 1]
    else:
        from scipy.special import stdtrit
        t = float(stdtrit(dof, 0.975))  # the Student t quantile scipy.stats.t.ppf returns
    half = t * stderr
    return VolatilityTrend(
        slope=slope,
        intercept=intercept,
        ci95=(slope - half, slope + half),
        stderr=stderr,
        dof=dof,
    )
