"""Volatility analysis of hourly day-ahead electricity spot prices.

The package quantifies price volatility by removing the daily/seasonal
structure of a year of hourly prices with a truncated SVD of the
hour-by-day matrix and characterizing the residuals statistically:
exponential fit of the bulk, separate top-tail tracking, multi-year
trend regression, and a permutation-tested seasonality statistic.
"""

from .errors import (
    AnalysisError,
    DegenerateDesign,
    DuplicateTimestamp,
    EmptyInput,
    EmptySeries,
    GapTooLong,
    InputError,
    InvalidSpec,
    MalformedRow,
    NonFiniteInput,
    NonPositiveMu,
    RankOutOfRange,
    ShapeMismatch,
    SpotvolError,
    TooFewPermutations,
    TooFewResiduals,
    TooFewTailPoints,
    WrongYearSpan,
)
from .ingest import (
    DayMatrix,
    DstPolicy,
    PriceSeries,
    calendarize,
    days_in_year,
    parse_price_csv,
)
from .lowrank import (
    RankPModel,
    ResidualSeries,
    SpectralDecomposition,
    decompose,
    residual_series,
    truncate,
)
from .pipeline import RunConfig, analyze_trend, analyze_year, assemble_report
from .reports import series_to_long_csv, write_json, write_long_csv
from .residual_stats import (
    ResidualAnalysis,
    analyze_residuals,
    fit_bulk_exponential,
    probplot_points,
    tail_median,
)
from .seasonality import SeasonalityTest, permutation_test
from .synth import (
    SynthSpec,
    constant_amplitude,
    cosine_amplitude,
    daily_sine_profile,
    double_peak_profile,
    flat_modulation,
    flat_profile,
    generate,
    linear_amplitude,
    spec_from_json,
    u_shaped_modulation,
)
from .trend import VolatilityTrend, fit_trend

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "DayMatrix",
    "DegenerateDesign",
    "DstPolicy",
    "DuplicateTimestamp",
    "EmptyInput",
    "EmptySeries",
    "GapTooLong",
    "InputError",
    "InvalidSpec",
    "MalformedRow",
    "NonFiniteInput",
    "NonPositiveMu",
    "PriceSeries",
    "RankOutOfRange",
    "RankPModel",
    "ResidualAnalysis",
    "ResidualSeries",
    "RunConfig",
    "SeasonalityTest",
    "ShapeMismatch",
    "SpectralDecomposition",
    "SpotvolError",
    "SynthSpec",
    "TooFewPermutations",
    "TooFewResiduals",
    "TooFewTailPoints",
    "VolatilityTrend",
    "WrongYearSpan",
    "analyze_residuals",
    "analyze_trend",
    "analyze_year",
    "assemble_report",
    "calendarize",
    "constant_amplitude",
    "cosine_amplitude",
    "daily_sine_profile",
    "days_in_year",
    "decompose",
    "double_peak_profile",
    "fit_bulk_exponential",
    "fit_trend",
    "flat_modulation",
    "flat_profile",
    "generate",
    "linear_amplitude",
    "parse_price_csv",
    "permutation_test",
    "probplot_points",
    "residual_series",
    "series_to_long_csv",
    "spec_from_json",
    "tail_median",
    "truncate",
    "u_shaped_modulation",
    "write_json",
    "write_long_csv",
]
