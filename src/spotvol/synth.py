"""Synthetic hourly price generator with known ground truth.

Builds a year of prices as a low-rank signal (daily profiles times
day-amplitude curves) plus two-sided exponential noise, optionally with a
seasonal volatility modulation.  Because every ingredient is known, the
output serves as an oracle for the estimators: the noiseless part has
exactly the requested rank and the absolute residual law is exponential
by construction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from datetime import date
from typing import Callable

import numpy as np

from .errors import InvalidSpec
from .ingest import PriceSeries, days_in_year
from .zones import epoch_hour

Amplitude = Callable[[np.ndarray], np.ndarray]
Modulation = Callable[[np.ndarray], np.ndarray]


def constant_amplitude(level: float) -> Amplitude:
    return lambda d: np.full_like(d, float(level), dtype=float)


def linear_amplitude(start: float, end: float) -> Amplitude:
    def f(d: np.ndarray) -> np.ndarray:
        span = max(len(d) - 1, 1)
        return start + (end - start) * (d - d[0]) / span

    return f


def cosine_amplitude(
    mean: float, amplitude: float, period_days: float, phase_days: float = 0.0
) -> Amplitude:
    def f(d: np.ndarray) -> np.ndarray:
        return mean + amplitude * np.cos(2.0 * np.pi * (d - phase_days) / period_days)

    return f


def flat_modulation() -> Modulation:
    return lambda d: np.ones_like(d, dtype=float)


def u_shaped_modulation(beta: float) -> Modulation:
    """1 + beta * x(d)^2 with x(d) = (d - D/2)/(D/2): high at year edges."""

    def f(d: np.ndarray) -> np.ndarray:
        d_m = len(d) / 2.0
        x = (d - d_m) / d_m
        return 1.0 + beta * x * x

    return f


def flat_profile() -> np.ndarray:
    return np.ones(24)


def double_peak_profile() -> np.ndarray:
    """Base daily price shape with morning and late-afternoon peaks."""
    h = np.arange(24, dtype=float)
    morning = 8.0 * np.exp(-0.5 * ((h - 8.0) / 2.0) ** 2)
    evening = 10.0 * np.exp(-0.5 * ((h - 19.0) / 2.5) ** 2)
    return 30.0 + morning + evening


def daily_sine_profile() -> np.ndarray:
    h = np.arange(24, dtype=float)
    return np.sin(2.0 * np.pi * h / 24.0)


PROFILE_PRESETS = {
    "flat": flat_profile,
    "double_peak": double_peak_profile,
    "daily_sine": daily_sine_profile,
}
AMPLITUDE_KINDS = {
    "constant": constant_amplitude, "linear": linear_amplitude, "cosine": cosine_amplitude,
}
MODULATION_KINDS = {"flat": flat_modulation, "u_shaped": u_shaped_modulation}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class SynthSpec:
    """Recipe for one synthetic year.

    profiles pairs a 24-vector hourly shape with a day-amplitude function
    (called on the 1-based day-index array); their outer-product sum is
    the noiseless signal, of rank len(profiles) when the pairs are
    independent.  residual_mu scales the exponential noise magnitudes,
    seasonal_modulation multiplies that scale per day, and sign_mix is
    the probability of a negative noise sign.
    """

    year: int
    profiles: list[tuple[np.ndarray, Amplitude]]
    residual_mu: float
    seasonal_modulation: Modulation = field(default_factory=flat_modulation)
    sign_mix: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("year", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidSpec(f"{name}: must be an integer, got {value!r}")
        for name in ("residual_mu", "sign_mix"):
            value = getattr(self, name)
            if not _is_number(value):
                raise InvalidSpec(f"{name}: must be a number, got {value!r}")
            try:
                setattr(self, name, float(value))
            except OverflowError as exc:
                raise InvalidSpec(f"{name}: {exc}") from exc
        if not self.profiles:
            raise InvalidSpec("profiles must be nonempty")
        checked = []
        for i, (hourly, amp) in enumerate(self.profiles):
            vec = np.asarray(hourly, dtype=float)
            if vec.shape != (24,):
                raise InvalidSpec(f"profile {i}: hourly vector must have 24 entries")
            if not np.all(np.isfinite(vec)):
                raise InvalidSpec(f"profile {i}: hourly vector must be finite")
            if not callable(amp):
                raise InvalidSpec(f"profile {i}: amplitude must be callable")
            checked.append((vec, amp))
        self.profiles = checked
        if not (np.isfinite(self.residual_mu) and self.residual_mu >= 0):
            raise InvalidSpec(f"residual_mu must be finite and >= 0, got {self.residual_mu}")
        if not (0.0 <= self.sign_mix <= 1.0):
            raise InvalidSpec(f"sign_mix must lie in [0, 1], got {self.sign_mix}")
        if not (1 <= self.year <= 9999):
            raise InvalidSpec(f"year out of range: {self.year}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")


@np.errstate(all="ignore")  # a non-finite value is an InvalidSpec below, not a warning
def generate(spec: SynthSpec) -> PriceSeries:
    """Generate the hourly PriceSeries a spec describes.

    Deterministic per seed.  Timestamps are hourly UTC (no DST), so the
    noiseless signal calendarizes to an exactly rank-len(profiles)
    matrix.  InvalidSpec if an amplitude, the modulation, the noise or a
    price is not finite.
    """
    n_days = days_in_year(spec.year)
    d = np.arange(1, n_days + 1, dtype=float)

    signal = np.zeros((24, n_days))
    for i, (hourly, amp) in enumerate(spec.profiles):
        values = np.asarray(amp(d), dtype=float)
        if values.shape != d.shape:
            raise InvalidSpec(f"amplitude function returned shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise InvalidSpec(f"profile {i}: amplitude must be finite")
        signal += np.outer(hourly, values)

    mod = np.asarray(spec.seasonal_modulation(d), dtype=float)
    if mod.shape != d.shape:
        raise InvalidSpec(f"modulation function returned shape {mod.shape}")
    if not np.all(np.isfinite(mod)) or np.any(mod < 0):
        raise InvalidSpec("modulation must be finite and nonnegative")

    rng = np.random.default_rng(spec.seed)
    scale = spec.residual_mu * np.broadcast_to(mod, (24, n_days))
    magnitudes = rng.exponential(scale)
    if not np.all(np.isfinite(magnitudes)):
        raise InvalidSpec(f"residual_mu {spec.residual_mu} gives non-finite noise")
    signs = np.where(rng.random((24, n_days)) < spec.sign_mix, -1.0, 1.0)
    values = signal + signs * magnitudes
    if not np.all(np.isfinite(values)):
        raise InvalidSpec("profiles and noise sum to non-finite prices")

    n = 24 * n_days
    return PriceSeries(
        utc_hours=epoch_hour(date(spec.year, 1, 1)) + np.arange(n),
        values=values.ravel(order="F"),
        observed=np.ones(n, dtype=bool),
        market_label=f"synthetic-{spec.year}",
        year=spec.year,
        zone="UTC",
    )


# --- JSON spec form ---------------------------------------------------------


def _from_json(kinds: dict, doc, where: str):
    """Call the factory a kind object names, {"kind": name, **params}, with
    its other keys, each a number, as float keyword arguments."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise InvalidSpec(f"{where}: need a kind among {sorted(kinds)}, got {doc!r}")
    params = {k: v for k, v in doc.items() if k != "kind"}
    for k, v in params.items():
        if not _is_number(v):
            raise InvalidSpec(f"{where} {k}: must be a number, got {v!r}")
    try:
        return kinds[kind](**{k: float(v) for k, v in params.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"{where}: bad {kind} parameters: {exc}") from exc


def _hourly_from_json(value, where: str) -> np.ndarray:
    if isinstance(value, str):
        preset = PROFILE_PRESETS.get(value)
        if preset is None:
            raise InvalidSpec(f"{where}: unknown profile preset {value!r}")
        return preset()
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"{where}: hourly must be a preset name or a list of numbers") from exc


_SCALARS = ("year", "seed", "residual_mu", "sign_mix")


def spec_from_json(doc: dict) -> SynthSpec:
    """Build a SynthSpec from its JSON document form.

    Shape:
        {"year": 2016, "residual_mu": 3.0, "seed": 0, "sign_mix": 0.5,
         "profiles": [{"hourly": "double_peak" | [24 numbers],
                       "amplitude": {"kind": "constant", "level": 1.0}}, ...],
         "seasonal_modulation": {"kind": "flat"} | {"kind": "u_shaped", "beta": 2.0}}

    A kind object's parameters are its factory's keyword arguments (see
    AMPLITUDE_KINDS, MODULATION_KINDS); SynthSpec and generate check values.
    """
    if not isinstance(doc, dict):
        raise InvalidSpec("spec document must be a JSON object")
    unknown = set(doc) - {*_SCALARS, "profiles", "seasonal_modulation"}
    if unknown:
        raise InvalidSpec(f"unknown spec fields: {sorted(unknown)}")
    for name in ("year", "profiles", "residual_mu"):
        if name not in doc:
            raise InvalidSpec(f"spec field {name!r} is required")
    if not isinstance(doc["profiles"], list):
        raise InvalidSpec("profiles must be a list")

    profiles = []
    for i, item in enumerate(doc["profiles"]):
        if not isinstance(item, dict) or "hourly" not in item or "amplitude" not in item:
            raise InvalidSpec(f"profile {i}: need 'hourly' and 'amplitude'")
        hourly = _hourly_from_json(item["hourly"], f"profile {i}")
        amp = _from_json(AMPLITUDE_KINDS, item["amplitude"], f"profile {i} amplitude")
        profiles.append((hourly, amp))

    # SynthSpec checks that year and seed are integers, residual_mu and
    # sign_mix numbers
    fields = {"profiles": profiles, **{k: doc[k] for k in _SCALARS if k in doc}}
    if "seasonal_modulation" in doc:
        fields["seasonal_modulation"] = _from_json(
            MODULATION_KINDS, doc["seasonal_modulation"], "seasonal_modulation"
        )
    return SynthSpec(**fields)
