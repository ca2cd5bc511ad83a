"""Seasonal concentration of volatility and its permutation test.

Large absolute residuals cluster at the edges of the year (winter).  The
angular-momentum statistic weights each hour's absolute residual by the
squared distance of that hour from midyear; a seeded permutation test
asks whether the observed concentration could arise from an arbitrary
arrangement of the same values.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySeries, TooFewPermutations
from .lowrank import ResidualSeries

DEFAULT_PERMUTATIONS = 1000
MIN_PERMUTATIONS = 100
HISTOGRAM_BINS = 30


@dataclass
class SeasonalityTest:
    """Permutation-test outcome for the angular-momentum statistic.

    p_value uses add-one smoothing, (#{L_perm >= L_obs} + 1) / (n + 1),
    so it is never exactly zero.  samples holds the raw permutation
    values; permutation_values summarizes them for reports.
    """

    l_observed: float
    n_permutations: int
    permutation_values: dict
    p_value: float
    seed: int
    samples: np.ndarray = field(repr=False, default=None)


def _edge_weights(n: int) -> np.ndarray:
    """Squared rescaled hour positions x(h)^2 / 1000 for h = 1..n.

    x(h) = (h - h_m)/h_m with h_m = n/2 maps the year onto roughly
    [-1, 1], zero at midyear; the 1/1000 keeps the statistic O(10).
    """
    h = np.arange(1, n + 1, dtype=float)
    h_m = n / 2.0
    x = (h - h_m) / h_m
    return x * x / 1000.0


def angular_momentum(residuals: ResidualSeries | np.ndarray) -> float:
    """Edge-concentration statistic L of the absolute residuals.

    L = (1/1000) * sum_h |R(h)| * x(h)^2 over the full hour grid in
    temporal order (calendar-filled cells carry their interpolated
    values, keeping the midyear pivot h_m = n/2 intact).
    """
    values = residuals.values if isinstance(residuals, ResidualSeries) else residuals
    r = np.abs(np.asarray(values, dtype=float))
    if r.size < 2:
        raise EmptySeries(f"need at least 2 residuals, got {r.size}")
    return float(r @ _edge_weights(r.size))


def usable_cores() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def permutation_test(
    residuals: ResidualSeries | np.ndarray,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
    workers: int | None = None,
) -> SeasonalityTest:
    """One-sided permutation test of seasonal volatility concentration.

    Each permutation shuffles the absolute residuals across hour slots
    with its own deterministic generator derived from (seed, index), so
    the result is independent of execution order.  L is recomputed per
    shuffle and compared against the observed value.  The indices run in
    contiguous chunks on `workers` threads (default: usable_cores());
    numpy's shuffle releases the GIL, and the samples do not depend on
    the thread count.
    """
    if n_permutations < MIN_PERMUTATIONS:
        raise TooFewPermutations(
            f"need at least {MIN_PERMUTATIONS} permutations, got {n_permutations}"
        )
    values = residuals.values if isinstance(residuals, ResidualSeries) else residuals
    r = np.abs(np.asarray(values, dtype=float))
    if r.size < 2:
        raise EmptySeries(f"need at least 2 residuals, got {r.size}")

    workers = usable_cores() if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    w = _edge_weights(r.size)
    l_obs = float(r @ w)
    samples = np.empty(n_permutations)

    def fill(indices: range) -> None:
        # permutation(r) shuffles a copy of r with the same draws that
        # permutation(r.size) shuffles the index vector with
        for i in indices:
            samples[i] = np.random.default_rng((seed, i)).permutation(r) @ w

    chunks = min(workers, n_permutations)
    bounds = [n_permutations * k // chunks for k in range(chunks + 1)]
    with ThreadPoolExecutor(max_workers=chunks) as pool:
        list(pool.map(fill, map(range, bounds[:-1], bounds[1:])))

    exceed = int(np.count_nonzero(samples >= l_obs))
    p_value = (exceed + 1) / (n_permutations + 1)

    counts, edges = np.histogram(samples, bins=HISTOGRAM_BINS)
    summary = {
        "min": float(samples.min()),
        "max": float(samples.max()),
        "mean": float(samples.mean()),
        "histogram": [
            {"bin_left": float(edges[j]), "bin_right": float(edges[j + 1]), "count": int(c)}
            for j, c in enumerate(counts)
        ],
    }
    return SeasonalityTest(
        l_observed=l_obs,
        n_permutations=n_permutations,
        permutation_values=summary,
        p_value=float(p_value),
        seed=seed,
        samples=samples,
    )
