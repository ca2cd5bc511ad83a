"""Seasonal concentration of volatility and its permutation test.

Large absolute residuals cluster at the edges of the year (winter).  The
angular-momentum statistic weights each hour's absolute residual by the
squared distance of that hour from midyear; a seeded permutation test
asks whether the observed concentration could arise from an arbitrary
arrangement of the same values.
"""

from __future__ import annotations

import functools
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


def _abs_and_weights(residuals: ResidualSeries | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|R(h)| in temporal order and the edge weights x(h)^2 / 1000, h = 1..n.

    x(h) = (h - h_m)/h_m with h_m = n/2 maps the year onto roughly
    [-1, 1], zero at midyear; the 1/1000 keeps the statistic O(10).
    """
    values = residuals.values if isinstance(residuals, ResidualSeries) else residuals
    r = np.abs(np.asarray(values, dtype=float))
    if r.size < 2:
        raise EmptySeries(f"need at least 2 residuals, got {r.size}")
    h_m = r.size / 2.0
    x = (np.arange(1, r.size + 1, dtype=float) - h_m) / h_m
    return r, x * x / 1000.0


@functools.lru_cache(maxsize=2)
def _seeded_states(seed: int, n_permutations: int) -> tuple[dict, ...]:
    """PCG64((seed, i)).state, the state default_rng((seed, i)) starts from,
    for each draw i.  Hashing (seed, i) is most of the GIL-held work of a
    draw, and the years of a run share one (seed, n_permutations); a key
    holds ~460 bytes a draw.  The dicts are only read."""
    return tuple(np.random.PCG64((seed, i)).state for i in range(n_permutations))


def usable_cores() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def null_samples(r: np.ndarray, w: np.ndarray, seed: int, n: int) -> np.ndarray:
    """r[default_rng((seed, i)).permutation(r.size)] @ w for i < n, bit for bit.

    Thread k of min(usable_cores(), n) takes the draws k, k + threads, ...;
    numpy's shuffle releases the GIL, and the samples do not depend on the
    thread count.  Each draw's seeded starting state is computed once per
    (seed, n) in a process and reused.  r is not modified.
    """
    samples = np.empty(n)
    states = _seeded_states(seed, n)
    threads = min(usable_cores(), n)

    def fill(k: int) -> None:
        # one generator and one buffer per thread.  A draw resets the generator
        # to default_rng((seed, i))'s start and shuffles a fresh copy of r with
        # the same draws that permutation(r.size) shuffles the index vector with
        bits = np.random.PCG64()
        rng = np.random.Generator(bits)
        buf = np.empty_like(r)
        for i in range(k, n, threads):
            bits.state = states[i]
            buf[...] = r
            rng.shuffle(buf)
            samples[i] = buf @ w

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fill, range(threads)))
    return samples


def permutation_test(
    residuals: ResidualSeries | np.ndarray,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> SeasonalityTest:
    """One-sided permutation test of seasonal volatility concentration.

    L = (1/1000) * sum_h |R(h)| * x(h)^2 over the full hour grid in
    temporal order (calendar-filled cells carry their interpolated
    values, keeping the midyear pivot h_m = n/2 intact).  Permutation i
    shuffles the absolute residuals across hour slots with
    default_rng((seed, i)) on one of usable_cores() threads (see
    null_samples), so the result is independent of execution order and
    of the core count.
    """
    if n_permutations < MIN_PERMUTATIONS:
        raise TooFewPermutations(
            f"need at least {MIN_PERMUTATIONS} permutations, got {n_permutations}"
        )
    r, w = _abs_and_weights(residuals)
    l_obs = float(r @ w)
    samples = null_samples(r, w, seed, n_permutations)
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
