"""Seasonal concentration of volatility and its permutation test.

Large absolute residuals cluster at the edges of the year (winter).  The
angular-momentum statistic weights each hour's absolute residual by the
squared distance of that hour from midyear; a seeded permutation test
asks whether the observed concentration could arise from an arbitrary
arrangement of the same values.
"""

from __future__ import annotations

import operator
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import AnalysisError, EmptySeries, TooFewPermutations
from .lowrank import ResidualSeries

DEFAULT_PERMUTATIONS = 1000
MIN_PERMUTATIONS = 100
HISTOGRAM_BINS = 30
SEEDING_BLOCK = 256  # draws a thread seeds at once
# numpy's SeedSequence hash constants (a pool of four 32-bit words) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


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
    if not np.isfinite(r).all():
        k = int(np.argmin(np.isfinite(r)))
        raise AnalysisError(f"residual {k} of {r.size} is not finite: {np.ravel(values)[k]}")
    h_m = r.size / 2.0
    x = (np.arange(1, r.size + 1, dtype=float) - h_m) / h_m
    return r, x * x / 1000.0


def _pcg64_states(seed: int, draws: range) -> Iterator[dict]:
    """np.random.PCG64((seed, i)).state for each i in draws, bit for bit and built
    as taken: numpy's SeedSequence hash of seed's 32-bit words (low first) and i's
    on all draws at once, then PCG64's start (inc + s) * MULT + inc (O'Neill 2014)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    const, mult = _INIT_A, _MULT_A

    def hashmix(value: np.ndarray) -> np.ndarray:  # steps the running constant
        nonlocal const
        value, const = value ^ const, const * mult & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = x * 0xCA01F9DD - y * 0x4973F715
        return value ^ value >> 16

    low, high = (np.asarray(draws, np.uint64) >> np.uint64([[0], [32]])).astype(np.uint32)
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(low.shape, w, np.uint32) for w in words] + [low, high]
    pool = [hashmix(word) for word in (entropy + [0 * low])[:4]]  # an absent word hashes as 0
    for src, dst in permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:  # i's high word is entropy only where i >= 2**32
        pool = [np.where(high if word is high else True, mix(p, hashmix(word)), p) for p in pool]
    const, mult = _INIT_B, _MULT_B
    out = [hashmix(p).astype(np.uint64) for p in pool * 2]
    # eight words make four little-endian uint64s: s is (u0, u1) and the sequence (u2, u3)
    u0, u1, u2, u3 = ((out[k + 1] << 32 | out[k]).tolist() for k in (0, 2, 4, 6))
    for s_high, s_low, seq_high, seq_low in zip(u0, u1, u2, u3):
        inc = (seq_high << 65 | seq_low << 1 | 1) & _MASK128
        yield {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((inc + (s_high << 64 | s_low)) * _PCG_MULT + inc) & _MASK128, "inc": inc}}


def usable_cores() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def null_samples(r: np.ndarray, w: np.ndarray, seed: int, n: int) -> np.ndarray:
    """r[default_rng((seed, i)).permutation(r.size)] @ w for i < n, bit for bit.

    Thread k of min(usable_cores(), n) takes the draws k, k + threads, ...;
    numpy's shuffle releases the GIL, and the samples do not depend on the
    thread count.  A thread seeds its draws SEEDING_BLOCK at a time, and a
    call keeps nothing once it returns.  r is not modified.
    """
    samples = np.empty(n)
    threads = min(usable_cores(), n)

    def fill(k: int) -> None:
        # one generator and one buffer per thread.  A draw resets the generator
        # to default_rng((seed, i))'s start and shuffles a fresh copy of r with
        # the same draws that permutation(r.size) shuffles the index vector with
        bits = np.random.PCG64()
        rng = np.random.Generator(bits)
        buf = np.empty_like(r)
        for start in range(k, n, threads * SEEDING_BLOCK):
            block = range(start, min(n, start + threads * SEEDING_BLOCK), threads)
            for i, state in zip(block, _pcg64_states(seed, block)):
                bits.state = state
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
