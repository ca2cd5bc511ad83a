"""Daily price profiles live in a low-dimensional space.

Stack one year of hourly prices as a 24 x D matrix (one column per day)
and the singular value decomposition separates repeating intra-day shape
from day-to-day variation.  This script builds a synthetic year with two
planted shape components plus exponential noise, then shows how the
spectrum exposes that structure.
"""

import numpy as np

import spotvol as sv


def main():
    spec = sv.SynthSpec(
        year=2016,
        profiles=[
            (sv.double_peak_profile(), sv.cosine_amplitude(1.0, 0.15, 366.0)),
            (sv.daily_sine_profile(), sv.cosine_amplitude(0.0, 6.0, 7.0)),
        ],
        residual_mu=3.0,
        seed=42,
    )
    series = sv.generate(spec)
    matrix = sv.calendarize(series)
    dec = sv.decompose(matrix)

    print(f"matrix: 24 x {matrix.values.shape[1]} ({matrix.year})")
    print("\nleading singular values (normalized to sigma_1):")
    for k in range(6):
        bar = "#" * int(50 * dec.sigma_normalized[k])
        print(f"  sigma_{k + 1}: {dec.singular_values[k]:10.2f}  {bar}")

    # Two planted components, so the spectrum should cliff after k = 2.
    for p in (1, 2, 3):
        print(f"energy captured by rank {p}: {dec.energy_fraction(p):.4%}")

    model = sv.truncate(dec, 2)
    print(f"\nrank-2 frobenius error: {model.frobenius_error:.2f}")
    print("first hourly profile (u_1), peak hours stand out:")
    profile = model.profiles[:, 0]
    for hour in range(24):
        bar = "#" * int(60 * profile[hour] / profile.max())
        print(f"  h={hour:02d} {profile[hour]:+.4f} {bar}")

    amp = model.amplitudes[:, 0]
    print(f"\nday amplitude of component 1: min {amp.min():.4f}, max {amp.max():.4f}")
    print("the slow cosine planted over the year is visible in v_1")


if __name__ == "__main__":
    main()
