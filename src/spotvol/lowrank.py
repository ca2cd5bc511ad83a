"""Low-rank seasonal structure of hour-by-day price matrices.

A year of hourly prices arranged as a 24 x D matrix A is factored with a
singular value decomposition A = U S V^T.  Truncating to the leading p
components gives the best rank-p approximation in the Frobenius norm; the
left singular vectors are daily price profiles over the 24 hours, the
right singular vectors their day-to-day amplitudes.  Subtracting the
rank-p part deseasonalizes the year and leaves residual fluctuations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, RankOutOfRange, ShapeMismatch
from .ingest import DayMatrix


@dataclass
class SpectralDecomposition:
    """Full SVD of an H x D matrix with a fixed sign convention.

    u_columns holds the H-dimensional hourly profiles, v_columns the
    D-dimensional day amplitudes, both orthonormal.  Each profile is
    oriented so its entrywise mean is nonnegative (the flip absorbed into
    the matching amplitude column), making profiles comparable across
    years.
    """

    u_columns: np.ndarray
    singular_values: np.ndarray
    v_columns: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.singular_values)

    @property
    def sigma_normalized(self) -> np.ndarray:
        lead = self.singular_values[0]
        if lead == 0.0:
            return np.zeros_like(self.singular_values)
        return self.singular_values / lead

    def energy_fraction(self, p: int) -> float:
        """Fraction of squared Frobenius norm captured by the leading p components."""
        total = float(np.sum(self.singular_values**2))
        if total == 0.0:
            return 1.0
        return float(np.sum(self.singular_values[:p] ** 2) / total)

    def reconstruct(self, p: int | None = None) -> np.ndarray:
        p = self.rank if p is None else p
        return (self.u_columns[:, :p] * self.singular_values[:p]) @ self.v_columns[:, :p].T


@dataclass
class RankPModel:
    """Best rank-p approximation of one year matrix (Eckart-Young optimal).

    frobenius_error is the Frobenius distance to the original matrix and
    equals sqrt(sum of squared discarded singular values).  profiles and
    amplitudes are views of the decomposition's leading p columns.
    """

    p: int
    approximation: np.ndarray
    frobenius_error: float
    profiles: np.ndarray
    amplitudes: np.ndarray
    energy_fraction: float


@dataclass
class ResidualSeries:
    """Deseasonalized hourly residuals in temporal order for one year.

    Signed values; the statistics downstream work on their absolute
    values.  ``imputed`` marks cells that were calendar-filled rather than
    observed so they can be excluded from distribution fits.
    """

    values: np.ndarray
    imputed: np.ndarray
    year: int | None = None
    p: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.imputed = np.asarray(self.imputed, dtype=bool)
        if self.values.shape != self.imputed.shape:
            raise ShapeMismatch("values and imputed mask differ in length")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def observed_abs(self) -> np.ndarray:
        return np.abs(self.values[~self.imputed])


def _as_grid(matrix) -> np.ndarray:
    a = matrix.values if isinstance(matrix, DayMatrix) else np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got {a.ndim}-d")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeMismatch(f"degenerate matrix shape {a.shape}")
    return a


def decompose(matrix: DayMatrix | np.ndarray) -> SpectralDecomposition:
    """Full SVD of the value grid, singular values in descending order.

    Raises NonFiniteInput listing the offending cells if the grid holds
    NaN or infinities (missing cells must be imputed before this point).
    """
    a = _as_grid(matrix)
    if not np.all(np.isfinite(a)):
        bad = np.argwhere(~np.isfinite(a))
        raise NonFiniteInput([(int(i), int(j)) for i, j in bad])

    u, s, vt = np.linalg.svd(a, full_matrices=False)
    flip = u.mean(axis=0) < 0
    u[:, flip] *= -1.0
    vt[flip, :] *= -1.0
    return SpectralDecomposition(u_columns=u, singular_values=s, v_columns=vt.T)


def truncate(decomposition: SpectralDecomposition, p: int) -> RankPModel:
    """Keep the leading p components: the best rank-p approximation.

    Raises RankOutOfRange unless 1 <= p <= full rank.
    """
    r = decomposition.rank
    if not (1 <= p <= r):
        raise RankOutOfRange(f"truncation rank must be in [1, {r}], got {p}")
    return RankPModel(
        p=p,
        approximation=decomposition.reconstruct(p),
        frobenius_error=float(np.sqrt(np.sum(decomposition.singular_values[p:] ** 2))),
        profiles=decomposition.u_columns[:, :p],
        amplitudes=decomposition.v_columns[:, :p],
        energy_fraction=decomposition.energy_fraction(p),
    )


def residual_series(matrix: DayMatrix, model: RankPModel) -> ResidualSeries:
    """Signed residuals A - A_p flattened to temporal hour order.

    The imputed mask rides along so later statistics can skip filled
    cells.
    """
    a = _as_grid(matrix)
    if model.approximation.shape != a.shape:
        raise ShapeMismatch(
            f"approximation shape {model.approximation.shape} does not match matrix {a.shape}"
        )
    return ResidualSeries(
        values=(a - model.approximation).ravel(order="F").copy(),
        imputed=matrix.imputed.ravel(order="F").copy(),
        year=matrix.year,
        p=model.p,
    )


def spectrum_report(spectra: dict[int, tuple]) -> list[dict]:
    """Year-by-component spectrum table, raw and normalized by sigma_1.

    spectra maps each year to its (sigma, sigma_normalized) sequences,
    e.g. a SpectralDecomposition's singular_values and sigma_normalized,
    or the lists in a year report.  Rows are dicts with keys year, k
    (1-based), sigma, sigma_normalized, ordered by year then k; ready for
    CSV export.
    """
    return [
        {"year": int(year), "k": k, "sigma": float(s), "sigma_normalized": float(sn)}
        for year in sorted(spectra)
        for k, (s, sn) in enumerate(zip(*spectra[year]), start=1)
    ]
