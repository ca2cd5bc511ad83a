"""SVD decomposition, truncation optimality, residual extraction."""

import numpy as np
import pytest
from scipy import linalg

import spotvol as sv
from spotvol import NonFiniteInput, RankOutOfRange, ShapeMismatch
from spotvol.reports import write_spectrum_csv
from conftest import rank2_spec


def test_rank_one_matrix():
    u = np.abs(np.random.default_rng(0).normal(size=24)) + 0.1
    v = np.abs(np.random.default_rng(1).normal(size=30)) + 0.1
    dec = sv.decompose(np.outer(u, v))
    assert dec.singular_values[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
    assert np.all(dec.singular_values[1:] < 1e-10 * dec.singular_values[0])


def test_identity_grid_unit_singular_values():
    dec = sv.decompose(np.eye(3))
    assert np.allclose(dec.singular_values, 1.0)


def test_singular_values_match_eigensolver():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(24, 366))
    dec = sv.decompose(a)
    eigvals = linalg.eigh(a.T @ a, eigvals_only=True)[::-1][:24]
    reference = np.sqrt(np.clip(eigvals, 0, None))
    assert np.max(np.abs(dec.singular_values - reference) / reference[0]) < 1e-8


def test_orthonormality_and_reconstruction():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(24, 100)) * 10 + 30
    dec = sv.decompose(a)
    r = dec.rank
    assert np.max(np.abs(dec.u_columns.T @ dec.u_columns - np.eye(r))) < 1e-10
    assert np.max(np.abs(dec.v_columns.T @ dec.v_columns - np.eye(r))) < 1e-10
    recon = dec.reconstruct()
    assert np.linalg.norm(a - recon) / np.linalg.norm(a) < 1e-10


def test_sign_convention_nonnegative_profile_means():
    rng = np.random.default_rng(4)
    for trial in range(5):
        dec = sv.decompose(rng.normal(size=(24, 50)))
        assert np.all(dec.u_columns.mean(axis=0) >= 0)


def test_sign_convention_does_not_change_product():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(24, 40))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    plain = (u[:, :2] * s[:2]) @ vt[:2]
    model = sv.truncate(sv.decompose(a), 2)
    assert np.allclose(model.approximation, plain, atol=1e-12)


def test_truncate_full_rank_is_exact():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(24, 40))
    dec = sv.decompose(a)
    model = sv.truncate(dec, dec.rank)
    assert model.frobenius_error == 0.0
    assert np.allclose(model.approximation, a, atol=1e-10)
    assert dec.singular_values[model.p:].size == 0
    assert model.profiles.shape == (24, dec.rank) and model.amplitudes.shape == (40, dec.rank)
    assert np.shares_memory(model.profiles, dec.u_columns)
    assert np.shares_memory(model.amplitudes, dec.v_columns)


def test_truncate_rank_out_of_range():
    dec = sv.decompose(np.random.default_rng(7).normal(size=(24, 40)))
    for p in (0, -1, 25):
        with pytest.raises(RankOutOfRange):
            sv.truncate(dec, p)


def test_eckart_young_identity():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(24, 366))
    dec = sv.decompose(a)
    for p in (1, 2, 5):
        model = sv.truncate(dec, p)
        direct = np.linalg.norm(a - model.approximation)
        tail = np.sqrt(np.sum(dec.singular_values[p:] ** 2))
        assert abs(model.frobenius_error - tail) <= 1e-12 * tail
        assert abs(direct - model.frobenius_error) <= 1e-9 * max(direct, 1.0)


def test_rank_one_beats_random_competitors():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 7))
    best = sv.truncate(sv.decompose(a), 1).frobenius_error
    for _ in range(200):
        u = rng.normal(size=5)
        v = rng.normal(size=7)
        scale = (u @ a @ v) / ((u @ u) * (v @ v))
        assert np.linalg.norm(a - scale * np.outer(u, v)) >= best - 1e-12


def test_residuals_zero_at_full_rank():
    series = sv.generate(rank2_spec(seed=1))
    matrix = sv.calendarize(series)
    dec = sv.decompose(matrix)
    resid = sv.residual_series(matrix, sv.truncate(dec, dec.rank))
    assert np.max(np.abs(resid.values)) < 1e-9


def test_single_cell_perturbation_is_contracted():
    # a rank-2 grid plus +10 in one cell: projection keeps the residual bounded
    rng = np.random.default_rng(10)
    base = np.outer(rng.normal(size=24), rng.normal(size=40)) + np.outer(
        rng.normal(size=24), rng.normal(size=40)
    )
    bumped = base.copy()
    bumped[5, 7] += 10.0
    model = sv.truncate(sv.decompose(bumped), 2)
    resid = bumped - model.approximation
    assert np.max(np.abs(resid)) <= 10.0 + 1e-9
    assert np.sum(resid**2) <= 100.0 + 1e-9


def test_residual_series_alignment_and_mask():
    series = sv.generate(rank2_spec(seed=2))
    matrix = sv.calendarize(series)
    matrix.imputed[3, 10] = True
    model = sv.truncate(sv.decompose(matrix), 2)
    resid = sv.residual_series(matrix, model)
    assert len(resid) == 8784
    flat_index = 10 * 24 + 3
    assert resid.imputed[flat_index]
    expected = matrix.values[3, 10] - model.approximation[3, 10]
    assert resid.values[flat_index] == expected


def test_residual_series_of_a_plain_grid_has_no_imputed_cells():
    matrix = sv.calendarize(sv.generate(rank2_spec(seed=2)))
    matrix.imputed[3, 10] = True
    model = sv.truncate(sv.decompose(matrix), 2)
    from_grid = sv.residual_series(matrix.values, model)
    assert np.array_equal(from_grid.values, sv.residual_series(matrix, model).values)
    assert from_grid.imputed.shape == (8784,) and not from_grid.imputed.any()


def test_residual_series_shape_mismatch():
    series = sv.generate(rank2_spec(seed=3))
    matrix = sv.calendarize(series)
    other = sv.truncate(sv.decompose(np.random.default_rng(0).normal(size=(24, 100))), 2)
    with pytest.raises(ShapeMismatch):
        sv.residual_series(matrix, other)


def test_column_permutation_equivariance():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(24, 60))
    perm = rng.permutation(60)
    ap = sv.truncate(sv.decompose(a), 3).approximation
    app = sv.truncate(sv.decompose(a[:, perm]), 3).approximation
    assert np.allclose(ap[:, perm], app, atol=1e-9)


def test_non_finite_cells_reported():
    a = np.ones((24, 10))
    a[4, 2] = np.nan
    a[7, 9] = np.inf
    with pytest.raises(NonFiniteInput) as info:
        sv.decompose(a)
    assert (4, 2) in info.value.cells and (7, 9) in info.value.cells


@pytest.mark.parametrize("value", [1e200, np.finfo(float).max])
def test_finite_cells_whose_energy_overflows_rejected(value):
    # pyproject turns warnings into errors, so this also checks none is printed
    a = np.ones((24, 10))
    a[4:6, 2] = value
    with pytest.raises(sv.AnalysisError, match="squared Frobenius norm overflows a float"):
        sv.decompose(a)


def test_spectrum_report_rows(tmp_path):
    rank1 = np.outer(np.arange(1.0, 25.0), np.ones(30))
    a, b = sv.decompose(rank1), sv.decompose(rank1)
    path = tmp_path / "spectrum.csv"
    # out of year order; 2015 holds the decomposition's arrays, 2014 the
    # float lists a year report holds
    write_spectrum_csv(path, [
        {"year": 2015, "spectrum": {"sigma": a.singular_values,
                                    "sigma_normalized": a.sigma_normalized}},
        {"year": 2014, "spectrum": {"sigma": b.singular_values.tolist(),
                                    "sigma_normalized": b.sigma_normalized.tolist()}},
    ])
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert header == "year,k,sigma,sigma_normalized"
    rows = [line.split(",") for line in lines]
    assert [r[0] for r in rows[:2]] == ["2014", "2014"]
    first = [r[1:] for r in rows if r[0] == "2014"]
    assert [int(k) for k, _, _ in first] == list(range(1, 25))
    assert first[0][2] == "1.0"
    assert all(float(sn) < 1e-12 for _, _, sn in first[1:])
    # identical input years produce identical rows
    assert [r[1:] for r in rows if r[0] == "2015"] == first


def test_energy_fraction_monotone():
    dec = sv.decompose(np.random.default_rng(12).normal(size=(24, 80)))
    fracs = [dec.energy_fraction(p) for p in range(1, dec.rank + 1)]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: sv.ResidualSeries(values=np.zeros(5), imputed=np.zeros(4, bool)),
                 "values and imputed mask differ in length", id="mask-length"),
    pytest.param(lambda: sv.decompose(np.zeros(24)), "expected a 2-d matrix, got 1-d", id="1-d"),
    pytest.param(lambda: sv.decompose(np.zeros((0, 5))), "degenerate matrix shape (0, 5)",
                 id="0x5"),
])
def test_shape_mismatch_names_the_shape(call, message):
    with pytest.raises(ShapeMismatch) as info:
        call()
    assert str(info.value) == message


def test_zero_grid_spectrum():
    dec = sv.decompose(np.zeros((24, 10)))
    assert np.array_equal(dec.sigma_normalized, np.zeros(10))
    assert dec.energy_fraction(1) == 1.0
