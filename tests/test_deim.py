import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import PROPERTY, random_orthonormal, snapshot_sets
from hamrom.deim import DeimModel, build_deim, deim_select, precompute_weights
from hamrom.pod import PodBasis, compute_pod


def greedy_oracle(psi):
    """Straight-line re-implementation of the greedy selection."""
    n, s = psi.shape
    chosen = [int(np.argmax(np.abs(psi[:, 0])))]
    for ell in range(1, s):
        P = np.zeros((n, ell))
        for j, p in enumerate(chosen):
            P[p, j] = 1.0
        coeff = np.linalg.solve(P.T @ psi[:, :ell], P.T @ psi[:, ell])
        residual = psi[:, ell] - psi[:, :ell] @ coeff
        chosen.append(int(np.argmax(np.abs(residual))))
    return chosen


def dense_projector(model):
    """Explicit projector Psi (P' Psi)^{-1} P' for small-scale checks."""
    n, s = model.psi.shape
    P = np.zeros((n, s))
    P[model.indices, np.arange(s)] = 1.0
    return model.psi @ np.linalg.solve(P.T @ model.psi, P.T)


def interpolate(model, f_at_points):
    """Interpolant Psi (P' Psi)^{-1} f_P through the model's factorization."""
    return model.psi @ scipy.linalg.lu_solve(model.lu, f_at_points)


def model_from(psi, c=None):
    basis = PodBasis(psi, np.ones(psi.shape[1]))
    return build_deim(basis, np.ones(psi.shape[0]) if c is None else c)


def test_single_column_argmax():
    psi = np.array([[0.2], [-0.9], [0.1]])
    assert list(deim_select(psi)) == [1]


def test_canonical_columns():
    psi = np.zeros((10, 2))
    psi[3, 0] = 1.0
    psi[7, 1] = 1.0
    assert list(deim_select(psi)) == [3, 7]


def test_matches_straight_line_oracle(rng):
    for _ in range(10):
        psi = random_orthonormal(rng, 12, 3)
        assert list(deim_select(psi)) == greedy_oracle(psi)


def test_selection_deterministic(rng):
    psi = random_orthonormal(rng, 30, 6)
    first = deim_select(psi.copy())
    second = deim_select(psi.copy())
    assert first.tobytes() == second.tobytes()


def largest_basis(snapshots):
    return compute_pod(snapshots, min(snapshots.n, snapshots.count))


@PROPERTY
@given(snapshot_sets())
def test_greedy_selection_is_prefix_stable(snapshots):
    psi = largest_basis(snapshots).phi
    indices = deim_select(psi)
    for s in range(1, psi.shape[1] + 1):
        assert deim_select(psi[:, :s]).tolist() == indices[:s].tolist()


@PROPERTY
@given(snapshot_sets(), st.integers(0, 2**32 - 1))
def test_truncated_model_is_the_smaller_model_bitwise(snapshots, seed):
    # offline builds one model per shift flag and truncates it for every rank
    basis = largest_basis(snapshots)
    c = np.random.default_rng(seed).standard_normal(basis.n)
    largest = build_deim(basis, c)
    for s in range(1, basis.r + 1):
        cut, direct = largest.truncated(s), build_deim(basis.truncated(s), c)
        assert cut.psi.flags.c_contiguous and cut.psi.tobytes() == direct.psi.tobytes()
        assert cut.indices.tobytes() == direct.indices.tobytes()
        assert cut.weights.tobytes() == direct.weights.tobytes()
        assert cut.cond == direct.cond
        assert cut.shifted == direct.shifted == (snapshots.shift_ref is not None)
        if cut.shifted:
            assert cut.shift_ref.tobytes() == direct.shift_ref.tobytes()
    for s in (0, basis.r + 1):
        with pytest.raises(ValueError):
            largest.truncated(s)


def test_singular_interpolation_matrix_names_step():
    psi = np.zeros((6, 3))
    psi[2, 0] = 1.0
    psi[2, 1] = 1.0  # same leading row: singular 2x2 sampled system at step 2
    psi[4, 2] = 1.0
    with pytest.raises(np.linalg.LinAlgError, match="step 2"):
        deim_select(psi)


def test_apply_reproduces_span(rng):
    psi = random_orthonormal(rng, 15, 4)
    model = model_from(psi)
    f = psi @ rng.standard_normal(4)  # in the span
    out = interpolate(model, f[model.indices])
    assert np.max(np.abs(out - f)) <= 1e-10


def test_apply_interpolates_at_indices(rng):
    model = model_from(random_orthonormal(rng, 15, 4))
    f = rng.standard_normal(15)
    out = interpolate(model, f[model.indices])
    assert np.max(np.abs(out[model.indices] - f[model.indices])) <= 1e-10


def test_apply_equals_dense_projector(rng):
    model = model_from(random_orthonormal(rng, 12, 5))
    proj = dense_projector(model)
    f = rng.standard_normal(12)
    assert_allclose(interpolate(model, f[model.indices]), proj @ f, atol=1e-11)


def test_exactness_on_every_basis_column(rng):
    psi = random_orthonormal(rng, 20, 6)
    model = model_from(psi)
    for j in range(6):
        out = interpolate(model, psi[model.indices, j])
        assert np.max(np.abs(out - psi[:, j])) <= 1e-10


def test_projector_idempotent(rng):
    proj = dense_projector(model_from(random_orthonormal(rng, 14, 4)))
    assert np.max(np.abs(proj @ proj - proj)) <= 1e-10


def test_weights_canonical_column():
    psi = np.zeros((9, 1))
    psi[4, 0] = 1.0
    model = model_from(psi)
    assert_allclose(model.weights, [1.0])
    scatter = np.zeros(9)
    scatter[model.indices] = model.weights
    expected = np.zeros(9)
    expected[4] = 1.0
    assert_allclose(scatter, expected)


def test_weights_zero_vector(rng):
    model = model_from(random_orthonormal(rng, 10, 3))
    assert_allclose(precompute_weights(model, np.zeros(10)), np.zeros(3))


def test_weights_match_dense_projector_transpose(rng):
    c = rng.standard_normal(15)
    model = model_from(random_orthonormal(rng, 15, 4), c=c)
    scatter = np.zeros(15)
    scatter[model.indices] = model.weights
    assert_allclose(scatter, dense_projector(model).T @ c, atol=1e-12)


def test_distinct_index_validation(rng):
    psi = random_orthonormal(rng, 8, 2)
    with pytest.raises(ValueError):
        DeimModel(psi, [3, 3], np.ones(8))


def test_shift_reference_carried_from_basis(rng):
    ref = rng.standard_normal(10)
    basis = PodBasis(random_orthonormal(rng, 10, 3), np.ones(3), shift_ref=ref)
    model = build_deim(basis, np.ones(10))
    assert model.shifted
    assert np.all(model.shift_ref == ref)
    assert model.cond >= 1.0
