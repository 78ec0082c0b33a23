import struct

import numpy as np
import pytest
from hypothesis import given
from numpy.testing import assert_allclose

from conftest import PROPERTY, snapshot_sets
from hamrom._binio import FileFormatError
from hamrom.pod import (
    PodBasis,
    RankDeficientError,
    captured_energy,
    compute_pod,
    load_basis,
    save_basis,
)
from hamrom.rom import RomVariant, build_rom
from hamrom.snapshots import SnapshotSet
from hamrom.wave import WaveConfig, assemble_wave_fom


def make_set(columns, shift_ref=None):
    m = columns.shape[1]
    return SnapshotSet(columns, np.arange(m), "state-u", shift_ref=shift_ref)


def block_model(basis):
    """sp-pod model with `basis` for both blocks, so its first block
    projects and reconstructs through the basis and its shift reference."""
    variant = RomVariant("sp-pod", basis.shifted)
    return build_rom(variant, basis, basis, assemble_wave_fom(WaveConfig(n=basis.n)))


def project(basis, u):
    """Coefficients phi^T (u - shift_ref), through `initial_coefficients`."""
    u = np.asarray(u, dtype=float)
    return block_model(basis).initial_coefficients(np.concatenate([u, u]))[: basis.r]


def reconstruct(basis, a):
    """phi a + shift_ref, through the model's u-block basis and reference."""
    model = block_model(basis)
    return model.phi_u @ a + model.u_ref


def test_rank_one_repeated_column(rng):
    w = rng.standard_normal(6)
    basis = compute_pod(make_set(np.tile(w[:, None], 5)), 1)
    direction = w / np.linalg.norm(w)
    if direction[np.argmax(np.abs(direction))] < 0:
        direction = -direction
    assert_allclose(basis.phi[:, 0], direction, atol=1e-12)
    assert_allclose(basis.singular_values[0], np.sqrt(5) * np.linalg.norm(w), rtol=1e-12)
    assert np.all(basis.singular_values[1:] <= 1e-12 * basis.singular_values[0])


def test_full_rank_square_reconstruction(rng):
    cols = rng.standard_normal((7, 7)) + 3 * np.eye(7)
    basis = compute_pod(make_set(cols), 7)
    assert np.max(np.abs(basis.phi.T @ basis.phi - np.eye(7))) <= 1e-10
    assert np.max(np.abs(basis.phi @ (basis.phi.T @ cols) - cols)) <= 1e-10


def test_projection_error_equals_tail_energy(rng):
    cols = rng.standard_normal((20, 12))
    basis = compute_pod(make_set(cols), 4)
    sigma = np.linalg.svd(cols, compute_uv=False)  # independent full SVD
    residual = cols - basis.phi @ (basis.phi.T @ cols)
    assert_allclose(
        np.linalg.norm(residual, "fro"), np.sqrt(np.sum(sigma[4:] ** 2)), atol=1e-9
    )


def test_orthonormality_of_every_basis(rng):
    for _ in range(10):
        n = int(rng.integers(5, 30))
        m = int(rng.integers(3, 15))
        r = int(rng.integers(1, min(n, m) + 1))
        cols = rng.standard_normal((n, m))
        basis = compute_pod(make_set(cols), r)
        assert np.max(np.abs(basis.phi.T @ basis.phi - np.eye(r))) <= 1e-10


def test_singular_vector_eigen_residual(rng):
    # backward-stability guard: SS' phi_j = sigma_j^2 phi_j
    cols = rng.standard_normal((25, 10))
    basis = compute_pod(make_set(cols), 6)
    gram = cols @ cols.T
    for j in range(6):
        res = gram @ basis.phi[:, j] - basis.singular_values[j] ** 2 * basis.phi[:, j]
        assert np.linalg.norm(res) <= 1e-10 * basis.singular_values[0] ** 2


def test_reconstruction_error_monotone_in_rank(rng):
    cols = rng.standard_normal((15, 9))
    errors = []
    for r in range(1, 9):
        basis = compute_pod(make_set(cols), r)
        errors.append(np.linalg.norm(cols - basis.phi @ (basis.phi.T @ cols), "fro"))
    assert np.all(np.diff(errors) <= 1e-12)


def test_deterministic_bitwise(rng):
    cols = rng.standard_normal((12, 8))
    a = compute_pod(make_set(cols.copy()), 5)
    b = compute_pod(make_set(cols.copy()), 5)
    assert a.phi.tobytes() == b.phi.tobytes()
    assert a.singular_values.tobytes() == b.singular_values.tobytes()


@PROPERTY
@given(snapshot_sets())
def test_truncated_basis_is_the_lower_rank_basis_bitwise(snapshots):
    # the bases of one set are nested, so offline decomposes each set once
    top = min(snapshots.n, snapshots.count)
    largest = compute_pod(snapshots, top)
    for r in range(1, top + 1):
        cut, direct = largest.truncated(r), compute_pod(snapshots, r)
        assert cut.phi.flags.c_contiguous and cut.phi.shape == (snapshots.n, r)
        assert cut.phi.tobytes() == direct.phi.tobytes()
        assert cut.singular_values.tobytes() == direct.singular_values.tobytes()
        assert cut.shifted == direct.shifted == (snapshots.shift_ref is not None)
        if cut.shifted:
            assert cut.shift_ref.tobytes() == direct.shift_ref.tobytes()
    for r in (0, top + 1):
        with pytest.raises(ValueError):
            largest.truncated(r)


def test_sign_convention_pins_leading_entry(rng):
    cols = rng.standard_normal((10, 6))
    basis = compute_pod(make_set(cols), 4)
    for j in range(4):
        col = basis.phi[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_rank_deficient_detected(rng):
    w = rng.standard_normal(8)
    with pytest.raises(RankDeficientError):
        compute_pod(make_set(np.tile(w[:, None], 4)), 2)
    with pytest.raises(ValueError):
        compute_pod(make_set(rng.standard_normal((5, 3))), 4)


def test_project_reconstruct_shifted_cases(rng):
    ref = rng.standard_normal(9)
    cols = rng.standard_normal((9, 6))
    basis = compute_pod(make_set(cols, shift_ref=ref), 3)
    assert_allclose(project(basis, ref), np.zeros(3), atol=1e-12)
    assert_allclose(project(basis, basis.phi[:, 0] + ref), np.eye(3)[0], atol=1e-12)
    assert_allclose(reconstruct(basis, np.zeros(3)), ref)
    assert_allclose(reconstruct(basis, np.eye(3)[0]), basis.phi[:, 0] + ref)


def test_round_trip_is_orthogonal_projection(rng):
    ref = rng.standard_normal(11)
    basis = compute_pod(make_set(rng.standard_normal((11, 7)), shift_ref=ref), 4)
    u = rng.standard_normal(11)
    residual = u - reconstruct(basis, project(basis, u))
    # normal equations: the residual is orthogonal to the basis range
    assert np.max(np.abs(basis.phi.T @ residual)) <= 1e-10 * max(1, np.linalg.norm(u))


def test_captured_energy_bounds(rng):
    cols = rng.standard_normal((10, 6))
    basis = compute_pod(make_set(cols), 3)
    ratio = captured_energy(basis)
    assert 0 < ratio <= 1.0
    assert captured_energy(compute_pod(make_set(cols), 6)) >= ratio


def test_dimension_mismatch_errors(rng):
    basis = compute_pod(make_set(rng.standard_normal((6, 4))), 2)
    with pytest.raises(ValueError):
        project(basis, np.ones(5))


def test_basis_persistence_roundtrip(tmp_path, rng):
    ref = rng.standard_normal(8)
    basis = compute_pod(make_set(rng.standard_normal((8, 5)), shift_ref=ref), 3)
    path = tmp_path / "basis.bin"
    save_basis(basis, path)
    back = load_basis(path)
    assert back.phi.tobytes() == basis.phi.tobytes()
    assert back.singular_values.tobytes() == basis.singular_values.tobytes()
    assert back.shift_ref.tobytes() == ref.tobytes()
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(path.read_bytes()[:-8])  # cut inside the spectrum block
    with pytest.raises(FileFormatError, match="singular value"):
        load_basis(truncated)


def test_oversized_basis_header_rejected_before_allocation(tmp_path, rng):
    # a container header claiming 2^39 rows, or a spectrum count of 2^60,
    # over a few bytes of data
    basis = compute_pod(make_set(rng.standard_normal((8, 5))), 2)
    path = tmp_path / "basis.bin"
    save_basis(basis, path)
    data = path.read_bytes()
    count_at = len(data) - 8 * 5 - 8  # the count precedes the 5 singular values
    for offset, value, section in ((16, 1 << 39, "column data"), (count_at, 1 << 60, "singular")):
        bad = bytearray(data)
        struct.pack_into("<Q", bad, offset, value)
        path.write_bytes(bytes(bad))
        with pytest.raises(FileFormatError, match=section):
            load_basis(path)


def test_foreign_header_rejected(tmp_path, rng):
    # a file of another magic, or a container of a kind other than a basis
    path = tmp_path / "basis.bin"
    save_basis(compute_pod(make_set(rng.standard_normal((8, 5))), 2), path)
    data = path.read_bytes()
    for offset, field, message in ((0, b"NOTSNAP!", "magic"), (12, b"\0\0\0\0", "not a basis")):
        path.write_bytes(data[:offset] + field + data[offset + len(field):])
        with pytest.raises(FileFormatError, match=message):
            load_basis(path)


def test_identity_basis_construction():
    basis = PodBasis(np.eye(4), np.ones(4))
    assert not basis.shifted
    assert_allclose(project(basis, np.arange(4.0)), np.arange(4.0))
