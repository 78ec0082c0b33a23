import numpy as np
import pytest
import scipy.sparse as sparse
from numpy.testing import assert_allclose

from conftest import check_skew, dense_operators, random_orthonormal, random_skew
from hamrom.core import TwoBlockSystem

COS_SPLIT = dict(G=lambda x: 1.0 - np.cos(x), g=np.sin)


def quadratic_only(n):
    # A = -I and no nonlinearity: H(z) = 0.5 |z|^2, z' = (v, -u)
    return TwoBlockSystem(-sparse.identity(n), np.zeros(n), lambda x: 0.0 * x, lambda x: 0.0 * x)


def random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return m + m.T


def test_hamiltonian_quadratic_identity():
    system = quadratic_only(1)
    assert system.energy(np.array([1.0, 0.0])) == 0.5


def test_hamiltonian_matches_scalar_loop_oracle(rng):
    n = 5
    A = random_symmetric(rng, n)
    system = TwoBlockSystem(A, np.ones(n), **COS_SPLIT)
    z = rng.standard_normal(2 * n)
    u, v = z[:n], z[n:]
    # independent elementwise accumulation
    expected = 0.0
    for i in range(n):
        expected += 0.5 * v[i] * v[i]
        for j in range(n):
            expected -= 0.5 * u[i] * A[i, j] * u[j]
        expected += 1.0 - np.cos(u[i])
    assert_allclose(system.energy(z), expected, rtol=1e-14)


def test_gradient_identity_and_zero_cases():
    system = quadratic_only(3)
    z = np.array([0.3, -1.2, 2.0, 0.5, 0.1, -0.7])
    assert_allclose(system.rhs(z), np.concatenate([z[3:], -z[:3]]))
    cos_system = TwoBlockSystem(-sparse.identity(3), np.ones(3), **COS_SPLIT)
    assert_allclose(cos_system.rhs(np.zeros(6)), np.zeros(6))


def fd_skew_gradient(system, z, indices, step=1e-6):
    """Components of D grad H(z) from central differences of the energy."""
    n = system.n
    out = np.empty(len(indices))
    for k, i in enumerate(indices):
        j = i + n if i < n else i - n  # (D w)_i = w_{i+n} on u, -w_{i-n} on v
        e = np.zeros(2 * n)
        e[j] = step
        fd = (system.energy(z + e) - system.energy(z - e)) / (2 * step)
        out[k] = fd if i < n else -fd
    return out


def test_gradient_matches_finite_differences(rng):
    n = 8
    system = TwoBlockSystem(random_symmetric(rng, n), rng.standard_normal(n), **COS_SPLIT)
    z = rng.standard_normal(2 * n)
    fd = fd_skew_gradient(system, z, range(2 * n))
    assert_allclose(system.rhs(z), fd, rtol=1e-6)


def test_gradient_fd_property_across_dimensions(rng):
    for _ in range(50):
        n = int(rng.integers(2, 51))
        system = TwoBlockSystem(
            random_symmetric(rng, n), rng.standard_normal(n), **COS_SPLIT
        )
        z = rng.standard_normal(2 * n)
        idx = int(rng.integers(2 * n))  # one random component per draw keeps this fast
        fd = fd_skew_gradient(system, z, [idx])[0]
        assert_allclose(system.rhs(z)[idx], fd, rtol=1e-6, atol=1e-8 * max(1, abs(fd)))


def test_hamiltonian_permutation_invariance(rng):
    n = 7
    A = random_symmetric(rng, n)
    c = rng.standard_normal(n)
    z = rng.standard_normal(2 * n)
    perm = rng.permutation(n)
    P = np.eye(n)[perm]
    system = TwoBlockSystem(A, c, **COS_SPLIT)
    permuted = TwoBlockSystem(P @ A @ P.T, P @ c, **COS_SPLIT)
    zp = np.concatenate([P @ z[:n], P @ z[n:]])
    assert_allclose(permuted.energy(zp), system.energy(z), rtol=1e-13)


def test_rhs_zero_operator_and_oscillator():
    # a zero linear part without nonlinearity leaves v constant
    free = TwoBlockSystem(sparse.csr_matrix((1, 1)), np.zeros(1), **COS_SPLIT)
    assert_allclose(free.rhs(np.array([3.0, -4.0])), np.array([-4.0, 0.0]))
    osc = quadratic_only(1)
    assert_allclose(osc.rhs(np.array([1.0, 0.0])), np.array([0.0, -1.0]))


def test_check_skew_examples():
    assert check_skew(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1e-14)
    assert not check_skew(np.eye(3), 1e-14)
    with pytest.raises(ValueError):
        check_skew(np.zeros((2, 3)), 1e-14)


def test_check_skew_under_orthonormal_reduction(rng):
    d = random_skew(rng, 12)
    phi = random_orthonormal(rng, 12, 5)
    assert check_skew(phi.T @ d @ phi, 1e-12 * max(1.0, np.max(np.abs(d))))


def test_skew_quadratic_form_vanishes(rng):
    for _ in range(100):
        n = int(rng.integers(2, 20))
        m = random_skew(rng, n)
        w = rng.standard_normal(n)
        bound = 1e-12 * np.linalg.norm(m) * np.linalg.norm(w) ** 2
        assert abs(w @ (m @ w)) <= max(bound, 1e-15)


def test_skew_operator_rejects_non_skew():
    # the coupling [[0, I], [-I, 0]] is fixed; what the record checks is A
    with pytest.raises(ValueError):  # not symmetric
        TwoBlockSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2), **COS_SPLIT)
    with pytest.raises(ValueError):  # not square
        TwoBlockSystem(np.zeros((2, 3)), np.ones(2), **COS_SPLIT)
    D, _, _ = dense_operators(quadratic_only(2))
    assert check_skew(D, 0.0)
    assert not check_skew(np.eye(2), 1e-14)


def test_split_hamiltonian_validation():
    with pytest.raises(ValueError):
        TwoBlockSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2), **COS_SPLIT)
    with pytest.raises(ValueError):  # g is not the derivative of G
        TwoBlockSystem(np.eye(2), np.ones(2), G=lambda x: 1.0 - np.cos(x), g=np.cos)
    with pytest.raises(ValueError):  # weight length mismatch
        TwoBlockSystem(np.eye(2), np.ones(3), **COS_SPLIT)
    with pytest.raises(ValueError, match="segment mean"):  # sin at the midpoint
        TwoBlockSystem(np.eye(2), np.ones(2), **COS_SPLIT,
                       g_avg=lambda x0, x1: np.sin(0.5 * (x0 + x1)))


def test_dimension_mismatch_errors():
    system = quadratic_only(3)
    with pytest.raises(ValueError):
        system.energy(np.ones(4))
    with pytest.raises(ValueError):
        system.rhs(np.ones(2))
