import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.sparse.linalg import splu

from conftest import PROPERTY, check_skew, dense_operators, random_orthonormal, random_skew
from hamrom import _native
from hamrom.core import PeriodicFactor, PeriodicStencil, TwoBlockSystem
from hamrom.integrator import IntegratorConfig, PicardDivergenceError, integrate_steps
from hamrom.wave import WaveConfig, assemble_wave_fom, build_laplacian, initial_state, sin_average

COS_SPLIT = dict(G=lambda x: 1.0 - np.cos(x), g=np.sin)


def quadratic_only(n):
    # A = -I and no nonlinearity: H(z) = 0.5 |z|^2, z' = (v, -u)
    return TwoBlockSystem(PeriodicStencil(n, -1.0, 0.0), np.zeros(n), lambda x: 0.0 * x,
                          lambda x: 0.0 * x)


def random_stencil(rng, n):
    return PeriodicStencil(n, rng.standard_normal(), rng.standard_normal())


def test_hamiltonian_quadratic_identity():
    system = quadratic_only(3)
    assert system.energy(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])) == 0.5


def test_hamiltonian_matches_scalar_loop_oracle(rng):
    n = int(rng.integers(3, 12))
    A, c = random_stencil(rng, n), rng.standard_normal(n)
    system = TwoBlockSystem(A, c, **COS_SPLIT)
    z = rng.standard_normal(2 * n)
    u, v = z[:n], z[n:]
    # independent elementwise accumulation over the dense matrix
    dense = A.toarray()
    expected = 0.0
    for i in range(n):
        expected += 0.5 * v[i] * v[i]
        for j in range(n):
            expected -= 0.5 * u[i] * dense[i, j] * u[j]
        expected += c[i] * (1.0 - np.cos(u[i]))
    assert_allclose(system.energy(z), expected, rtol=1e-14)
    # a stack of states gives one energy per row
    stack = np.vstack([z, rng.standard_normal((3, 2 * n))])
    assert_allclose(system.energy(stack), [system.energy(row) for row in stack], rtol=1e-14)


@pytest.mark.parametrize("n", (40, 500))
def test_energy_takes_the_product_with_A_from_the_left_bit_for_bit(rng, n):
    # (A u^T)^T and u A add the same terms in the same order for the
    # symmetric A of the wave, here in CSR from the right: random states,
    # and every block of an AVF run
    system = assemble_wave_fom(WaveConfig(n=n))
    csr = sparse.csr_matrix(system.A.toarray())
    config = IntegratorConfig(dt=0.01, t_final=1.0)
    run = system.integrate(initial_state(WaveConfig(n=n)), config).states

    def from_the_right(z):
        u, v = z[..., :n], z[..., n:]
        uAu = np.sum(u * (u @ csr), axis=-1)
        return 0.5 * np.sum(v * v, axis=-1) - 0.5 * uAu + system.G(u) @ system.c_u

    stacks = [rng.standard_normal((32, 2 * n)), rng.standard_normal((1, 2 * n))]
    stacks += [run[k : k + 32] for k in range(0, len(run), 32)]
    for z in stacks + [run[17], rng.standard_normal(2 * n)]:
        assert np.asarray(system.energy(z)).tobytes() == from_the_right(z).tobytes()


def test_make_step_conserves_energy_with_non_unit_weights(rng):
    # the AVF step's nonlinear term carries the weights c_u; a step that
    # dropped them would advance another system and miss this energy
    n = 16
    cfg = WaveConfig(n=n)
    system = TwoBlockSystem(
        build_laplacian(cfg), rng.uniform(0.5, 2.0, n), **COS_SPLIT, g_avg=sin_average
    )
    icfg = IntegratorConfig(dt=0.01, t_final=1.0)
    traj = integrate_steps(system.make_step(icfg), initial_state(cfg), icfg)
    assert traj.steps == 100
    h = system.energy(traj.states)
    assert np.max(np.abs(h - h[0])) <= 1e-12 * abs(h[0])


def test_make_step_needs_segment_mean():
    with pytest.raises(ValueError, match="g_avg"):
        quadratic_only(3).make_step(IntegratorConfig())


@pytest.mark.parametrize("case", ("not-positive-definite", "not-positive-definite-periodic"))
def test_avf_stepping_needs_a_positive_definite_periodic_tridiagonal_step_matrix(case):
    # I - dt^2/4 * 36000 I = -0.089 I is solved by division; with an
    # off-diagonal, dpttrf stops at the first pivot
    n = 12
    off = 0.0 if case == "not-positive-definite" else 1.0
    system = TwoBlockSystem(PeriodicStencil(n, 36000.0, off), np.ones(n), **COS_SPLIT,
                            g_avg=sin_average)
    icfg = IntegratorConfig(dt=0.011, t_final=0.11)
    with pytest.raises(ValueError, match="positive definite"):
        system.make_step(icfg)
    with pytest.raises(ValueError, match="positive definite"):
        system.integrate(np.zeros(2 * n), icfg)


def test_gradient_identity_and_zero_cases():
    system = quadratic_only(3)
    z = np.array([0.3, -1.2, 2.0, 0.5, 0.1, -0.7])
    assert_allclose(system.rhs(z), np.concatenate([z[3:], -z[:3]]))
    cos_system = TwoBlockSystem(PeriodicStencil(3, -1.0, 0.0), np.ones(3), **COS_SPLIT)
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
    system = TwoBlockSystem(random_stencil(rng, n), rng.standard_normal(n), **COS_SPLIT)
    z = rng.standard_normal(2 * n)
    fd = fd_skew_gradient(system, z, range(2 * n))
    assert_allclose(system.rhs(z), fd, rtol=1e-6)


def test_gradient_fd_property_across_dimensions(rng):
    for _ in range(50):
        n = int(rng.integers(3, 51))
        system = TwoBlockSystem(random_stencil(rng, n), rng.standard_normal(n), **COS_SPLIT)
        z = rng.standard_normal(2 * n)
        idx = int(rng.integers(2 * n))  # one random component per draw keeps this fast
        fd = fd_skew_gradient(system, z, [idx])[0]
        assert_allclose(system.rhs(z)[idx], fd, rtol=1e-6, atol=1e-8 * max(1, abs(fd)))


def test_hamiltonian_permutation_invariance(rng):
    # the grid permutations that map a periodic stencil to itself: cyclic
    # shifts, the reversal, and shifts of the reversal
    n = 7
    A = random_stencil(rng, n)
    c = rng.standard_normal(n)
    z = rng.standard_normal(2 * n)
    system = TwoBlockSystem(A, c, **COS_SPLIT)
    for shift in range(n):
        for perm in (np.roll(np.arange(n), shift), np.roll(np.arange(n)[::-1], shift)):
            P = np.eye(n)[perm]
            assert np.array_equal(P @ A.toarray() @ P.T, A.toarray())
            permuted = TwoBlockSystem(A, P @ c, **COS_SPLIT)
            zp = np.concatenate([P @ z[:n], P @ z[n:]])
            assert_allclose(permuted.energy(zp), system.energy(z), rtol=1e-13)


def test_rhs_zero_operator_and_oscillator():
    # a zero linear part without nonlinearity leaves v constant
    free = TwoBlockSystem(PeriodicStencil(3, 0.0, 0.0), np.zeros(3), **COS_SPLIT)
    assert_allclose(free.rhs(np.array([3.0, 1.0, 2.0, -4.0, 5.0, 6.0])),
                    np.array([-4.0, 5.0, 6.0, 0.0, 0.0, 0.0]))
    osc = quadratic_only(3)
    assert_allclose(osc.rhs(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])),
                    np.array([0.0, 0.0, 0.0, -1.0, 0.0, 0.0]))


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
    # the coupling [[0, I], [-I, 0]] is fixed; what the record checks is
    # that A is a stencil, symmetric by construction
    with pytest.raises(TypeError, match="ndarray"):
        TwoBlockSystem(np.eye(3), np.ones(3), **COS_SPLIT)
    with pytest.raises(TypeError, match="csr_matrix"):
        TwoBlockSystem(sparse.csr_matrix(np.eye(3)), np.ones(3), **COS_SPLIT)
    D, _, _ = dense_operators(quadratic_only(3))
    assert check_skew(D, 0.0)
    assert not check_skew(np.eye(2), 1e-14)


def test_split_hamiltonian_validation():
    identity = PeriodicStencil(3, 1.0, 0.0)
    with pytest.raises(ValueError):  # g is not the derivative of G
        TwoBlockSystem(identity, np.ones(3), G=lambda x: 1.0 - np.cos(x), g=np.cos)
    with pytest.raises(ValueError):  # weight length mismatch
        TwoBlockSystem(identity, np.ones(4), **COS_SPLIT)
    with pytest.raises(ValueError, match="segment mean"):  # sin at the midpoint
        TwoBlockSystem(identity, np.ones(3), **COS_SPLIT,
                       g_avg=lambda x0, x1: np.sin(0.5 * (x0 + x1)))


def test_dimension_mismatch_errors():
    system = quadratic_only(3)
    with pytest.raises(ValueError):
        system.energy(np.ones(4))
    with pytest.raises(ValueError):  # rows of the wrong length
        system.energy(np.ones((2, 4)))
    with pytest.raises(ValueError):  # a stack of stacks
        system.energy(np.ones((2, 2, 6)))
    with pytest.raises(ValueError):
        system.rhs(np.ones(2))


# ---------------------------------------------------------------------------
# PeriodicFactor: the linear solve of the AVF step, against SuperLU.


def assert_solves_as_superlu(factor, m, rhs):
    lu = splu(sparse.csc_matrix(m))
    for b in rhs:
        x, expected = factor.solve(b), lu.solve(b)
        assert np.max(np.abs(x - expected)) <= 1e-14 * np.max(np.abs(expected))


def right_hand_sides(n, seed):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.standard_normal((4, n)),
                      rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-100, 100, (2, n))])


@pytest.mark.parametrize("dt", (0.01, 0.0025))
@pytest.mark.parametrize("n", (*range(3, 25), 40, 500, 2000, 8000))
def test_periodic_solve_is_superlu_solve_to_rounding(n, dt):
    # every wave step matrix; W C keeps no subnormal entry, also where W
    # decays far below the smallest normal float (n = 8000)
    _, factor = assemble_wave_fom(WaveConfig(n=n))._avf_operators(dt)
    m = sparse.identity(n) - 0.25 * dt * dt * csr_laplacian(WaveConfig(n=n))
    assert factor.e is not None and factor.wc is not None and factor.wc.flags.c_contiguous
    assert np.all((factor.wc == 0) | (np.abs(factor.wc) >= np.finfo(float).tiny))
    assert_solves_as_superlu(factor, m, right_hand_sides(n, seed=n))


@PROPERTY
@given(n=st.integers(3, 64), kind=st.sampled_from(["periodic", "diagonal"]),
       seed=st.integers(0, 2**32 - 1))
def test_periodic_solve_agrees_with_superlu(n, kind, seed):
    # random diagonally dominant periodic stencils over ten decades, and
    # diagonal ones (off = 0), for which no correction enters
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 0.0) if kind == "periodic" else 0.0
    diagonal = rng.uniform(1.5, 4.0) * (2.0 * abs(off) if off else 1.0)
    scale = 10.0 ** rng.uniform(-5.0, 5.0)
    m = PeriodicStencil(n, scale * diagonal, scale * off)
    factor = PeriodicFactor.of(m)
    assert (factor.wc is None) == (factor.e is None) == (kind == "diagonal")
    rhs = right_hand_sides(n, seed=seed % 1000)
    assert_solves_as_superlu(factor, m.toarray(), rhs)
    if factor.e is None:  # a division, which keeps an infinite entry infinite
        rhs[0, 0] = np.inf
        assert all(np.array_equal(factor.solve(b), b / m.diagonal) for b in rhs)


# ---------------------------------------------------------------------------
# PeriodicStencil: the wave's Laplacian, against the CSR matrix it replaces.


def csr_laplacian(cfg):
    """The periodic Laplacian c^2/dx^2 (1, -2, 1) in CSR with sorted
    column indices, as `build_laplacian` returned it before the stencil."""
    n, k = cfg.n, cfg.c_speed**2 / cfg.dx**2
    rows = np.arange(n)[:, None]
    cols = np.sort(np.hstack([(rows - 1) % n, rows, (rows + 1) % n]), axis=1)
    data = np.where(cols == rows, -2.0 * k, k)
    return sparse.csr_matrix((data.ravel(), cols.ravel(), 3 * np.arange(n + 1)), shape=(n, n))


@pytest.mark.parametrize("n", (3, 4, 5, 40, 500, 2000))
def test_the_stencil_multiplies_as_its_csr_matrix_bitwise(rng, n):
    # vectors and 1- and 7-column blocks, C-ordered, F-ordered and strided,
    # with entries of either sign over 1e-30..1e30 and zeros of either sign,
    # among them rows whose three products are all -0.0; each product is a
    # new C-ordered array, as CSR's
    lap, csr = build_laplacian(WaveConfig(n=n)), csr_laplacian(WaveConfig(n=n))
    assert lap.shape == csr.shape and lap.toarray().tobytes() == csr.toarray().tobytes()
    for shape in ((n,), (n, 1), (n, 7)):
        for _ in range(10):
            x = 10.0 ** rng.uniform(-30.0, 30.0, shape)
            x[rng.random(shape) < 0.5] = 0.0
            x = np.copysign(x, rng.choice([-1.0, 1.0], shape))
            signs = np.where(np.arange(n) % 2, 1.0, -1.0).reshape(n, *[1] * (len(shape) - 1))
            zeros = np.copysign(np.zeros(shape), signs)  # rows 1, 3, ... sum three -0.0
            for operand in (x, zeros, np.asfortranarray(x), np.repeat(x, 2, axis=-1)[..., ::2]):
                expected, got = csr @ operand, lap @ operand
                assert got.flags.c_contiguous and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), (shape, operand.strides)
    with pytest.raises(ValueError, match="dimension mismatch"):
        lap @ np.ones(n + 1)
    with pytest.raises(ValueError, match="n >= 3"):
        PeriodicStencil(2, lap.diagonal, lap.off)


@pytest.mark.parametrize("dt", (0.01, 0.0025))
@pytest.mark.parametrize("n", (3, 4, 40, 500))
def test_the_stencil_step_factor_is_the_csr_step_factor_bitwise(monkeypatch, n, dt):
    # the step stencil I - dt^2/4 A that the factor reads carries the
    # rounding of CSR's identity(n) - q A entry for entry: for the wave's
    # Laplacian, and for a diagonal A, whose zero off-diagonal stays +0.0
    factored, of = [], PeriodicFactor.of
    monkeypatch.setattr(PeriodicFactor, "of", lambda m: factored.append(m) or of(m))
    q = 0.25 * dt * dt
    for A, csr in ((build_laplacian(WaveConfig(n=n)), csr_laplacian(WaveConfig(n=n))),
                   (PeriodicStencil(n, 36000.0, 0.0), 36000.0 * sparse.identity(n))):
        system = TwoBlockSystem(A, np.ones(n), **COS_SPLIT, g_avg=sin_average)
        qc, _ = system._avf_operators(dt)
        assert system.A is A and qc.tobytes() == (q * np.ones(n)).tobytes()
        expected = (sparse.identity(n) - q * csr).toarray()
        assert factored.pop().toarray().tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# TwoBlockSystem.integrate: the compiled loop and the numpy path it replaces.


def wave_system(n, weights):
    cfg = WaveConfig(n=n)
    c_u = np.ones(n) if weights == "unit" else np.random.default_rng(n).uniform(0.5, 2.0, n)
    return TwoBlockSystem(build_laplacian(cfg), c_u, **COS_SPLIT, g_avg=sin_average)


@pytest.mark.parametrize("n, weights, dt", [(40, "unit", 0.01), (40, "random", 0.01),
                                            (13, "random", 0.0025), (500, "unit", 0.0025)])
def test_compiled_integration_is_the_numpy_path_bitwise(compiled, n, weights, dt):
    system = wave_system(n, weights)
    icfg = IntegratorConfig(dt=dt, t_final=200 * dt)
    z0 = initial_state(WaveConfig(n=n))
    traj = system.integrate(z0, icfg)
    expected = integrate_steps(system.make_step(icfg), z0, icfg)
    assert np.array_equal(traj.states, expected.states)
    assert np.array_equal(traj.picard_iters, expected.picard_iters)
    assert traj.picard_iters.dtype == np.int64 and traj.dt == dt
    assert np.array_equal(traj.times, expected.times)


def growing_system(n=12):
    # u'' = 36000 u: the AVF step multiplies u by 19, so 1e280 overflows
    # after the extrapolated starts begin at step 7
    return TwoBlockSystem(PeriodicStencil(n, 36000.0, 0.0), np.ones(n), **COS_SPLIT,
                          g_avg=sin_average)


@pytest.mark.parametrize("case", ("iteration-cap", "overflow-nan", "overflow-inf"))
def test_compiled_picard_failure_matches_the_numpy_path(compiled, case):
    n = 12
    if case == "iteration-cap":
        system, z0, cap = wave_system(n, "random"), initial_state(WaveConfig(n=n)), 1
    else:
        scale = 1e290 if case == "overflow-nan" else 1e280
        system, cap = growing_system(n), 100
        z0 = np.concatenate([scale * (1.0 + np.arange(n) / n), np.zeros(n)])
    icfg = IntegratorConfig(dt=0.01, t_final=1.0, picard_max_iter=cap)
    failures = []
    for run in (lambda: integrate_steps(system.make_step(icfg), z0, icfg),
                lambda: system.integrate(z0, icfg)):
        with pytest.raises(PicardDivergenceError) as info, np.errstate(all="ignore"):
            run()
        failures.append((info.value.iterations, repr(info.value.residual), info.value.step))
    assert failures[0] == failures[1]
    if case != "iteration-cap":
        assert failures[0][1] == case[-3:] and failures[0][2] >= 7


@pytest.mark.parametrize("loader", ("unavailable",))
def test_integrate_without_the_compiled_loop_gives_the_same_trajectory(compiled, monkeypatch,
                                                                      loader):
    # a loop that fails its probe, for either model kind, is in test_native
    system = wave_system(40, "random")
    icfg = IntegratorConfig(dt=0.01, t_final=1.0)
    z0 = initial_state(WaveConfig(n=40))
    run = system.integrate(z0, icfg)
    monkeypatch.undo()  # reopens the numpy path that `compiled` closed
    monkeypatch.setattr(_native, "load", lambda: None)
    _native.checked.cache_clear()
    try:
        assert _native.checked() is None
        traj = system.integrate(z0, icfg)
        assert np.array_equal(traj.states, run.states)
        assert np.array_equal(traj.picard_iters, run.picard_iters)
    finally:
        _native.checked.cache_clear()


def test_integrate_takes_the_numpy_path_for_another_segment_mean(monkeypatch):
    def compiled_path(*args):
        raise AssertionError("integrate took the compiled path")

    _native.checked()  # its probe runs the compiled path
    monkeypatch.setattr(_native, "run", compiled_path)
    n = 16
    system = TwoBlockSystem(build_laplacian(WaveConfig(n=n)), np.ones(n), **COS_SPLIT,
                            g_avg=lambda x0, x1: sin_average(x0, x1))
    icfg = IntegratorConfig(dt=0.01, t_final=0.5)
    z0 = initial_state(WaveConfig(n=n))
    traj = system.integrate(z0, icfg)
    expected = integrate_steps(assemble_wave_fom(WaveConfig(n=n)).make_step(icfg), z0, icfg)
    assert np.array_equal(traj.states, expected.states)
    assert np.array_equal(traj.picard_iters, expected.picard_iters)


def test_integrate_rejects_a_state_of_another_dimension():
    system = assemble_wave_fom(WaveConfig(n=16))
    with pytest.raises(ValueError, match="expected"):
        system.integrate(np.zeros(33), IntegratorConfig(t_final=0.1))
    with pytest.raises(ValueError, match="g_avg"):
        quadratic_only(3).integrate(np.zeros(6), IntegratorConfig(t_final=0.1))
