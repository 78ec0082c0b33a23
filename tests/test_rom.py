import dataclasses

import numpy as np
import pytest
import scipy.sparse as sparse
from numpy.testing import assert_allclose
from scipy.linalg import lapack

from conftest import check_skew, dense_energy, dense_operators, dense_rhs, random_orthonormal
from hamrom import _native, integrator
from hamrom.deim import build_deim
from hamrom.integrator import (
    IntegratorConfig,
    PicardDivergenceError,
    _midpoint_step_map,
    integrate,
    integrate_steps,
)
from hamrom.metrics import EvalCounter
from hamrom.pod import PodBasis
from hamrom.rom import VARIANT_TAGS, ReducedModel, RomVariant, build_rom, load_rom, save_rom
from hamrom.wave import WaveConfig, assemble_wave_fom, sin_average



def random_reduced_states(model, count, seed=3):
    rng = np.random.default_rng(seed)
    return 0.5 * rng.standard_normal((count, model.r_u + model.r_v))


def dense_projector(deim):
    n, s = deim.psi.shape
    P = np.zeros((n, s))
    P[deim.indices, np.arange(s)] = 1.0
    return deim.psi @ np.linalg.solve(P.T @ deim.psi, P.T)


# ---------------------------------------------------------------------------
# Construction and validation.


def test_variant_tags_and_validation():
    assert RomVariant.from_tag("sp-deim-2").shifted
    assert RomVariant.from_tag("g-rom").tag == "g-rom"
    with pytest.raises(ValueError):
        RomVariant("g-rom", shifted=True)
    with pytest.raises(ValueError):
        RomVariant.from_tag("pod")
    # a frozen value: equal by kind and flag, and hashable
    assert RomVariant("sp-pod", 1) == RomVariant.from_tag("sp-pod-2")
    assert len({RomVariant.from_tag(tag) for tag in VARIANT_TAGS * 2}) == len(VARIANT_TAGS)


def test_missing_or_extra_deim_rejected(pipe):
    fom, bases, deims = pipe["fom"], pipe["bases"], pipe["deims"]
    with pytest.raises(ValueError):
        build_rom(RomVariant.from_tag("sp-deim-1"), *bases[False], fom)
    with pytest.raises(ValueError):
        build_rom(RomVariant.from_tag("sp-pod-1"), *bases[False], fom, deim=deims[False])


def test_shift_flag_mismatch_rejected(pipe):
    fom, bases, deims = pipe["fom"], pipe["bases"], pipe["deims"]
    with pytest.raises(ValueError):
        build_rom(RomVariant.from_tag("sp-pod-2"), *bases[False], fom)
    with pytest.raises(ValueError):
        build_rom(
            RomVariant.from_tag("sp-deim-2"), *bases[True], fom, deim=deims[False]
        )


def test_identity_basis_reproduces_fom_rhs(small_wave):
    fom = small_wave["fom"]
    n = small_wave["cfg"].n
    eye = PodBasis(np.eye(n), np.ones(n))
    model = build_rom(RomVariant.from_tag("sp-pod-1"), eye, eye, fom)
    rng = np.random.default_rng(5)
    for _ in range(5):
        z = rng.standard_normal(2 * n)
        expected = dense_rhs(fom, z)
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(model.rhs(z) - expected)) <= 1e-13 * scale


def test_reduced_skew_matches_dense_reduction(small_wave, rng):
    fom = small_wave["fom"]
    n = small_wave["cfg"].n
    D, _, _ = dense_operators(fom)
    for _ in range(50):
        ru = int(rng.integers(1, 6))
        rv = int(rng.integers(1, 6))
        bu = PodBasis(random_orthonormal(rng, n, ru), np.ones(ru))
        bv = PodBasis(random_orthonormal(rng, n, rv), np.ones(rv))
        model = build_rom(RomVariant.from_tag("sp-pod-1"), bu, bv, fom)
        block = np.zeros((2 * n, ru + rv))
        block[:n, :ru] = bu.phi
        block[n:, ru:] = bv.phi
        dense = block.T @ D @ block
        assert_allclose(model.reduced_skew(), dense, atol=1e-12)
        assert check_skew(model.reduced_skew(), 1e-12)


# ---------------------------------------------------------------------------
# Dense-projector oracles for the interpolation variants.


def test_sp_deim_rhs_matches_dense_formula(pipe):
    for tag in ("sp-deim-1", "sp-deim-2"):
        model = pipe["models"][tag]
        deim = pipe["deims"][model.variant.shifted]
        proj_t_c = dense_projector(deim).T @ np.ones(model.n)
        for z in random_reduced_states(model, 10):
            a, b = z[: model.r_u], z[model.r_u :]
            rec = model.phi_u @ a + model.u_ref
            grad_u = (
                -model.a_red @ a
                - model.lin_u
                + model.phi_u.T @ (np.sin(rec) * proj_t_c)
            )
            expected = np.concatenate(
                [model.cuv @ (b + model.lin_v), -model.cuv.T @ grad_u]
            )
            assert np.max(np.abs(model.rhs(z) - expected)) <= 1e-11


def test_sp_deim_hamiltonian_matches_dense_formula(pipe):
    fom = pipe["models"]["sp-pod-1"]  # energy via full reconstruction
    A = pipe["A"]
    for tag in ("sp-deim-1", "sp-deim-2"):
        model = pipe["models"][tag]
        deim = pipe["deims"][model.variant.shifted]
        proj = dense_projector(deim)
        G = model.G_fn
        ones = np.ones(model.n)
        for z in random_reduced_states(model, 10):
            a, b = z[: model.r_u], z[model.r_u :]
            rec_u = model.phi_u @ a + model.u_ref
            rec_v = model.phi_v @ b + model.v_ref
            expected = (
                -0.5 * rec_u @ (A @ rec_u)
                + 0.5 * rec_v @ rec_v
                + ones @ (proj @ G(rec_u))
                + ones @ ((np.eye(model.n) - proj) @ G(model.u_ref))
            )
            assert abs(model.hamiltonian(z) - expected) <= 1e-12 * max(1, abs(expected))


def test_full_sampling_degenerates_to_sp_pod(small_wave):
    fom = small_wave["fom"]
    n = small_wave["cfg"].n
    rng = np.random.default_rng(12)
    bu = PodBasis(random_orthonormal(rng, n, 3), np.ones(3))
    bv = PodBasis(random_orthonormal(rng, n, 3), np.ones(3))
    full = build_deim(PodBasis(np.eye(n), np.ones(n)), np.ones(n))
    pod_model = build_rom(RomVariant.from_tag("sp-pod-1"), bu, bv, fom)
    deim_model = build_rom(RomVariant.from_tag("sp-deim-1"), bu, bv, fom, deim=full)
    for z in random_reduced_states(pod_model, 5):
        assert np.max(np.abs(deim_model.rhs(z) - pod_model.rhs(z))) <= 1e-11


# ---------------------------------------------------------------------------
# Gradient structure.


def fd_gradient(fn, z, step=1e-6):
    grad = np.empty_like(z)
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = step
        grad[i] = (fn(z + e) - fn(z - e)) / (2 * step)
    return grad


def test_sp_rhs_is_skew_times_gradient(pipe):
    for tag in ("sp-pod-1", "sp-pod-2", "sp-deim-1", "sp-deim-2"):
        model = pipe["models"][tag]
        skew = model.reduced_skew()
        for z in random_reduced_states(model, 20):
            oracle = skew @ fd_gradient(model.hamiltonian, z)
            got = model.rhs(z)
            assert np.linalg.norm(got - oracle) <= 1e-6 * max(
                1.0, np.linalg.norm(oracle)
            )


def test_g_rom_rhs_matches_dense_galerkin(pipe):
    # the plain Galerkin model is *not* skew times a gradient; check it
    # against its own dense projection formula instead
    model = pipe["models"]["g-rom"]
    A = pipe["A"]
    for z in random_reduced_states(model, 10):
        a, b = z[: model.r_u], z[model.r_u :]
        expected = np.concatenate(
            [
                model.phi_u.T @ (model.phi_v @ b),
                model.phi_v.T @ (A @ (model.phi_u @ a))
                - model.phi_v.T @ np.sin(model.phi_u @ a),
            ]
        )
        assert np.max(np.abs(model.rhs(z) - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# Reduced energy and initial coefficients.


def test_shifted_models_exact_at_reference(pipe):
    h0 = dense_energy(pipe["fom"], pipe["z0"])
    for tag in ("sp-pod-2", "sp-deim-2"):
        model = pipe["models"][tag]
        zero = np.zeros(model.r_u + model.r_v)
        assert abs(model.hamiltonian(zero) - h0) <= 1e-12 * abs(h0)
        assert np.all(model.initial_coefficients(pipe["z0"]) == 0.0)


def test_sp_pod_1_energy_is_projected_ic_energy(pipe):
    model = pipe["models"]["sp-pod-1"]
    fom = pipe["fom"]
    u0 = pipe["z0"][: model.n]
    coeffs = model.initial_coefficients(pipe["z0"])
    projected = np.concatenate([model.phi_u @ (model.phi_u.T @ u0), np.zeros(model.n)])
    assert_allclose(
        model.hamiltonian(coeffs), dense_energy(fom, projected), rtol=1e-12
    )


def test_unshifted_initial_coefficients_are_projections(pipe, rng):
    model = pipe["models"]["sp-pod-1"]
    n = model.n
    u_in_range = model.phi_u @ rng.standard_normal(model.r_u)
    z = np.concatenate([u_in_range, np.zeros(n)])
    coeffs = model.initial_coefficients(z)
    assert_allclose(model.phi_u @ coeffs[: model.r_u], u_in_range, atol=1e-12)
    z_rand = rng.standard_normal(2 * n)
    coeffs = model.initial_coefficients(z_rand)
    u = model.phi_u @ coeffs[: model.r_u]
    v = model.phi_v @ coeffs[model.r_u :]
    # orthogonal projection: residual orthogonal to both block ranges
    assert np.max(np.abs(model.phi_u.T @ (z_rand[:n] - u))) <= 1e-10
    assert np.max(np.abs(model.phi_v.T @ (z_rand[n:] - v))) <= 1e-10


def test_hamiltonian_of_a_stack_matches_each_row(pipe):
    for tag, model in pipe["models"].items():
        states = random_reduced_states(model, 6)
        rows = np.array([model.hamiltonian(z) for z in states])
        assert_allclose(model.hamiltonian(states), rows, rtol=1e-13, err_msg=tag)


def test_shifted_initial_coefficients_are_projections(pipe):
    # away from the reference state a shifted model projects z - ref
    z = pipe["traj"].states[100]
    for tag in ("sp-pod-2", "sp-deim-2"):
        model = pipe["models"][tag]
        n = model.n
        expected = np.concatenate(
            [model.phi_u.T @ (z[:n] - model.u_ref), model.phi_v.T @ (z[n:] - model.v_ref)]
        )
        coeffs = model.initial_coefficients(z)
        assert np.max(np.abs(expected)) > 1e-3
        assert_allclose(coeffs, expected, rtol=0, atol=1e-14)


def test_shifted_rhs_at_origin_reads_off_display(pipe):
    # with v_ref = 0 the u-equation vanishes at the origin and the
    # v-equation carries the projected gradient at the reference state
    for tag in ("sp-pod-2", "sp-deim-2"):
        model = pipe["models"][tag]
        zero = np.zeros(model.r_u + model.r_v)
        out = model.rhs(zero)
        assert np.max(np.abs(out[: model.r_u])) == 0.0
        if tag == "sp-pod-2":
            grad_u = model.phi_u.T @ (model.c_u * np.sin(model.u_ref)) - model.lin_u
        else:
            idx = model.deim_indices
            grad_u = (
                model.phi_u[idx].T @ (model.deim_weights * np.sin(model.u_ref[idx]))
                - model.lin_u
            )
        assert_allclose(out[model.r_u :], -model.cuv.T @ grad_u, atol=1e-14)


# ---------------------------------------------------------------------------
# Online cost instrumentation.


def test_deim_rhs_samples_exactly_s_points(pipe):
    model = pipe["models"]["sp-deim-2"]
    counter = EvalCounter(np.sin)
    f = model.make_rhs(g=counter)
    for z in random_reduced_states(model, 7):
        f(z)
    assert counter.calls == 7
    assert counter.scalars == 7 * model.s


def test_pod_rhs_touches_full_length(pipe):
    model = pipe["models"]["sp-pod-1"]
    counter = EvalCounter(np.sin)
    model.make_rhs(g=counter)(np.zeros(model.r_u + model.r_v))
    assert counter.scalars == model.n


# ---------------------------------------------------------------------------
# Conservation along trajectories (structure-preserving variants).


def _max_drift(model, z0, dt, t_final, avf=False):
    """Largest reduced-energy change along a midpoint run, or along a run
    of the pipeline's AVF step."""
    cfg = IntegratorConfig(dt=dt, t_final=t_final)
    coeffs = model.initial_coefficients(z0)
    if avf:
        traj = integrate_steps(model.make_step(cfg), coeffs, cfg)
    else:
        traj = integrate(model.make_rhs(), coeffs, cfg)
    h = np.array([model.hamiltonian(z) for z in traj.states])
    return float(np.max(np.abs(h - h[0])))


def test_sp_energy_constant_at_resolved_step_size(pipe):
    # the reduced dynamics conserve the reduced energy exactly; the residual
    # drift belongs to the midpoint rule and reaches 1e-8 once dt resolves it
    for tag in ("sp-pod-1", "sp-pod-2", "sp-deim-1", "sp-deim-2"):
        model = pipe["models"][tag]
        assert _max_drift(model, pipe["z0"], 5e-4, 0.5) <= 1e-8, tag


def test_sp_energy_drift_scales_as_dt_squared(pipe):
    for tag in ("sp-pod-1", "sp-deim-2"):
        model = pipe["models"][tag]
        ratio = _max_drift(model, pipe["z0"], 0.01, 0.5) / _max_drift(
            model, pipe["z0"], 0.0025, 0.5
        )
        assert 12.0 <= ratio <= 20.0, tag  # ~16 for an order-2 scheme


def test_sp_energy_exact_under_avf_step(pipe):
    # the pipeline's AVF step conserves the reduced energy at the benchmark
    # step size, where the midpoint rule leaves an O(dt^2) oscillation
    for tag in ("sp-pod-1", "sp-pod-2", "sp-deim-1", "sp-deim-2"):
        model = pipe["models"][tag]
        assert _max_drift(model, pipe["z0"], 0.01, 2.0, avf=True) <= 1e-12, tag
        assert _max_drift(model, pipe["z0"], 0.01, 2.0) > 1e-8, tag


def test_extrapolated_first_iterate_changes_work_not_result(pipe):
    # the AVF step started from the extrapolated state against the same
    # step started from the current state, for every variant
    cfg = IntegratorConfig(dt=0.01, t_final=2.0)
    for tag, model in pipe["models"].items():
        step = model.make_step(cfg)
        coeffs = model.initial_coefficients(pipe["z0"])
        extrapolated = integrate_steps(step, coeffs, cfg)
        from_state = integrate_steps(lambda z, start: step(z, z), coeffs, cfg)
        assert np.max(np.abs(extrapolated.states - from_state.states)) <= 1e-11, tag
        assert np.mean(extrapolated.picard_iters) < np.mean(from_state.picard_iters), tag
        if tag != "g-rom":
            h = model.hamiltonian(extrapolated.states)
            assert np.max(np.abs(h - h[0])) <= 1e-12 * abs(h[0]), tag


def test_sp_energy_does_not_leak_without_nonlinearity(pipe):
    # with g switched off each AVF step is the Cayley map of a quadratic
    # energy; 5,000 steps that all round K^-1 (I + dt/2 L) the same way
    # would let the energy drift linearly, the refined step keeps it flat
    zero = lambda x: 0.0 * x  # noqa: E731
    linear = dataclasses.replace(
        pipe["fom"], G=zero, g=zero, g_avg=lambda x0, x1: 0.0 * x0
    )
    cfg = IntegratorConfig(dt=0.01, t_final=50.0)
    for tag in ("sp-pod-1", "sp-pod-2", "sp-deim-1", "sp-deim-2"):
        variant = RomVariant.from_tag(tag)
        model = build_rom(
            variant,
            *pipe["bases"][variant.shifted],
            linear,
            deim=pipe["deims"][variant.shifted] if variant.kind == "sp-deim" else None,
        )
        traj = integrate_steps(model.make_step(cfg), model.initial_coefficients(pipe["z0"]), cfg)
        assert traj.steps == 5000
        h = model.hamiltonian(traj.states)
        assert np.max(np.abs(h - h[0])) <= 3e-14 * abs(h[0]), tag


def test_extrapolated_solves_take_one_or_two_iterations(pipe):
    # past the seven steps that start from the current state, the degree-7
    # start leaves at most one further update for most steps
    cfg = IntegratorConfig(dt=0.01, t_final=2.0)
    z0 = pipe["z0"]
    runs = {"fom": integrate_steps(pipe["fom"].make_step(cfg), z0, cfg)}
    for tag, model in pipe["models"].items():
        runs[tag] = integrate_steps(model.make_step(cfg), model.initial_coefficients(z0), cfg)
    for tag, traj in runs.items():
        assert np.mean(traj.picard_iters[7:]) <= 1.5, tag


# The AVF steps as the pipeline first wrote them: `@` products, a Picard
# loop that allocates every iterate and the allocating segment mean of sin.
# The steps in use must reproduce them bit for bit.

def _reference_picard(phi, x, config):
    for it in range(1, config.picard_max_iter + 1):
        x_next = phi(x)
        residual = float(abs(x_next - x).max())
        x = x_next
        assert residual < np.inf
        if residual <= config.picard_tol or residual <= config.picard_tol * float(abs(x).max()):
            return x, it
    raise AssertionError("reference solve did not converge")


def _reference_sin_average(x0, x1):
    m = (x0 + x1) * 0.5
    h = np.maximum(np.abs((x1 - x0) * 0.5), np.finfo(float).tiny)
    return np.sin(m) * (np.sin(h) / h)


def _reference_reduced_step(model, config):
    dt, ru = config.dt, model.r_u
    eye = np.eye(model._L.shape[0])
    K = eye - 0.5 * dt * model._L
    K_plus = eye + 0.5 * dt * model._L
    k_inv = np.linalg.inv(K)
    dt_c, dt_m = dt * model._c, dt * model._m_b
    B = k_inv[:, ru:] @ dt_m
    P, x_ref = model._P, model._x_ref

    def step(z, start):
        y = K_plus @ z + dt_c
        w = k_inv @ y
        x0 = P @ z[:ru] + x_ref
        last = {}

        def update(z1):
            last["q"] = _reference_sin_average(x0, P @ z1[:ru] + x_ref)
            return B @ last["q"] + w

        z1, iterations = _reference_picard(update, start, config)
        r = K @ z1 - y
        r[ru:] -= dt_m @ last["q"]
        return z1 - k_inv @ r, iterations

    return step


def _reference_fom_step(fom, config):
    n, dt = fom.n, config.dt
    q = 0.25 * dt * dt
    qc = q * fom.c_u
    # M = T + s (e_0 e_{n-1}^T + e_{n-1} e_0^T): dpttrs with T, then the
    # Sherman-Morrison-Woodbury correction for the corners
    m = (sparse.identity(n) - q * sparse.csr_matrix(fom.A.toarray())).toarray()
    d, e, _ = lapack.dpttrf(np.diag(m).copy(), np.diag(m, 1).copy())
    w = lapack.dpttrs(d, e, np.eye(n)[:, [0, n - 1]])[0]
    w[np.abs(w) < 1e-290] = 0.0
    corners = np.array([[0.0, m[0, n - 1]], [m[n - 1, 0], 0.0]])
    wc = w @ np.linalg.solve(np.eye(2) + corners @ w[[0, n - 1]], corners)

    def solve(b):
        y = lapack.dpttrs(d, e, b)[0]
        return y - np.dot(wc, y[[0, n - 1]])

    def step(z, start):
        u0, v0 = z[:n], z[n:]
        base = u0 + 0.5 * dt * v0

        def update(um):
            return solve(base - qc * _reference_sin_average(u0, 2.0 * um - u0))

        um, iterations = _reference_picard(update, 0.5 * (u0 + start[:n]), config)
        return np.concatenate([2.0 * um - u0, (4.0 / dt) * (um - u0) - v0]), iterations

    return step


_WEIGHTS = np.array([-1.0, 8.0, -28.0, 56.0, -70.0, 56.0, -28.0, 8.0])


def _lockstep(step, initial_states, steps, spoil=False):
    """Run one step map on several integrations at once, alternating its
    calls between them step by step.  Each solve starts from the state for
    the first seven steps, then from the degree-7 extrapolation of the last
    eight states.  The returned states are kept as they are, so a later
    call that wrote into one would show; with `spoil`, copies are kept and
    every returned state is overwritten with NaN.  Returns (states,
    iterations) per run."""
    runs = [([np.array(z0, dtype=float)], []) for z0 in initial_states]
    for k in range(steps):
        for states, iterations in runs:
            z = states[-1]
            start = z if k < 7 else _WEIGHTS @ np.array(states[-8:])
            z1, it = step(z, start)
            states.append(z1.copy() if spoil else z1)
            iterations.append(it)
            if spoil:
                z1[:] = np.nan
    return [(np.array(states), np.array(iterations)) for states, iterations in runs]


def _avf_cases(pipe, cfg):
    """(label, step in use, reference step, initial state) for the five
    reduced variants and the full-order system of the n=40 fixture."""
    z0 = pipe["z0"]
    cases = [("fom", pipe["fom"].make_step(cfg), _reference_fom_step(pipe["fom"], cfg), z0)]
    for tag, model in pipe["models"].items():
        cases.append((tag, model.make_step(cfg), _reference_reduced_step(model, cfg),
                      model.initial_coefficients(z0)))
    return cases


def test_avf_steps_reproduce_the_reference_formulas_bitwise(pipe):
    cfg = IntegratorConfig(dt=0.01, t_final=2.0)
    for label, step, reference, z0 in _avf_cases(pipe, cfg):
        traj = integrate_steps(step, z0, cfg)
        [(states, iterations)] = _lockstep(reference, [z0], cfg.step_count())
        assert np.array_equal(traj.states, states), label
        assert np.array_equal(traj.picard_iters, iterations), label


def test_a_step_map_keeps_no_state_between_calls(pipe):
    # one closure alternates between two integrations from different
    # states; each must equal its own run, whether the caller keeps every
    # state the step returned or overwrites it
    cfg = IntegratorConfig(dt=0.01, t_final=1.0)
    for label, step, _, z0 in _avf_cases(pipe, cfg):
        other = 0.5 * z0 + 0.1 * np.cos(np.arange(z0.size))
        separate = [integrate_steps(step, z, cfg) for z in (z0, other)]
        for spoil in (False, True):
            together = _lockstep(step, [z0, other], cfg.step_count(), spoil=spoil)
            for traj, (states, iterations) in zip(separate, together):
                assert np.array_equal(traj.states, states), label
                assert np.array_equal(traj.picard_iters, iterations), label


# ---------------------------------------------------------------------------
# ReducedModel.integrate: the compiled loop and the numpy path it replaces.


def test_every_operand_of_the_avf_step_is_c_contiguous(tmp_path, pipe):
    # the compiled loop reads each matrix row-major, as np.dot hands a
    # C-contiguous one to gemv: built or loaded, a model stores them so
    for tag, built in pipe["models"].items():
        save_rom(built, tmp_path / "rom.bin")
        for model in (built, load_rom(tmp_path / "rom.bin", pipe["fom"])):
            for operand in (*model._avf_operators(0.01), model._P, model._x_ref):
                assert operand.flags.c_contiguous, tag


def test_a_model_of_any_layout_integrates_as_its_c_contiguous_copy(pipe, compiled):
    # F-ordered bases and strided references (with NaN between their
    # entries): the constructor copies them into C order and keeps the
    # copies that the compiled loop reads
    cfg = IntegratorConfig(dt=0.01, t_final=1.0)

    def strided(v):
        return np.stack([v, np.full_like(v, np.nan)], axis=1)[:, 0]

    fom, deim = pipe["fom"], pipe["deims"][True]
    for tag, interpolation in (("g-rom", (None, None)),
                               ("sp-deim-2", (deim.indices, deim.weights))):
        variant = RomVariant.from_tag(tag)
        basis_u, basis_v = pipe["bases"][variant.shifted]
        u_ref, v_ref = (b.shift_ref if b.shifted else np.zeros(fom.n) for b in (basis_u, basis_v))
        fortran = (np.asfortranarray(basis_u.phi), np.asfortranarray(basis_v.phi),
                   strided(u_ref), strided(v_ref))
        assert not any(a.flags.c_contiguous for a in fortran)
        c_ordered = [np.array(a, order="C") for a in fortran]
        models = [ReducedModel(variant, fom, *arrays, *interpolation)
                  for arrays in (fortran, c_ordered)]
        z0 = models[1].initial_coefficients(pipe["z0"])
        for run in (lambda m: m.integrate(z0, cfg),
                    lambda m: integrate_steps(m.make_step(cfg), z0, cfg)):
            got, expected = (run(m) for m in models)
            assert got.states.tobytes() == expected.states.tobytes(), tag
            assert np.array_equal(got.picard_iters, expected.picard_iters), tag


def test_compiled_integration_reproduces_the_reference_formulas_bitwise(pipe, compiled):
    cfg = IntegratorConfig(dt=0.01, t_final=2.0)
    for tag, model in pipe["models"].items():
        z0 = model.initial_coefficients(pipe["z0"])
        traj = model.integrate(z0, cfg)
        [(states, iterations)] = _lockstep(_reference_reduced_step(model, cfg), [z0],
                                           cfg.step_count())
        assert np.array_equal(traj.states, states), tag
        assert np.array_equal(traj.picard_iters, iterations), tag
        assert traj.picard_iters.dtype == np.int64 and traj.dt == cfg.dt
        assert np.array_equal(traj.times, np.arange(cfg.step_count() + 1) * cfg.dt)


@pytest.mark.parametrize("case", ("iteration-cap", "overflow"))
def test_compiled_picard_failure_matches_the_numpy_path(pipe, compiled, case):
    cap = 1 if case == "iteration-cap" else 100
    cfg = IntegratorConfig(dt=0.01, t_final=0.2, picard_max_iter=cap)
    for tag, model in pipe["models"].items():
        z0 = model.initial_coefficients(pipe["z0"])
        if case == "overflow":  # the states overflow to inf and nan
            z0 = np.full_like(z0, 1e308)
        # the AVF step and the midpoint rule over make_rhs, each by the
        # numpy step and by the compiled loop
        failures = []
        for run in (lambda: integrate_steps(model.make_step(cfg), z0, cfg),
                    lambda: model.integrate(z0, cfg),
                    lambda: _numpy_midpoint(model.make_rhs(), z0, cfg),
                    lambda: integrate(model.make_rhs(), z0, cfg)):
            with pytest.raises(PicardDivergenceError) as info, np.errstate(all="ignore"):
                run()
            failures.append((info.value.iterations, repr(info.value.residual), info.value.step))
        assert failures[0] == failures[1] and failures[2] == failures[3], tag


@pytest.mark.parametrize("loader", ("unavailable",))
def test_integrate_without_the_compiled_loop_gives_the_same_trajectory(pipe, compiled,
                                                                      monkeypatch, loader):
    # a loop that fails its probe, for either model kind, is in test_native
    cfg = IntegratorConfig(dt=0.01, t_final=1.0)
    starts = {tag: m.initial_coefficients(pipe["z0"]) for tag, m in pipe["models"].items()}
    runs = {tag: m.integrate(starts[tag], cfg) for tag, m in pipe["models"].items()}
    monkeypatch.undo()  # reopens the numpy path that `compiled` closed
    monkeypatch.setattr(_native, "load", lambda: None)
    _native.checked.cache_clear()
    try:
        assert _native.checked() is None
        for tag, model in pipe["models"].items():
            traj = model.integrate(starts[tag], cfg)
            assert np.array_equal(traj.states, runs[tag].states), tag
            assert np.array_equal(traj.picard_iters, runs[tag].picard_iters), tag
    finally:
        _native.checked.cache_clear()


@pytest.mark.parametrize("case", ("another-g-avg", "one-interpolation-point"))
def test_integrate_takes_the_numpy_path_where_the_loop_does_not_apply(pipe, monkeypatch, case):
    # the loop computes only wave.sin_average itself, and np.dot computes a
    # product with a single row or column without gemv (one interpolation
    # point makes P 1 x r), so either model must go through make_step
    def compiled_path(*args):
        raise AssertionError("integrate took the compiled path")

    _native.checked()  # its probe runs the compiled path
    monkeypatch.setattr(_native, "run", compiled_path)
    fom, (bu, bv) = pipe["fom"], pipe["bases"][False]
    if case == "another-g-avg":
        wrapped = dataclasses.replace(fom, g_avg=lambda x0, x1: sin_average(x0, x1))
        model = build_rom(RomVariant.from_tag("sp-pod-1"), bu, bv, wrapped)
    else:
        assert fom.g_avg is sin_average
        model = ReducedModel(RomVariant.from_tag("sp-deim-1"), fom, bu.phi, bv.phi,
                             np.zeros(fom.n), np.zeros(fom.n), [7], [float(fom.n)])
    cfg = IntegratorConfig(dt=0.01, t_final=1.0)
    z0 = model.initial_coefficients(pipe["z0"])
    traj = model.integrate(z0, cfg)
    expected = integrate_steps(model.make_step(cfg), z0, cfg)
    assert np.array_equal(traj.states, expected.states)
    assert np.array_equal(traj.picard_iters, expected.picard_iters)


def test_integrate_rejects_a_state_of_another_dimension(pipe):
    model = pipe["models"]["sp-deim-2"]
    z0, cfg = np.zeros(model.r_u + model.r_v + 1), IntegratorConfig(t_final=0.1)
    with pytest.raises(ValueError, match="expected"):
        model.integrate(z0, cfg)
    for observer in (None, lambda k, t, z: None):  # the midpoint loop, the numpy midpoint
        with pytest.raises(ValueError):
            integrate(model.make_rhs(), z0, cfg, observer)


# ---------------------------------------------------------------------------
# The midpoint rule over make_rhs: `integrate(model.make_rhs(), z0, cfg)`
# runs `_avf.c`'s midpoint loop where it applies, else the numpy step.


def _numpy_midpoint(rhs, z0, cfg):
    return integrate_steps(_midpoint_step_map(rhs, cfg), z0, cfg)


def _closed_midpoint(monkeypatch):
    """Make `integrate` fail if it takes the numpy midpoint step."""
    def numpy_path(*args, **kwargs):
        raise AssertionError("integrate took the numpy midpoint")

    monkeypatch.setattr(integrator, "integrate_steps", numpy_path)


def _closed_loop(monkeypatch):
    """Make `integrate` fail if it takes the compiled loop."""
    def compiled_path(*args):
        raise AssertionError("integrate took the compiled path")

    monkeypatch.setattr(_native, "run", compiled_path)


def test_compiled_midpoint_is_the_numpy_midpoint_bitwise(pipe, compiled, monkeypatch):
    # past the degree-7 start, at the initial state and at a scaled one
    cfg = IntegratorConfig(dt=0.01, t_final=1.0)
    runs = []
    for tag, model in pipe["models"].items():
        for alpha in (1.0, 1.3):
            z0 = alpha * model.initial_coefficients(pipe["z0"])
            runs.append((tag, model, z0, _numpy_midpoint(model.make_rhs(), z0, cfg)))
    _closed_midpoint(monkeypatch)
    for tag, model, z0, expected in runs:
        traj = integrate(model.make_rhs(), z0, cfg)
        assert traj.states.tobytes() == expected.states.tobytes(), tag
        assert np.array_equal(traj.picard_iters, expected.picard_iters), tag
        assert traj.times.tobytes() == expected.times.tobytes() and traj.dt == cfg.dt


@pytest.mark.parametrize("case", ("one-basis-column", "one-interpolation-point"))
def test_midpoint_takes_the_numpy_path_where_the_loop_does_not_apply(pipe, monkeypatch, case):
    # matmul computes a product with a single row or column without gemv
    fom, (bu, bv) = pipe["fom"], pipe["bases"][False]
    zero = np.zeros(fom.n)
    if case == "one-basis-column":
        model = ReducedModel(RomVariant.from_tag("sp-pod-1"), fom, bu.phi[:, :1], bv.phi[:, :1],
                             zero, zero)
    else:
        model = ReducedModel(RomVariant.from_tag("sp-deim-1"), fom, bu.phi, bv.phi, zero, zero,
                             [7], [float(fom.n)])
    cfg = IntegratorConfig(dt=0.01, t_final=1.0)
    z0 = model.initial_coefficients(pipe["z0"])
    expected = _numpy_midpoint(model.make_rhs(), z0, cfg)
    _native.checked()  # its probe runs the compiled path
    _closed_loop(monkeypatch)
    traj = integrate(model.make_rhs(), z0, cfg)
    assert traj.states.tobytes() == expected.states.tobytes()
    assert np.array_equal(traj.picard_iters, expected.picard_iters)


@pytest.mark.parametrize("tag", VARIANT_TAGS)
def test_a_counted_rhs_takes_the_numpy_path_and_counts_every_evaluation(pipe, monkeypatch, tag):
    # the benchmark's tracer counts through make_rhs(g=EvalCounter(...)):
    # s evaluations per call for sp-deim, n otherwise, one call per update
    model = pipe["models"][tag]
    cfg = IntegratorConfig(dt=0.01, t_final=0.5)
    z0 = model.initial_coefficients(pipe["z0"])
    expected = integrate(model.make_rhs(), z0, cfg)
    _closed_loop(monkeypatch)
    counter = EvalCounter(np.sin)
    traj = integrate(model.make_rhs(g=counter), z0, cfg)
    assert traj.states.tobytes() == expected.states.tobytes()
    assert counter.calls == int(np.sum(traj.picard_iters)) > 0
    assert counter.scalars == counter.calls * (model.s or model.n)


def test_an_observer_is_called_once_per_step(pipe, monkeypatch):
    model = pipe["models"]["sp-deim-2"]
    cfg = IntegratorConfig(dt=0.01, t_final=0.5)
    z0 = model.initial_coefficients(pipe["z0"])
    expected = integrate(model.make_rhs(), z0, cfg)
    _closed_loop(monkeypatch)
    seen = []
    traj = integrate(model.make_rhs(), z0, cfg, lambda k, t, z: seen.append((k, t, z.copy())))
    assert [k for k, _, _ in seen] == list(range(1, cfg.step_count() + 1))
    assert [t for _, t, _ in seen] == [k * cfg.dt for k, _, _ in seen]
    assert np.array_equal(np.array([z for _, _, z in seen]), expected.states[1:])
    assert traj.states.tobytes() == expected.states.tobytes()


def test_interpolation_indices_must_be_distinct_integers_in_range(pipe):
    # floats would be truncated ([1.2, 1.7, 5.0] to [1, 1, 5]) and booleans
    # read as 0 and 1; unsigned 64-bit indices are the artifact's own
    fom, (bu, bv) = pipe["fom"], pipe["bases"][False]
    n, zero = fom.n, np.zeros(fom.n)
    variant = RomVariant.from_tag("sp-deim-1")
    for indices in ([3, 3], [-1, 4], [2, n], [], [1.2, 1.7, 5.0], [1.0, 4.0, 6.0],
                    [True, False, True], [[1, 2]]):
        weights = np.ones(np.size(indices))
        with pytest.raises(ValueError, match="distinct integers"):
            ReducedModel(variant, fom, bu.phi, bv.phi, zero, zero, indices, weights)
    for indices in ([1, 4, 6], np.array([1, 4, 6], dtype="<u8"), np.array([1, 4, 6], np.int32)):
        model = ReducedModel(variant, fom, bu.phi, bv.phi, zero, zero, indices, np.ones(3))
        assert model.deim_indices.dtype == np.int64
        assert model.deim_indices.tolist() == [1, 4, 6]


def test_g_rom_energy_drift_is_model_level(pipe):
    # negative control: the Galerkin drift neither meets 1e-8 nor shrinks
    # with the time step, nor vanishes under the energy-conserving AVF step
    model = pipe["models"]["g-rom"]
    coarse = _max_drift(model, pipe["z0"], 0.01, 0.5)
    fine = _max_drift(model, pipe["z0"], 0.0025, 0.5)
    assert coarse > 1e-5
    assert fine > 1e-5
    assert 0.5 <= coarse / fine <= 2.0
    avf = _max_drift(model, pipe["z0"], 0.01, 0.5, avf=True)
    assert avf > 1e-5
    assert 0.5 <= coarse / avf <= 2.0


def test_make_step_needs_segment_mean(pipe):
    plain = dataclasses.replace(pipe["fom"], g_avg=None)
    model = build_rom(RomVariant.from_tag("sp-pod-1"), *pipe["bases"][False], plain)
    with pytest.raises(ValueError, match="g_avg"):
        model.make_step(IntegratorConfig())


# ---------------------------------------------------------------------------
# Artifact persistence.


def test_artifact_roundtrip_preserves_behavior(tmp_path, pipe):
    fom = pipe["fom"]
    for tag, model in pipe["models"].items():
        path = tmp_path / f"{tag}.bin"
        save_rom(model, path)
        back = load_rom(path, fom)
        assert back.tag == model.tag
        assert back.phi_u.tobytes() == model.phi_u.tobytes()
        assert back.u_ref.tobytes() == model.u_ref.tobytes()
        for z in random_reduced_states(model, 3):
            assert np.all(back.rhs(z) == model.rhs(z))
            assert back.hamiltonian(z) == model.hamiltonian(z)
        # re-saving the loaded model reproduces the file byte for byte
        again = tmp_path / f"{tag}-again.bin"
        save_rom(back, again)
        assert again.read_bytes() == path.read_bytes()


def test_artifact_dimension_mismatch_detected(tmp_path, pipe):
    model = pipe["models"]["sp-pod-1"]
    path = tmp_path / "rom.bin"
    save_rom(model, path)
    other = assemble_wave_fom(WaveConfig(n=model.n + 2))
    with pytest.raises(ValueError):
        load_rom(path, other)


def test_artifact_at_another_wave_speed_projects_that_system(tmp_path, pipe):
    # the artifact holds no operator: loading it against a system with
    # twice the wave speed scales A, and so a_red and lin_u, by (c2/c1)^2
    model = pipe["models"]["sp-pod-2"]
    path = tmp_path / "rom.bin"
    save_rom(model, path)
    cfg = pipe["cfg"]
    faster = WaveConfig(n=cfg.n, c_speed=2 * cfg.c_speed, length=cfg.length)
    back = load_rom(path, assemble_wave_fom(faster))
    for name in ("a_red", "lin_u"):
        want = 4.0 * getattr(model, name)
        assert_allclose(getattr(back, name), want, rtol=0, atol=1e-14 * np.max(np.abs(want)))
    assert back.cuv.tobytes() == model.cuv.tobytes()
