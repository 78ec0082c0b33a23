import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import check_skew, dense_energy, dense_operators
from hamrom.integrator import IntegratorConfig, integrate, integrate_steps, picard_solve
from hamrom.wave import (
    WaveConfig,
    assemble_wave_fom,
    build_laplacian,
    bump_spline,
    initial_state,
    make_wave_energy,
    make_wave_rhs,
    sin_average,
    spline_initial_condition,
)


def test_laplacian_default_coefficients():
    lap = build_laplacian(WaveConfig())
    assert_allclose(lap[0, 1], 2500.0)
    assert_allclose(lap.diagonal(), -5000.0)


def test_laplacian_annihilates_constants():
    lap = build_laplacian(WaveConfig(n=32))
    assert np.max(np.abs(lap.toarray() @ np.ones(32))) <= 1e-9


def test_laplacian_circulant_eigenvalues():
    cfg = WaveConfig(n=4)
    lap = build_laplacian(cfg)
    eig = np.sort(np.linalg.eigvalsh(lap.toarray()))
    j = np.arange(4)
    expected = np.sort(-4.0 * lap[0, 1] * np.sin(np.pi * j / 4) ** 2)
    assert_allclose(eig, expected, atol=1e-9)


def test_laplacian_negative_semidefinite():
    for n in (8, 33, 64):
        lap = build_laplacian(WaveConfig(n=n))
        assert np.max(np.linalg.eigvalsh(lap.toarray())) <= 1e-9


def test_too_few_points_rejected():
    with pytest.raises(ValueError):
        WaveConfig(n=2)


def test_spline_profile_values():
    assert bump_spline(0.0) == 1.0
    # continuity at the branch boundary
    assert_allclose(bump_spline(1.0), 0.25)
    assert_allclose(0.25 * (2.0 - 1.0) ** 3, 0.25)
    assert bump_spline(2.5) == 0.0


def test_initial_condition_support():
    cfg = WaveConfig()
    u0 = spline_initial_condition(cfg)
    x = cfg.grid()
    outside = np.abs(x - 0.5) > 0.2
    assert np.all(u0[outside] == 0.0)
    assert_allclose(np.max(u0), 1.0, rtol=1e-12)  # peak at x = 0.5


def test_assembled_operators_structure(small_wave):
    fom = small_wave["fom"]
    n = small_wave["cfg"].n
    D, Q, c = dense_operators(fom)
    assert check_skew(D, 1e-14)
    assert_allclose(Q[n:, n:], np.eye(n))
    assert np.all(c[:n] == 1.0) and np.all(c[n:] == 0.0)


def test_rhs_matches_block_formula(small_wave):
    cfg, fom = small_wave["cfg"], small_wave["fom"]
    n = cfg.n
    lap = build_laplacian(cfg)
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = rng.standard_normal(2 * n)
        u, v = z[:n], z[n:]
        expected = np.concatenate([v, lap.toarray() @ u - np.sin(u)])
        assert_allclose(fom.rhs(z), expected, atol=1e-14 * max(1, np.max(np.abs(expected))))
        assert_allclose(make_wave_rhs(cfg)(z), expected, atol=1e-13)


def test_rhs_at_rest_initial_state(small_wave):
    cfg, fom = small_wave["cfg"], small_wave["fom"]
    n = cfg.n
    z0 = small_wave["z0"]
    out = fom.rhs(z0)
    assert_allclose(out[:n], np.zeros(n))  # u-block carries v = 0
    lap = build_laplacian(cfg)
    assert_allclose(out[n:], lap.toarray() @ z0[:n] - np.sin(z0[:n]), atol=1e-13)


def test_energy_matches_literal_formula(small_wave):
    cfg, fom = small_wave["cfg"], small_wave["fom"]
    n = cfg.n
    lap = build_laplacian(cfg)
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = rng.standard_normal(2 * n)
        u, v = z[:n], z[n:]
        literal = 0.5 * v @ v - 0.5 * u @ (lap.toarray() @ u) + np.sum(1.0 - np.cos(u))
        assert_allclose(dense_energy(fom, z), literal, rtol=1e-13)
        assert_allclose(make_wave_energy(cfg)(z), literal, rtol=1e-13)


def test_reference_energy_value():
    # benchmark-scale check of the initial discrete energy
    cfg = WaveConfig()
    energy = make_wave_energy(cfg)(initial_state(cfg))
    assert abs(energy * cfg.dx - 1.258e-1) <= 0.005 * 1.258e-1


def test_linear_wave_energy_exactly_conserved():
    # with the nonlinearity off, the energy is a quadratic invariant and the
    # midpoint rule preserves it to the fixed-point tolerance
    cfg = WaveConfig(n=64)
    lap = build_laplacian(cfg)
    n = cfg.n

    def f(z):
        return np.concatenate([z[n:], lap @ z[:n]])

    def quad_energy(z):
        return 0.5 * z[n:] @ z[n:] - 0.5 * z[:n] @ (lap @ z[:n])

    icfg = IntegratorConfig(dt=0.01, t_final=1.0)
    traj = integrate(f, initial_state(cfg), icfg)
    e = np.array([quad_energy(z) for z in traj.states])
    assert np.max(np.abs(e - e[0])) <= 100 * 1e-12 * max(1.0, abs(e[0]))


# ---------------------------------------------------------------------------
# AVF step of the full-order model.


def test_sin_average_is_exact_segment_mean(rng):
    x0 = rng.uniform(-3.0, 3.0, 200)
    x1 = x0 + rng.uniform(-2.0, 2.0, 200)
    assert_allclose(sin_average(x0, x1), (np.cos(x0) - np.cos(x1)) / (x1 - x0),
                    rtol=1e-9, atol=1e-12)
    # no cancellation as the segment shrinks: compare with the Taylor
    # expansion sin(m) (1 - h^2/6) of the mean about the midpoint m
    for h in (1e-6, 1e-9, 1e-13):
        assert_allclose(sin_average(x0 - h, x0 + h), np.sin(x0) * (1.0 - h * h / 6.0),
                        rtol=1e-15, atol=1e-15)
    assert np.all(sin_average(x0, x0) == np.sin(x0))


def test_wave_step_without_nonlinearity_is_cayley_map():
    # with the nonlinearity off, AVF is the midpoint rule, whose step on the
    # linear wave system is the Cayley map of its generator
    cfg = WaveConfig(n=16)
    n = cfg.n
    icfg = IntegratorConfig(dt=0.01, t_final=0.2)
    lap = build_laplacian(cfg)
    gen = np.zeros((2 * n, 2 * n))
    gen[:n, n:] = np.eye(n)
    gen[n:, :n] = lap.toarray()
    eye = np.eye(2 * n)
    cayley = np.linalg.solve(eye - 0.5 * icfg.dt * gen, eye + 0.5 * icfg.dt * gen)
    zero = lambda x: np.zeros_like(x)  # noqa: E731
    linear_fom = dataclasses.replace(
        assemble_wave_fom(cfg), G=zero, g=zero, g_avg=lambda x0, x1: np.zeros_like(x0)
    )
    step = linear_fom.make_step(icfg)
    z = initial_state(cfg)
    for _ in range(5):
        z_next, _ = step(z, z)
        assert_allclose(z_next, cayley @ z, atol=1e-12)
        z = z_next

    def linear(y):
        return np.concatenate([y[n:], lap @ y[:n]])

    factored = integrate_steps(step, initial_state(cfg), icfg)
    picard = integrate(linear, initial_state(cfg), icfg)
    assert np.max(np.abs(factored.states - picard.states)) <= 1e-10


def test_factored_wave_step_matches_unfactored_avf_solve():
    # the pipeline's step against a plain Picard solve of the AVF equation
    # z1 = z0 + dt * (v_m, A u_m - mean of sin over [u0, u1])
    cfg = WaveConfig(n=40)
    n = cfg.n
    icfg = IntegratorConfig(dt=0.01, t_final=1.0)
    dt = icfg.dt
    A = build_laplacian(cfg)

    def unfactored(z, start):
        u0 = z[:n]

        def update(z1):
            zm = 0.5 * (z + z1)
            return z + dt * np.concatenate(
                [zm[n:], A @ zm[:n] - sin_average(u0, z1[:n])]
            )

        return picard_solve(update, start, icfg)

    z0 = initial_state(cfg)
    factored = integrate_steps(assemble_wave_fom(cfg).make_step(icfg), z0, icfg)
    reference = integrate_steps(unfactored, z0, icfg)
    assert np.max(np.abs(factored.states - reference.states)) <= 1e-9
    assert np.mean(factored.picard_iters) < np.mean(reference.picard_iters)
    energy = make_wave_energy(cfg)
    h = np.array([energy(z) for z in factored.states])
    assert np.max(np.abs(h - h[0])) <= 1e-12 * abs(h[0])


def test_extrapolated_first_iterate_changes_work_not_result():
    # starting each solve from the extrapolated state instead of the
    # current one saves iterations; both runs meet the same tolerance
    cfg = WaveConfig(n=40)
    icfg = IntegratorConfig(dt=0.01, t_final=1.0)
    step = assemble_wave_fom(cfg).make_step(icfg)
    z0 = initial_state(cfg)
    extrapolated = integrate_steps(step, z0, icfg)
    from_state = integrate_steps(lambda z, start: step(z, z), z0, icfg)
    assert np.max(np.abs(extrapolated.states - from_state.states)) <= 1e-11
    assert np.mean(extrapolated.picard_iters) < np.mean(from_state.picard_iters)
    energy = make_wave_energy(cfg)
    h = np.array([energy(z) for z in extrapolated.states])
    assert np.max(np.abs(h - h[0])) <= 1e-12 * abs(h[0])
