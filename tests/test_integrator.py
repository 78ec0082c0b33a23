import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import hamrom
from hamrom import integrator
from hamrom._binio import FileFormatError
from hamrom.integrator import (
    IntegratorConfig,
    PicardDivergenceError,
    Trajectory,
    integrate,
    integrate_steps,
    load_trajectory,
    open_trajectory,
    picard_solve,
    save_trajectory,
    trajectory_writer,
)
from hamrom.wave import WaveConfig, assemble_wave_fom, build_laplacian, initial_state


def oscillator(z):
    return np.array([z[1], -z[0]])


def midpoint_step(f, z, cfg):
    """One implicit midpoint step of size cfg.dt (cfg.t_final == cfg.dt)."""
    return integrate(f, z, cfg).states[-1]


def test_zero_rhs_is_identity():
    cfg = IntegratorConfig(dt=0.1, t_final=0.1)
    z = np.array([1.0, -2.0, 3.0])
    out = midpoint_step(lambda y: np.zeros_like(y), z, cfg)
    assert np.all(out == z)


def test_oscillator_preserves_norm():
    cfg = IntegratorConfig(dt=0.05, t_final=0.05)
    z1 = midpoint_step(oscillator, np.array([1.0, 0.0]), cfg)
    assert abs(z1 @ z1 - 1.0) <= 100 * cfg.picard_tol


def test_oscillator_matches_cayley_map():
    # closed-form midpoint solution of the linear oscillator
    cfg = IntegratorConfig(dt=0.05, t_final=0.05)
    dt = cfg.dt
    z = np.array([0.3, -0.7])
    expected = np.array(
        [
            (1 - dt**2 / 4) * z[0] + dt * z[1],
            -dt * z[0] + (1 - dt**2 / 4) * z[1],
        ]
    ) / (1 + dt**2 / 4)
    assert_allclose(midpoint_step(oscillator, z, cfg), expected, atol=10 * cfg.picard_tol)


def test_zero_steps_returns_initial_state():
    traj = integrate(oscillator, np.array([1.0, 0.0]), IntegratorConfig(dt=0.1, t_final=0.0))
    assert len(traj) == 1
    assert np.all(traj.states[0] == np.array([1.0, 0.0]))


def test_fractional_step_count_rejected():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.3, t_final=1.0).step_count()


def _linear_wave(n):
    lap = build_laplacian(WaveConfig(n=n))

    def f(z):
        return np.concatenate([z[n:], lap @ z[:n]])

    gen = np.zeros((2 * n, 2 * n))
    gen[:n, n:] = np.eye(n)
    gen[n:, :n] = lap.toarray()
    return f, gen


def test_linear_wave_matches_matrix_exponential():
    n = 32
    f, gen = _linear_wave(n)
    z0 = initial_state(WaveConfig(n=n))
    cfg = IntegratorConfig(dt=0.01, t_final=2.0)
    traj = integrate(f, z0, cfg)
    exact = scipy.linalg.expm(cfg.t_final * gen) @ z0
    assert np.max(np.abs(traj.states[-1] - exact)) <= 1e-3


def test_second_order_convergence():
    n = 32
    f, gen = _linear_wave(n)
    z0 = initial_state(WaveConfig(n=n))
    exact = scipy.linalg.expm(1.0 * gen) @ z0
    errors = []
    for dt in (0.02, 0.01):
        traj = integrate(f, z0, IntegratorConfig(dt=dt, t_final=1.0))
        errors.append(np.linalg.norm(traj.states[-1] - exact))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_quadratic_invariant_accumulation(rng):
    # S symmetric with S D skew-symmetric makes 0.5 z'Sz invariant; the
    # midpoint rule preserves it up to the per-step solve tolerance
    n = 6
    m = rng.standard_normal((n, n))
    S = m @ m.T + n * np.eye(n)
    d = rng.standard_normal((n, n))
    D = d - d.T

    def f(z):
        return D @ (S @ z)

    cfg = IntegratorConfig(dt=0.01, t_final=1.0)
    traj = integrate(f, rng.standard_normal(n), cfg)
    inv = np.array([0.5 * z @ (S @ z) for z in traj.states])
    per_step = 10 * cfg.picard_tol * np.max(np.abs(S)) * np.max(np.abs(traj.states)) ** 2
    assert np.max(np.abs(inv - inv[0])) <= traj.steps * max(per_step, 1e-14)


def test_time_reversibility():
    # stepping the negated rhs is the dt -> -dt step of the midpoint rule
    cfg = IntegratorConfig(dt=0.05, t_final=0.05)
    z = np.array([0.8, 0.2])
    forward = midpoint_step(np.sin, z, cfg)  # smooth nonlinear rhs
    returned = midpoint_step(lambda y: -np.sin(y), forward, cfg)
    assert np.max(np.abs(returned - z)) <= 100 * cfg.picard_tol


def test_picard_divergence_reports_step():
    # dt far beyond the contraction limit of the stiff linear problem
    stiff = lambda z: -1e6 * z  # noqa: E731
    cfg = IntegratorConfig(dt=0.1, t_final=0.5, picard_max_iter=20)
    with pytest.raises(PicardDivergenceError) as info:
        integrate(stiff, np.ones(3), cfg)
    assert info.value.step == 0
    assert info.value.iterations == 20
    # the factored AVF step of the wave model fails the same way once dt^2/4
    # times the nonlinearity's slope exceeds one
    wave = WaveConfig(n=16)
    cfg = IntegratorConfig(dt=5.0, t_final=10.0)
    with pytest.raises(PicardDivergenceError) as info:
        integrate_steps(assemble_wave_fom(wave).make_step(cfg), initial_state(wave), cfg)
    assert info.value.step == 0
    assert info.value.iterations == cfg.picard_max_iter


def test_non_finite_update_fails_at_first_iteration():
    cfg = IntegratorConfig(picard_max_iter=100)
    with pytest.raises(PicardDivergenceError) as info:
        picard_solve(lambda x: x + np.nan, np.zeros(3), cfg)
    assert info.value.iterations == 1
    assert np.isnan(info.value.residual)
    # an overflowing iterate stops as soon as its update is infinite; the
    # relative tolerance, infinite too, must not accept it as converged
    with pytest.raises(PicardDivergenceError) as info, np.errstate(over="ignore"):
        picard_solve(lambda x: 1e300 * (x + 1.0), np.zeros(2), cfg)
    assert info.value.iterations == 2
    # integrate attaches the step; the model label is optional
    with pytest.raises(PicardDivergenceError, match="at step 0: residual inf"):
        integrate(lambda z: np.full_like(z, np.inf), np.ones(2), cfg)
    err = PicardDivergenceError(1, float("nan"), step=4, model="sp-pod-1 r=10")
    assert "in sp-pod-1 r=10 at step 4" in str(err)


def test_observer_called_each_step():
    seen = []
    cfg = IntegratorConfig(dt=0.1, t_final=0.5)
    integrate(oscillator, np.array([1.0, 0.0]), cfg, observer=lambda k, t, z: seen.append((k, t)))
    assert [k for k, _ in seen] == [1, 2, 3, 4, 5]
    assert_allclose([t for _, t in seen], 0.1 * np.arange(1, 6))


def test_first_iterate_is_state_then_degree_7_extrapolation():
    # step k starts its solve from z_k for k < 7, then from
    # 8 z_k - 28 z_{k-1} + 56 z_{k-2} - 70 z_{k-3} + 56 z_{k-4}
    # - 28 z_{k-5} + 8 z_{k-6} - z_{k-7}, which is exact on a degree-7
    # path; integer values keep the arithmetic exact
    def path(k):
        return np.array([k**7 - 3.0 * k**4 + 5.0, 2.0 * k**6 - k**5 + 3.0 * k - 1.0])

    weights = [8, -28, 56, -70, 56, -28, 8, -1]
    seen = []

    def step(z, start):
        seen.append((z.copy(), start.copy()))
        return path(len(seen)), 1

    traj = integrate_steps(step, path(0), IntegratorConfig(dt=1.0, t_final=12.0))
    s = traj.states
    assert len(seen) == 12
    for k, (z, start) in enumerate(seen):
        assert np.array_equal(z, s[k])
        if k < 7:
            assert np.array_equal(start, z)
        else:
            expected = sum(w * s[k - j] for j, w in enumerate(weights))
            assert np.array_equal(start, expected)
            assert np.array_equal(start, path(k + 1))


def test_trajectory_roundtrip(tmp_path, rng):
    states = rng.standard_normal((9, 4))
    traj = Trajectory(states, 0.25 * np.arange(9))
    path = tmp_path / "traj.bin"
    save_trajectory(traj, path, dt=0.25)
    back = load_trajectory(path)
    assert back.states.tobytes() == states.tobytes()
    assert_allclose(back.times, traj.times)


def test_trajectory_roundtrip_keeps_the_step_of_the_run(tmp_path):
    # without dt= the file stores traj.dt: a single state has no time
    # difference, and one after t0 != 0 is off by rounding
    path = tmp_path / "traj.bin"
    cfg = IntegratorConfig(dt=0.01, t_final=0.0)
    single = integrate_steps(lambda z, start: (z, 1), np.ones(3), cfg)
    save_trajectory(single, path)
    back = load_trajectory(path)
    assert len(back) == 1 and back.dt == 0.01
    assert back.states.tobytes() == single.states.tobytes()
    shifted = Trajectory(np.zeros((3, 2)), 0.7 + 0.1 * np.arange(3), dt=0.1)
    assert shifted.times[1] - shifted.times[0] != 0.1
    save_trajectory(shifted, path)
    assert load_trajectory(path).dt == 0.1


def test_a_failed_write_leaves_no_temporary_file(tmp_path, rng, monkeypatch):
    # the old file stays as it was, and nothing else is left beside it
    path = tmp_path / "traj.bin"
    save_trajectory(Trajectory(rng.standard_normal((4, 3)), np.arange(4.0)), path, dt=1.0)
    old = path.read_bytes()

    def full_disk(fh, arr):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(integrator, "write_array", full_disk)
    with pytest.raises(OSError, match="No space"):
        save_trajectory(Trajectory(np.zeros((2, 3)), np.arange(2.0)), path, dt=1.0)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="3 states announced, 2 written"):
        with trajectory_writer(path, 3, 3, 1.0) as append:
            append(np.zeros((2, 3)))
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == old


def test_concurrent_writers_do_not_share_a_temporary_file(tmp_path, rng):
    # the writer that finishes last wins; neither sees the other's rows
    path = tmp_path / "traj.bin"
    first, second = rng.standard_normal((2, 5, 3))
    with trajectory_writer(path, 3, 5, 0.5) as append_first:
        append_first(first[:2])
        with trajectory_writer(path, 3, 5, 0.5) as append_second:
            append_second(second)
            assert len(list(tmp_path.iterdir())) == 2
        assert load_trajectory(path).states.tobytes() == second.tobytes()
        append_first(first[2:])
    assert load_trajectory(path).states.tobytes() == first.tobytes()
    assert list(tmp_path.iterdir()) == [path]


def test_a_trajectory_file_reads_the_states_it_is_asked_for(tmp_path, rng):
    path = tmp_path / "traj.bin"
    states = rng.standard_normal((10, 4))
    save_trajectory(Trajectory(states, 0.5 + 0.25 * np.arange(10)), path, dt=0.25)
    with open_trajectory(path) as traj:
        assert (len(traj), traj.dim, traj.dt) == (10, 4, 0.25)
        assert np.array_equal(traj.times, load_trajectory(path).times)
        assert traj.rows([9, 0, 4]).tobytes() == states[[9, 0, 4]].tobytes()
        buffer = np.empty((4, 4))
        blocks = [traj.read(start, buffer[: min(4, 10 - start)]).copy() for start in (0, 4, 8)]
        assert np.concatenate(blocks).tobytes() == states.tobytes()
        assert traj.read(8, buffer[:2]).base is buffer
        with pytest.raises(IndexError):
            traj.rows([10])


def test_a_file_truncated_after_its_check_fails_to_read_naming_the_file(tmp_path, rng):
    path = tmp_path / "traj.bin"
    save_trajectory(Trajectory(rng.standard_normal((6, 3)), np.arange(6.0)), path, dt=1.0)
    with open_trajectory(path) as traj:
        os.truncate(path, path.stat().st_size - 8)
        assert traj.rows([4]).shape == (1, 3)
        with pytest.raises(FileFormatError, match=f"{path}: truncated file.*state 5"):
            traj.rows([5])
        with pytest.raises(FileFormatError, match=f"{path}: truncated file.*state 4"):
            traj.read(4, np.empty((2, 3)))


def test_trajectory_truncation_detected(tmp_path, rng):
    path = tmp_path / "traj.bin"
    save_trajectory(Trajectory(rng.standard_normal((5, 3)), np.arange(5.0)), path, dt=1.0)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FileFormatError, match="state data"):
        load_trajectory(path)


def _resident_mb():
    pages = int(open("/proc/self/statm").read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_freed_trajectories_return_their_memory(tmp_path):
    # Freeing a 32 MB array first lets glibc serve later arrays of up to
    # that size from its heap, which keeps them resident after they are
    # freed; trajectory states must not go there.
    np.ones(4_000_000)
    cfg = IntegratorConfig(dt=1.0, t_final=1000.0)
    path = tmp_path / "traj.bin"
    save_trajectory(integrate_steps(lambda z, start: (z, 1), np.zeros(3000), cfg), path)
    for make in (
        lambda: integrate_steps(lambda z, start: (z + 1.0, 1), np.zeros(3000), cfg),
        lambda: load_trajectory(path),
    ):
        before = _resident_mb()
        traj = make()
        traj.states[:] += 1.0  # touch every page (24 MB)
        assert _resident_mb() - before > 20
        del traj
        assert _resident_mb() - before < 4


def test_loaded_trajectory_survives_overwrite_of_its_file(tmp_path):
    # Loaded states map the file.  Truncating it in place would make the
    # next read of those states raise SIGBUS, so the check runs in a child
    # process, where that ends the child and not the test session.
    script = textwrap.dedent(
        f"""
        import numpy as np
        from hamrom.integrator import Trajectory, load_trajectory, save_trajectory

        path = {str(tmp_path / "traj.bin")!r}
        states = np.arange(64_000.0).reshape(4000, 16)  # 500 kB, many pages
        save_trajectory(Trajectory(states, np.arange(4000.0)), path, dt=1.0)
        old = load_trajectory(path)
        save_trajectory(Trajectory(states[:2] + 1.0, np.arange(2.0)), path, dt=1.0)
        assert np.array_equal(old.states, states)
        assert np.array_equal(load_trajectory(path).states, states[:2] + 1.0)
        old.states[:] = 0.0  # writable, and private: the file is unchanged
        assert np.array_equal(load_trajectory(path).states, states[:2] + 1.0)
        """
    )
    src = str(Path(hamrom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, (run.returncode, run.stderr)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.bin"]


def test_oversized_header_rejected_before_allocation(tmp_path, rng):
    # a header claiming 2^18 x 2^18 states (512 GiB) over a few bytes of data
    path = tmp_path / "traj.bin"
    save_trajectory(Trajectory(rng.standard_normal((2, 3)), np.arange(2.0)), path, dt=1.0)
    data = bytearray(path.read_bytes())
    data[12:28] = struct.pack("<QQ", 1 << 18, 1 << 18)
    path.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match="state data"):
        load_trajectory(path)


def test_a_failed_create_leaves_the_file_in_its_way(tmp_path, monkeypatch):
    # a temporary name that is taken already is neither opened nor removed
    monkeypatch.setattr(integrator.os, "urandom", bytes)
    taken = tmp_path / f".trajectory-{bytes(16).hex()}.tmp"
    taken.write_bytes(b"not a trajectory")
    with pytest.raises(FileExistsError):
        save_trajectory(Trajectory(np.zeros((2, 3)), np.arange(2.0)), tmp_path / "t.bin", dt=1.0)
    assert list(tmp_path.iterdir()) == [taken]
    assert taken.read_bytes() == b"not a trajectory"
