import numpy as np
import pytest

from hamrom.integrator import IntegratorConfig, Trajectory, integrate
from hamrom.snapshots import SnapshotSet, collect, shift
from hamrom.wave import WaveConfig, initial_state, make_wave_rhs, spline_initial_condition


def fake_trajectory(steps, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(rng.standard_normal((steps + 1, dim)), np.arange(steps + 1.0))


def test_stride_counting_matches_benchmark():
    traj = fake_trajectory(5000)
    out = collect(traj, 50, lambda z: z, "state-u")
    assert out.count == 101
    assert out.sample_steps[0] == 0 and out.sample_steps[-1] == 5000


def test_stride_equal_to_length_keeps_endpoints():
    traj = fake_trajectory(120)
    out = collect(traj, 120, lambda z: z, "state-u")
    assert out.count == 2
    assert list(out.sample_steps) == [0, 120]


def test_final_step_always_included():
    traj = fake_trajectory(105)
    out = collect(traj, 50, lambda z: z, "state-u")
    assert list(out.sample_steps) == [0, 50, 100, 105]


def test_sample_steps_increasing_from_zero():
    out = collect(fake_trajectory(40), 7, lambda z: z, "state-v")
    steps = out.sample_steps
    assert steps[0] == 0
    assert np.all(np.diff(steps) > 0)


def test_first_column_is_initial_condition():
    cfg = WaveConfig(n=16)
    traj = integrate(
        make_wave_rhs(cfg), initial_state(cfg), IntegratorConfig(dt=0.01, t_final=0.2)
    )
    out = collect(traj, 5, lambda z: z[: cfg.n], "state-u")
    assert np.all(out.columns[:, 0] == spline_initial_condition(cfg))


def test_shift_by_first_column_zeroes_it(rng):
    base = collect(fake_trajectory(30), 10, lambda z: z, "state-u")
    shifted = shift(base, base.columns[:, 0])
    assert np.max(np.abs(shifted.columns[:, 0])) == 0.0
    assert shifted.shift_ref is not None


def test_shift_by_zero_only_records_reference():
    base = collect(fake_trajectory(30), 10, lambda z: z, "state-u")
    shifted = shift(base, np.zeros(base.n))
    assert np.all(shifted.columns == base.columns)
    assert np.all(shifted.shift_ref == 0.0)


def test_double_shift_rejected():
    base = collect(fake_trajectory(30), 10, lambda z: z, "state-u")
    shifted = shift(base, base.columns[:, 0])
    with pytest.raises(ValueError):
        shift(shifted, base.columns[:, 0])


def test_shifted_svd_matches_explicit_oracle():
    # left singular vectors of the shifted set agree with a dense SVD of the
    # explicitly shifted matrix (subspace comparison, r = 5)
    cfg = WaveConfig(n=40)
    traj = integrate(
        make_wave_rhs(cfg), initial_state(cfg), IntegratorConfig(dt=0.01, t_final=2.0)
    )
    base = collect(traj, 10, lambda z: z[: cfg.n], "state-u")
    ref = base.columns[:, 0]
    shifted = shift(base, ref)
    left = np.linalg.svd(shifted.columns, full_matrices=False)[0][:, :5]
    oracle = np.linalg.svd(base.columns - ref[:, None], full_matrices=False)[0][:, :5]
    angles = np.linalg.svd(left.T @ oracle, compute_uv=False)
    assert np.max(np.abs(angles - 1.0)) < 1e-10  # principal angles ~ 0


def test_empty_trajectory_rejected():
    with pytest.raises(ValueError):
        collect(fake_trajectory(5), 0, lambda z: z, "state-u")
    with pytest.raises(ValueError):
        SnapshotSet(np.zeros((3, 0)), [], "state-u")
