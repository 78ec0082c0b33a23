import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hamrom.integrator import IntegratorConfig, Trajectory, integrate
from hamrom.snapshots import (
    FileFormatError,
    SnapshotSet,
    collect,
    load_snapshots,
    save_snapshots,
    shift,
)
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


def test_roundtrip_is_bit_exact(tmp_path, rng):
    cols = rng.standard_normal((10, 7))
    base = SnapshotSet(cols, np.arange(7) * 3, "nonlinear-G")
    path = tmp_path / "snap.bin"
    save_snapshots(base, path)
    back = load_snapshots(path)
    assert back.columns.tobytes() == base.columns.tobytes()
    assert np.all(back.sample_steps == base.sample_steps)
    assert back.kind == base.kind and back.shift_ref is None


def test_roundtrip_property_many_random_sets(tmp_path, rng):
    for i in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 5))
        base = SnapshotSet(
            rng.standard_normal((n, m)),
            np.sort(rng.choice(1000, size=m, replace=False)),
            "state-v",
            shift_ref=rng.standard_normal(n) if rng.random() < 0.5 else None,
        )
        path = tmp_path / f"s{i}.bin"
        save_snapshots(base, path)
        back = load_snapshots(path)
        assert back.columns.tobytes() == base.columns.tobytes()
        assert np.all(back.sample_steps == base.sample_steps)
        if base.shift_ref is None:
            assert back.shift_ref is None
        else:
            assert back.shift_ref.tobytes() == base.shift_ref.tobytes()


def test_header_fields_benchmark_sized(tmp_path, rng):
    cols = rng.standard_normal((500, 101))
    base = shift(SnapshotSet(cols, 50 * np.arange(101), "state-u"), cols[:, 0].copy())
    path = tmp_path / "big.bin"
    save_snapshots(base, path)
    back = load_snapshots(path)
    assert (back.n, back.count, back.kind) == (500, 101, "state-u")
    assert back.shift_ref is not None


def test_truncated_file_names_missing_section(tmp_path, rng):
    base = SnapshotSet(rng.standard_normal((6, 4)), np.arange(4), "state-u")
    path = tmp_path / "snap.bin"
    save_snapshots(base, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 10])
    with pytest.raises(FileFormatError, match="column data"):
        load_snapshots(path)
    path.write_bytes(data[:40])  # header is 33 bytes; cut inside the steps block
    with pytest.raises(FileFormatError, match="sample steps"):
        load_snapshots(path)


def test_oversized_header_rejected_before_allocation(tmp_path, rng):
    # a header claiming 2^39 rows (4 TiB of columns) over a few bytes of data
    path = tmp_path / "snap.bin"
    save_snapshots(SnapshotSet(rng.standard_normal((6, 1)), [0], "state-u"), path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<Q", data, 16, 1 << 39)
    path.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match="column data"):
        load_snapshots(path)


def test_trailing_bytes_rejected(tmp_path, rng):
    path = tmp_path / "snap.bin"
    save_snapshots(SnapshotSet(rng.standard_normal((4, 2)), [0, 1], "state-u"), path)
    path.write_bytes(path.read_bytes() + b"\0" * 24)
    with pytest.raises(FileFormatError, match="trailing data"):
        load_snapshots(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTSNAP!" + b"\0" * 64)
    with pytest.raises(FileFormatError, match="magic"):
        load_snapshots(path)


def test_empty_trajectory_rejected():
    with pytest.raises(ValueError):
        collect(fake_trajectory(5), 0, lambda z: z, "state-u")
    with pytest.raises(ValueError):
        SnapshotSet(np.zeros((3, 0)), [], "state-u")
