import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hamrom.integrator import IntegratorConfig, Trajectory, integrate
from hamrom.metrics import (
    RunReport,
    e_inf,
    energy_series_of_states,
    hamiltonian_series,
    time_online,
    write_series_csv,
)
from hamrom.pod import PodBasis
from hamrom.rom import RomVariant, build_rom
from hamrom.wave import (
    WaveConfig,
    assemble_wave_fom,
    build_laplacian,
    initial_state,
    make_wave_energy,
    make_wave_rhs,
)


@pytest.fixture(scope="module")
def identity_setup():
    cfg = WaveConfig(n=12)
    fom = assemble_wave_fom(cfg)
    eye = PodBasis(np.eye(cfg.n), np.ones(cfg.n))
    model = build_rom(RomVariant.from_tag("sp-pod-1"), eye, eye, fom)
    traj = integrate(
        make_wave_rhs(cfg), initial_state(cfg), IntegratorConfig(dt=0.01, t_final=0.5)
    )
    return cfg, model, traj


def test_e_inf_zero_for_identity_reconstruction(identity_setup):
    _, model, traj = identity_setup
    assert e_inf(traj, traj, model) == 0.0


def test_e_inf_single_step_toy():
    cfg = WaveConfig(n=3)
    fom = assemble_wave_fom(cfg)
    eye = PodBasis(np.eye(3), np.ones(3))
    model = build_rom(RomVariant.from_tag("sp-pod-1"), eye, eye, fom)
    v = np.array([0.2, -0.1, 0.4])
    full = Trajectory(np.concatenate([[1.0, 0, 0], v])[None, :], np.zeros(1))
    reduced = Trajectory(np.concatenate([[0.0, 0, 0], v])[None, :], np.zeros(1))
    assert_allclose(e_inf(full, reduced, model), 1.0)


def test_e_inf_independent_of_chunk(identity_setup):
    _, model, traj = identity_setup
    rng = np.random.default_rng(0)
    coeffs = Trajectory(traj.states + 0.01 * rng.standard_normal(traj.states.shape), traj.times)
    whole = e_inf(traj, coeffs, model)
    assert e_inf(traj, coeffs, model, chunk=7) == whole
    assert whole > 0


def test_e_inf_length_mismatch_rejected(identity_setup):
    _, model, traj = identity_setup
    short = Trajectory(traj.states[:-1], traj.times[:-1])
    with pytest.raises(ValueError):
        e_inf(traj, short, model)


def test_hamiltonian_series_offset_and_drift(identity_setup):
    cfg, model, traj = identity_setup
    dx = cfg.dx
    fom_series = energy_series_of_states(make_wave_energy(cfg), traj, dx)
    series, offset, drift = hamiltonian_series(model, traj, dx, fom_series)
    # identity reconstruction: the reduced energy is the full energy
    assert offset <= 1e-14
    assert drift == np.max(np.abs(series - series[0]))
    _, no_offset, _ = hamiltonian_series(model, traj, dx)
    assert no_offset is None


def test_linear_energy_series_constant():
    # quadratic invariant: the series is flat to the solver tolerance
    cfg = WaveConfig(n=24)
    lap = build_laplacian(cfg)
    n = cfg.n

    def f(z):
        return np.concatenate([z[n:], lap @ z[:n]])

    def energy(states):  # one energy per row of a stack of states
        u, v = states[:, :n], states[:, n:]
        return 0.5 * np.sum(v * v, axis=1) - 0.5 * np.sum(u * (lap @ u.T).T, axis=1)

    traj = integrate(f, initial_state(cfg), IntegratorConfig(dt=0.01, t_final=1.0))
    series = energy_series_of_states(energy, traj, cfg.dx)
    assert np.max(np.abs(series - series[0])) <= 1e-10 * max(1.0, abs(series[0]))


def test_time_online_empty_call_is_fast():
    _, seconds = time_online(lambda: None)
    assert 0.0 <= seconds < 0.05


def test_run_report_json_roundtrip():
    report = RunReport(
        variant="sp-deim-2",
        r=10,
        s=20,
        e_inf=0.0349,
        h_offset_max=7e-10,
        h_drift_max=1.7e-7,
        online_seconds=0.9,
        steps=5000,
        picard_avg_iters=12.5,
    )
    assert RunReport(**json.loads(report.to_json())) == report
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "variant", "r", "s", "e_inf", "h_offset_max", "h_drift_max",
        "online_seconds", "steps", "picard_avg_iters",
    }


def test_series_csv_format(tmp_path):
    # numpy arrays, as the pipeline passes them
    path = tmp_path / "series.csv"
    times = np.array([0.0, 0.5])
    values = np.array([1.25, 0.1 + 0.2])
    write_series_csv(path, times, values)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,value"
    assert lines[1] == "0.0,1.25"
    assert len(lines) == 3
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.tobytes() == np.column_stack([times, values]).tobytes()
