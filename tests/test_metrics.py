import json
import math
import re
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import PROPERTY, random_orthonormal
from hamrom import _native, metrics
from hamrom.integrator import (
    IntegratorConfig,
    Trajectory,
    integrate,
    open_trajectory,
    save_trajectory,
)
from hamrom.metrics import (
    RunReport,
    e_inf,
    energy_series_of_states,
    hamiltonian_series,
    read_series_csv,
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


def test_e_inf_independent_of_chunk(identity_setup, monkeypatch):
    _, model, traj = identity_setup
    rng = np.random.default_rng(0)
    coeffs = Trajectory(traj.states + 0.01 * rng.standard_normal(traj.states.shape), traj.times)
    whole = e_inf(traj, coeffs, model)
    monkeypatch.setattr(metrics, "_BLOCK", 7)
    assert e_inf(traj, coeffs, model) == whole
    assert whole > 0


def test_e_inf_equals_column_layout_reference(rng):
    # the former arithmetic: blocks reconstructed as n x m columns,
    # phi @ coeffs.T + ref[:, None], one square root per block
    cfg = WaveConfig(n=40)
    fom = assemble_wave_fom(cfg)
    phi = random_orthonormal(rng, cfg.n, 4)
    basis = PodBasis(phi, np.ones(4), shift_ref=rng.standard_normal(cfg.n))
    model = build_rom(RomVariant.from_tag("sp-pod-2"), basis, basis, fom)
    full = Trajectory(rng.standard_normal((70, 2 * cfg.n)), np.arange(70.0))
    reduced = Trajectory(rng.standard_normal((70, 8)), np.arange(70.0))
    worst = 0.0
    for k in range(0, 70, 32):
        coeffs = reduced.states[k : k + 32]
        U = model.phi_u @ coeffs[:, : model.r_u].T + model.u_ref[:, None]
        V = model.phi_v @ coeffs[:, model.r_u :].T + model.v_ref[:, None]
        du = full.states[k : k + 32, : cfg.n].T - U
        dv = full.states[k : k + 32, cfg.n :].T - V
        worst = max(worst, float(np.sqrt(np.max(du**2 + dv**2))))
    assert e_inf(full, reduced, model) == worst
    # a NaN anywhere is not dropped by the running maximum
    reduced.states[40, 1] = np.nan
    assert np.isnan(e_inf(full, reduced, model))


@pytest.fixture
def e_inf_numpy(monkeypatch):
    """e_inf with `_native.load` forced to None, so by the numpy sweeps."""
    def run(*args):
        with monkeypatch.context() as patch:
            patch.setattr(_native, "load", lambda: None)
            _native.checked.cache_clear()
            try:
                assert _native.checked() is None
                return e_inf(*args)
            finally:
                _native.checked.cache_clear()
    return run


def e_inf_cases(model, rng):
    """(full, reduced) state arrays for `model`, a shifted sp-pod-2 at
    n = 43, where the compiled pass groups the entries of a row in fours
    and ends with three: 70 states in blocks of 32, 32 and 6, one state,
    and NaN or +-inf in the first, a middle or the last block of either,
    in each place of a group and in the last three.  The full states lie
    near the references, 1e3 in size, so the order in which the mismatch
    is summed shows in its rounding."""
    n = model.n
    full = 1e-3 * rng.standard_normal((70, 2 * n))
    full += np.concatenate([model.u_ref, model.v_ref])
    reduced = 1e-3 * rng.standard_normal((70, 8))
    cases = {"ragged": (full, reduced), "one-state": (full[:1], reduced[:1])}
    places = {"first": (3, 3, n), "middle": (40, 42, n + 6), "last": (68, 17, 2 * n - 4)}
    for block, (row, u_column, v_column) in places.items():
        for value in (np.nan, np.inf, -np.inf):
            for side, column in (("full-u", u_column), ("full-v", v_column), ("reduced", 1)):
                states = {"full": full.copy(), "reduced": reduced.copy()}
                states[side.split("-")[0]][row, column] = value
                cases[f"{value}-{side}-{block}"] = (states["full"], states["reduced"])
    return cases


@pytest.fixture(scope="module")
def shifted_model():
    rng = np.random.default_rng(7)
    cfg = WaveConfig(n=43)
    basis = PodBasis(random_orthonormal(rng, cfg.n, 4), np.ones(4),
                     shift_ref=1e3 * rng.standard_normal(cfg.n))
    return build_rom(RomVariant.from_tag("sp-pod-2"), basis, basis, assemble_wave_fom(cfg))


def test_compiled_e_inf_is_numpy_e_inf_bitwise(shifted_model, e_inf_numpy, monkeypatch, rng,
                                              tmp_path):
    # the states are also passed F-ordered and as strided views, and the
    # full ones as a trajectory file, as `online` reads them
    if _native.checked() is None:
        pytest.skip("the compiled AVF loops are unavailable here")

    def numpy_path(*args):
        raise AssertionError("e_inf took the numpy path")

    for label, (full, reduced) in e_inf_cases(shifted_model, rng).items():
        times = np.arange(len(full)) * 0.01
        layouts = {
            "C": (Trajectory(full, times), Trajectory(reduced, times)),
            "F": (Trajectory(np.asfortranarray(full), times),
                  Trajectory(np.repeat(reduced, 2, axis=1)[:, ::2], times)),
        }
        path = tmp_path / f"{label}.bin"
        save_trajectory(layouts["C"][0], path)
        expected = e_inf_numpy(*layouts["C"], shifted_model)
        with open_trajectory(path) as fom_file:
            layouts["file"] = (fom_file, layouts["C"][1])
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "_numpy_mismatch", numpy_path)
                got = {layout: e_inf(*trajs, shifted_model) for layout, trajs in layouts.items()}
            got["numpy-F"] = e_inf_numpy(*layouts["F"], shifted_model)
            got["numpy-file"] = e_inf_numpy(*layouts["file"], shifted_model)
        for layout, value in got.items():
            assert (value == expected or math.isnan(value) and math.isnan(expected)), (label,
                                                                                      layout)
        if "nan" in label or "reduced" in label:
            assert math.isnan(expected) or math.isinf(expected), label
        elif "inf" in label:
            assert expected == math.inf, label
        else:
            assert 0 < expected < math.inf, label


def test_e_inf_refuses_states_of_another_size(shifted_model):
    full = Trajectory(np.zeros((3, 84)), np.arange(3.0))
    reduced = Trajectory(np.zeros((3, 8)), np.arange(3.0))
    with pytest.raises(ValueError, match="84 values, not 2 n = 86"):
        e_inf(full, reduced, shifted_model)


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
    payload = json.loads(json.dumps(asdict(report)))
    assert RunReport(**payload) == report
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


def test_series_csv_bytes_are_those_of_one_row_at_a_time(tmp_path, rng):
    # random float64 bit patterns, each finite one, with -0.0, subnormals
    # and the extremes; the reference is the former per-row formatting
    bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308]
    values = np.concatenate([bits[np.isfinite(bits)], special])
    times = values[::-1]
    path = tmp_path / "series.csv"
    write_series_csv(path, times, values)
    rows = "".join(f"{float(t)!r},{float(v)!r}\n" for t, v in zip(times, values))
    assert path.read_bytes() == ("t,value\n" + rows).encode()


# every finite float64: subnormals, -0.0 and +-max included
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(rows=st.lists(st.tuples(FINITE, FINITE), max_size=20))
@example(rows=[(-0.0, 5e-324), (1.7976931348623157e308, -1.7976931348623157e308),
               (2.2250738585072014e-308, -0.0)])
def test_series_csv_roundtrip_is_bit_exact(rows):
    times, values = np.array(rows, dtype=float).reshape(-1, 2).T
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        write_series_csv(path, times, values)
        back = read_series_csv(path, times)
    assert back.dtype == np.float64
    assert back.tobytes() == values.tobytes()


# a well-formed series of four rows, and files made from it
SERIES = "t,value\n0.0,1.25\n0.01,-2.5e-07\n0.02,3.0\n0.03,0.1\n"
SERIES_FILES = {
    "as-written": SERIES,
    "underscore": SERIES.replace("3.0", "3_0.0"),
    "padded": SERIES.replace("0.01,-2.5e-07", " 0.01 , -2.5e-07 "),
    "plus-sign": SERIES.replace("1.25", "+1.25"),
    "no-final-newline": SERIES.rstrip("\n"),
    "carriage-returns": SERIES.replace("\n", "\r\n"),
    "bad-header": SERIES.replace("t,value", "t,energy"),
    "one-row-short": SERIES.replace("0.03,0.1\n", ""),
    "one-row-more": SERIES + "0.04,0.2\n",
    "blank-row": SERIES.replace("0.02,3.0\n", "\n"),
    "blank-rows-only": "t,value\n" + "\n" * 4,  # loadtxt warns that it found no data
    "non-numeric": SERIES.replace("3.0", "x3.0"),
    "bad-exponent": SERIES.replace("-2.5e-07", "-2.5e-"),
    "two-points": SERIES.replace("1.25", "1.2.5"),
    "nan-value": SERIES.replace("3.0", "nan"),
    "infinite-value": SERIES.replace("1.25", "-inf"),
    "overflowing-value": SERIES.replace("1.25", "1e999"),
    "another-time": SERIES.replace("0.02,", "0.04,"),
    "nan-time": SERIES.replace("0.02,", "nan,"),
    "three-columns": SERIES.replace("3.0\n", "3.0,4.0\n"),
    "three-columns-everywhere": "t,value\n0.0,1.25,5\n0.01,-2.5e-07,5\n0.02,3.0,5\n0.03,0.1,5\n",
    "one-column": "t,value\n0.0\n0.01\n0.02\n0.03\n",
    "row-split-in-two": SERIES.replace("-2.5e-07\n0.02,", "-2.5e-07,0.02\n"),
    "not-ascii": SERIES.replace("1.25", "1.2\u00e95"),
    "file-separator": SERIES.replace("3.0", "\x1c3.0"),  # space to loadtxt, not to float
}


@pytest.mark.parametrize("case", SERIES_FILES)
def test_series_csv_array_parse_is_the_row_loop(tmp_path, monkeypatch, case):
    # the reference is the same function with the array parse switched off,
    # which reads every file one row at a time
    path = tmp_path / "series.csv"
    path.write_bytes(SERIES_FILES[case].encode("utf-8"))
    times = np.arange(4) * 0.01

    def outcome():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return read_series_csv(path, times).tobytes()
            except metrics.FileFormatError as exc:
                return str(exc)

    got = outcome()
    monkeypatch.setattr(metrics, "_SERIES_CHARACTERS", re.compile(r"(?!)"))
    assert got == outcome()
    if case in ("as-written", "underscore", "padded", "plus-sign", "no-final-newline",
                "carriage-returns"):
        assert isinstance(got, bytes), got
    else:
        assert str(path) in got


def test_series_csv_as_written_takes_the_array_parse(tmp_path, monkeypatch, rng):
    def row_loop(*args):
        raise AssertionError("read_series_csv read the rows one at a time")

    times, values = np.arange(300) * 0.01, rng.standard_normal(300)
    path = tmp_path / "series.csv"
    write_series_csv(path, times, values)
    monkeypatch.setattr(metrics, "_parse_series_rows", row_loop)
    assert read_series_csv(path, times).tobytes() == values.tobytes()
