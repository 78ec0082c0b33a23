"""The C source of the compiled loops, its emulation of SuperLU's solve
and the one gate of both loops."""

import ctypes
import shutil
import subprocess

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from hamrom import _native
from hamrom.core import TwoBlockSystem
from hamrom.integrator import IntegratorConfig
from hamrom.rom import ReducedModel
from hamrom.wave import WaveConfig, assemble_wave_fom


def test_avf_source_compiles_without_a_warning(tmp_path):
    # a C warning fails the suite, as a numpy RuntimeWarning does
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    result = subprocess.run(
        [compiler, "-Wall", "-Wextra", "-Werror", "-std=c99", *_native._FLAGS,
         "-o", str(tmp_path / "avf.so"), _native._SOURCE, "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.fixture(scope="module")
def loops():
    loops = _native.load()
    if loops is None:
        pytest.skip("the compiled AVF loops are unavailable here")
    return loops


@pytest.mark.parametrize("loader", ("unavailable", "reduced-loop-wrong", "full-loop-wrong"))
def test_without_the_compiled_loops_every_model_takes_the_numpy_path(pipe, compiled, monkeypatch,
                                                                     loader):
    # the loops are on or off together: where either fails its probe, the
    # full-order system and all five reduced models go through make_step,
    # with the trajectories that the loops gave
    cfg = IntegratorConfig(dt=0.01, t_final=1.0)
    starts = {tag: (m, m.initial_coefficients(pipe["z0"])) for tag, m in pipe["models"].items()}
    starts["fom"] = (pipe["fom"], pipe["z0"])
    runs = {label: model.integrate(z0, cfg) for label, (model, z0) in starts.items()}
    monkeypatch.undo()  # reopens the numpy path that `compiled` closed

    def wrong(*args):  # returns at once and leaves the states unset
        return -1

    def compiled_path(*args):
        raise AssertionError("integrate took the compiled path")

    loops = _native.load()
    broken = {"unavailable": None, "reduced-loop-wrong": loops._replace(reduced=wrong),
              "full-loop-wrong": loops._replace(full=wrong)}[loader]
    monkeypatch.setattr(_native, "load", lambda: broken)
    _native.checked.cache_clear()
    try:
        assert _native.checked() is None
        monkeypatch.setattr(TwoBlockSystem, "_integrate_compiled", compiled_path)
        monkeypatch.setattr(ReducedModel, "_integrate_compiled", compiled_path)
        for label, (model, z0) in starts.items():
            traj = model.integrate(z0, cfg)
            assert np.array_equal(traj.states, runs[label].states), label
            assert np.array_equal(traj.picard_iters, runs[label].picard_iters), label
    finally:
        _native.checked.cache_clear()


def emulated_solve(loops, factor, b):
    n = b.size
    x, work = np.empty(n), np.zeros(2 * n)
    loops.solve(ctypes.byref(factor), b.ctypes.data, x.ctypes.data, work.ctypes.data)
    assert not work[n:].any()  # the dgemm work vector is left zero
    return x


def right_hand_sides(n, seed):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.standard_normal((4, n)),
                      rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-100, 100, (2, n))])


@pytest.mark.parametrize("dt", (0.01, 0.0025))
@pytest.mark.parametrize("n", (*range(3, 25), 40, 500, 2000))
def test_emulated_solve_is_superlu_solve_bitwise(loops, n, dt):
    # every wave step matrix is covered: the partition and the layout
    # reproduce SuperLU's, also where lu.L omits entries that underflow
    # to zero (n = 500 and 2000)
    _, matrix = assemble_wave_fom(WaveConfig(n=n))._avf_operators(dt)
    lu = splu(matrix)
    factor = _native.superlu_factor(loops, matrix, lu)
    assert factor is not None
    for b in right_hand_sides(n, seed=n):
        assert emulated_solve(loops, factor, b).tobytes() == lu.solve(b).tobytes()


def test_emulated_solve_is_superlu_solve_or_refused(loops):
    # other patterns, with and without row pivoting: a factor that
    # superlu_factor returns solves bit for bit as SuperLU does
    rng = np.random.default_rng(11)
    built = {False: 0, True: 0}
    for trial in range(24):
        n = int(rng.integers(5, 120))
        r = sparse.random(n, n, density=min(1.0, 4.0 / n), random_state=rng)
        diagonal = 4.0 if trial % 2 else 0.05  # SuperLU pivots rows at 0.05
        matrix = sparse.csc_matrix(sparse.identity(n) * diagonal - 0.2 * (r + r.T))
        try:
            lu = splu(matrix)
        except RuntimeError:  # exactly singular
            continue
        factor = _native.superlu_factor(loops, matrix, lu)
        if factor is None:
            continue
        built[bool(np.any(lu.perm_r != lu.perm_c))] += 1
        for b in right_hand_sides(n, seed=trial):
            assert emulated_solve(loops, factor, b).tobytes() == lu.solve(b).tobytes()
    assert built[False] >= 6 and built[True] >= 6


def test_a_solve_that_differs_from_superlu_is_refused(loops):
    _, matrix = assemble_wave_fom(WaveConfig(n=40))._avf_operators(0.01)
    lu = splu(matrix)

    class OneUlpOff:
        L, U, perm_r, perm_c = lu.L, lu.U, lu.perm_r, lu.perm_c

        @staticmethod
        def solve(b):
            x = lu.solve(b)
            x[7] = np.nextafter(x[7], np.inf)
            return x

    assert _native.superlu_factor(loops, matrix, lu) is not None
    assert _native.superlu_factor(loops, matrix, OneUlpOff) is None
