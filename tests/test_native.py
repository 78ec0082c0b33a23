"""The C source of the compiled loops, the full-order solve they share
with the numpy path and the one gate of both loops."""

import ctypes
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from hamrom import _native
from hamrom.integrator import IntegratorConfig
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


def test_the_build_caches_one_shared_object_and_needs_a_compiler(tmp_path, monkeypatch):
    # a source of its own misses the package's cache: the first call builds
    # into tmp_path/__pycache__, a later one reads the cache without a
    # compiler, and with neither a compiler nor a cached build `load()` is None
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler on PATH")
    source = tmp_path / "built" / "_avf.c"
    source.parent.mkdir()
    source.write_bytes(Path(_native._SOURCE).read_bytes())
    monkeypatch.setattr(_native, "_SOURCE", str(source))
    assert _native._shared_object().avf_integrate_full
    [built] = (source.parent / "__pycache__").iterdir()
    assert re.fullmatch(r"_avf-[0-9a-f]{16}\.so", built.name)
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    assert _native._shared_object().avf_integrate_full
    unbuilt = tmp_path / "unbuilt" / "_avf.c"
    unbuilt.parent.mkdir()
    unbuilt.write_bytes(source.read_bytes())
    monkeypatch.setattr(_native, "_SOURCE", str(unbuilt))
    assert _native.load() is None
    assert not (unbuilt.parent / "__pycache__").exists()


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
        monkeypatch.setattr(_native, "run", compiled_path)
        for label, (model, z0) in starts.items():
            traj = model.integrate(z0, cfg)
            assert np.array_equal(traj.states, runs[label].states), label
            assert np.array_equal(traj.picard_iters, runs[label].picard_iters), label
    finally:
        _native.checked.cache_clear()


@pytest.fixture(scope="module")
def loops():
    loops = _native.load()
    if loops is None:
        pytest.skip("the compiled AVF loops are unavailable here")
    return loops


def emulated_solve(loops, factor, b):
    """x = M^-1 b by the C loop's `avf_periodic_solve`."""
    solve = _native._shared_object().avf_periodic_solve
    solve.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int] + [ctypes.c_void_p] * 5
    n = b.size
    x, work = b.copy(), np.zeros(n + 2)
    e, wc = (None if a is None else a.ctypes.data for a in (factor.e, factor.wc))
    solve(loops.pttrs, loops.gemv, n, factor.d.ctypes.data, e, wc, x.ctypes.data,
          work.ctypes.data)
    return x


def right_hand_sides(n, seed):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.standard_normal((4, n)),
                      rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-100, 100, (2, n))])


@pytest.mark.parametrize("dt", (0.01, 0.0025))
@pytest.mark.parametrize("n", (*range(3, 25), 40, 500, 2000))
def test_emulated_solve_is_superlu_solve_bitwise(loops, n, dt):
    # every wave step matrix: the C solve is `PeriodicFactor.solve` bit for
    # bit, corner correction included, and so within 1e-14 of SuperLU's
    # solve (test_core checks that bound).  The name dates from the loop's
    # earlier replay of SuperLU's own solve.
    _, factor = assemble_wave_fom(WaveConfig(n=n))._avf_operators(dt)
    assert factor.wc is not None
    for b in right_hand_sides(n, seed=n):
        assert emulated_solve(loops, factor, b).tobytes() == factor.solve(b).tobytes()
