"""ctypes loader of `_avf.c`, the AVF integrations as C loops.

`load()` compiles the source with the system C compiler once for each
source and flag set, caches the shared object (written to a temporary
file and renamed into place, so concurrent processes never see a partial
file) in this package's `__pycache__`, or where that cannot be written
in the user's cache, `$XDG_CACHE_HOME/hamrom` (default `~/.cache/hamrom`),
and returns its `Loops`: the reduced and full-order loops, numpy's own
cblas dgemv and the LAPACK dpttrs of the OpenBLAS that scipy bundles (the
one `scipy.linalg.lapack` calls), or None when anything is missing (a
compiler, a writable cache, either bundled OpenBLAS) or fails.
`checked()`, run once per process, returns them only when both loops pass
their probe; otherwise every integration takes the numpy path.

`blocks` is the one runner of an AVF integration, for the full-order
system and the reduced models alike, and the one place that chooses
between a loop (`run`) and the numpy step (`advance_steps`); it yields
the states block by block from one window.  `integrate` is its one-block
case.
"""

import ctypes
import functools
import glob
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import NamedTuple

import numpy as np
import scipy

from .integrator import (
    IntegratorConfig,
    PicardDivergenceError,
    Trajectory,
    advance_steps,
    allocate_states,
    integrate_steps,
)

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_avf.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


class Loops(NamedTuple):
    """The entry points of _avf.c and the BLAS and LAPACK routines they call."""

    reduced: object
    full: object
    gemv: int
    pttrs: int


def _symbols(package, pattern, *names):
    """Addresses of `names` in the one library `<package>.libs/<pattern>`."""
    libs = os.path.join(os.path.dirname(package.__file__), os.pardir, package.__name__ + ".libs")
    [path] = glob.glob(os.path.join(libs, pattern))
    lib = ctypes.CDLL(path)
    return [ctypes.cast(getattr(lib, name), ctypes.c_void_p).value for name in names]


def _cache_dirs():
    """The package's `__pycache__`, then the user's cache of hamrom."""
    user = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(user):
        user = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(os.path.dirname(_SOURCE), "__pycache__"), os.path.join(user, "hamrom")


def _shared_object():
    """The compiled `_avf.c` from the first cache that holds it, else built
    into the first cache that can be written."""
    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read() + " ".join(_FLAGS).encode()).hexdigest()[:16]
    paths = [os.path.join(cache, f"_avf-{key}.so") for cache in _cache_dirs()]
    for path in paths:
        if os.path.exists(path):
            return ctypes.CDLL(path)
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise OSError("no C compiler on PATH")
    for path in paths:
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
        except OSError as exc:
            unwritable = exc
            continue
        os.close(fd)
        try:
            subprocess.run([compiler, *_FLAGS, "-o", tmp, _SOURCE, "-lm"],
                           check=True, capture_output=True, timeout=120)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return ctypes.CDLL(path)
    raise unwritable


_LOAD_ERRORS = (OSError, ValueError, AttributeError, subprocess.SubprocessError)
_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# the trailing arguments of both loops: tol, max_iter, history, steps,
# states, iterations, work, residual
_RUN_ARGS = [_D, _I, _I, _I, _P, _P, _P, _P]


def load():
    """The `Loops` of _avf.c, or None when any entry point is unavailable."""
    try:
        [gemv] = _symbols(np, "libscipy_openblas64_*.so", "scipy_cblas_dgemv64_")
        [pttrs] = _symbols(scipy, "libscipy_openblas-*.so", "scipy_dpttrs_")
        lib = _shared_object()
        loops = Loops(lib.avf_integrate, lib.avf_integrate_full, gemv, pttrs)
    except _LOAD_ERRORS:
        return None
    loops.reduced.argtypes = [_P] + [_I] * 3 + [_P] * 9 + _RUN_ARGS
    loops.full.argtypes = [_P, _P, _I] + [_P] * 4 + [_D, _P] + _RUN_ARGS
    loops.reduced.restype = loops.full.restype = _I
    return loops


@functools.cache
def checked():
    """`load()` when both loops reproduce `integrate_steps` bit for bit on
    tiny fixed models, run in blocks of 5 states that resume across the
    start of the extrapolation, else None.  The models share one n = 16
    system with weights that are not all one, whose step matrix has the
    corner entries that the full-order solve corrects for: the system
    itself, g-rom (Galerkin L, zero references) and shifted sp-deim
    (symplectic L, references and interpolation points).  Every operand
    reaches the loops C-ordered, as the models build it."""
    from . import core, rom, wave  # they import this module

    loops = load()
    if loops is None:
        return None
    n = 16
    system = core.TwoBlockSystem(wave.build_laplacian(wave.WaveConfig(n=n)),
                                 1.0 + 0.5 * np.cos(np.arange(n)), lambda x: 1.0 - np.cos(x),
                                 np.sin, wave.sin_average)
    phi = np.linalg.qr(np.cos(np.outer(np.arange(n), [0.7, 1.3, 2.9]) + 0.4))[0]
    ref, zero = 0.3 * np.sin(np.arange(n)), np.zeros(n)
    config = IntegratorConfig(dt=0.01, t_final=0.2)
    for model, z0 in (
        (system, np.concatenate([np.sin(np.arange(n)), 0.3 * np.cos(np.arange(n))])),
        (rom.ReducedModel(rom.RomVariant("g-rom"), system, phi, phi, zero, zero),
         np.cos(np.arange(6.0))),
        (rom.ReducedModel(rom.RomVariant("sp-deim", True), system, phi, phi, ref, ref,
                          [1, 4, 6], [2.5] * 3), np.cos(np.arange(6.0))),
    ):
        expected = integrate_steps(model.make_step(config), z0, config)
        got = [(states.copy(), iterations)
               for states, iterations in _blocks(_advance(model, config, loops), z0, config, 5)]
        if not (np.array_equal(np.concatenate([s for s, _ in got]), expected.states)
                and np.array_equal(np.concatenate([i for _, i in got]), expected.picard_iters)):
            return None
    return loops


def integrate(system, z0, config) -> Trajectory:
    """AVF integration of `system`, a `core.TwoBlockSystem` or a
    `rom.ReducedModel`, from z0 over config's steps: the one block of
    `blocks`.

    The result, Picard failures included, is that of
    `integrate_steps(system.make_step(config), z0, config)` bit for bit.
    """
    steps = config.step_count()
    [(states, iterations)] = blocks(system, z0, config, steps + 1)
    return Trajectory(states, np.arange(steps + 1) * config.dt, picard_iters=iterations,
                      dt=config.dt)


def blocks(system, z0, config, rows):
    """Yield the AVF integration of `system` from z0 over config's steps as
    (states, iterations) for consecutive blocks of `rows` states, the last
    one shorter: states [0, rows) with z0 first, then [rows, 2 rows), ...,
    and the Picard iterations of the steps that made each block's states.

    Every block is a view of one window of rows + 8 states, which the next
    block overwrites.  The states, Picard failures included, are those of
    `integrate_steps(system.make_step(config), z0, config)` bit for bit,
    for any `rows`.  When system.g_avg is `wave.sin_average` and
    `checked()` returns the loops, `system._compiled` gives the loop that
    makes the numpy, LAPACK and BLAS calls of every step of a block in
    one call of C (`run`), unless it returns None for a system that its
    loop does not take.  Otherwise `advance_steps` runs make_step.  Raises
    ValueError for a z0 that is not of length system.dim, for rows < 1
    and where make_step does, and at the first block for a z0 that is not
    finite.
    """
    from .wave import sin_average  # wave imports this module through core

    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (system.dim,):
        raise ValueError(f"state has shape {z0.shape}, expected ({system.dim},)")
    if rows < 1:
        raise ValueError(f"a block holds at least one state, not {rows}")
    loops = checked() if system.g_avg is sin_average else None
    return _blocks(_advance(system, config, loops), z0, config, rows)


def _advance(system, config, loops):
    """advance(window, history, steps) -> iterations of `system` at config:
    the loop of `loops` where it applies, else `advance_steps`."""
    compiled = None if loops is None else system._compiled(loops, config)
    if compiled is None:
        return functools.partial(advance_steps, system.make_step(config))
    loop, args, work = compiled
    # each array becomes a pointer that keeps it, once for every block
    args = [a.ctypes.data_as(ctypes.c_void_p) if isinstance(a, np.ndarray) else a for a in args]
    return functools.partial(run, loop, [*args, config.picard_tol, config.picard_max_iter], work)


def _blocks(advance, z0, config, rows):
    """The blocks of `blocks`, made by `advance` in a window whose rows
    0..7 hold the last states before the block, the current one in row 7,
    and whose rows from 8 on hold the block."""
    steps = config.step_count()
    rows = min(rows, steps + 1)
    window = allocate_states(z0, rows + 8, first=7)
    done, first, count = 0, 7, min(rows - 1, steps)
    while True:
        history = min(done, 7)
        try:
            iterations = advance(window[7 - history :], history, count)
        except PicardDivergenceError as exc:  # at the step of the whole run
            step = done + exc.step
            raise PicardDivergenceError(exc.iterations, exc.residual, step=step) from None
        yield window[first : 8 + count], iterations
        done += count
        if done == steps:
            return
        window[:8] = window[count : count + 8]
        first, count = 8, min(rows, steps - done)


def run(loop, args, work, window, history, steps) -> np.ndarray:
    """The Picard iterations of `steps` steps of the compiled `loop`, called
    with its leading arguments `args` and the doubles `work`, from
    window[history] on, as `advance_steps` makes them.  Raises
    PicardDivergenceError where a solve fails, with the index of the step
    in this call."""
    iterations = np.zeros(steps, dtype=np.int64)
    residual = ctypes.c_double()
    failed = loop(*args, history, steps, window.ctypes.data, iterations.ctypes.data,
                  work.ctypes.data, ctypes.byref(residual))
    if failed >= 0:
        raise PicardDivergenceError(int(iterations[failed]), residual.value, step=failed)
    return iterations
