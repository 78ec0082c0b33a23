"""ctypes loader of `_avf.c`, the integrations of the wave's models as C loops.

`load()` compiles the source with the system C compiler once for each
source and flag set, caches the shared object (written to a temporary
file and renamed into place, so concurrent processes never see a partial
file) in this package's `__pycache__`, or where that cannot be written
in the user's cache, `$XDG_CACHE_HOME/hamrom` (default `~/.cache/hamrom`),
and returns its `Loops`: the reduced and full-order AVF loops, the
reduced midpoint loop, the elementwise pass of `metrics.e_inf`, numpy's
own cblas dgemv and the dpttrs of `lapack()`, or None when anything is
missing (a compiler, a writable cache, either bundled OpenBLAS) or
fails.  `checked()`, run once per process, returns them only when every
loop passes its probe; otherwise every integration, and `metrics.e_inf`,
takes the numpy path.

`lapack()` binds, without a compiler, the LAPACK routines of the OpenBLAS
that scipy bundles, the library that `scipy.linalg` calls; it finds the
library beside the installed scipy without importing any scipy module.
`pttrf`, `pttrs`, `lu_factor` and `lu_solve_transposed` call them and
return what their `scipy.linalg` namesakes return, bit for bit and in
the same layout, without importing `scipy.linalg`, which they call only
where the library is missing.

`blocks` runs an integration by a system's `make_step`, for the
full-order system, the reduced models' AVF steps and the midpoint rule
over `ReducedModel.make_rhs` alike, and is the one place that chooses
between a loop (`run`) and the numpy step (`advance_steps`); it yields
the states block by block from the one window of
`integrator.run_blocks`.  `integrate` is its one-block case.
"""

import contextlib
import ctypes
import functools
import glob
import hashlib
import importlib.util
import os
import shutil
import subprocess
import tempfile
from typing import NamedTuple

import numpy as np

from .integrator import (
    _EXTRAPOLATION,
    IntegratorConfig,
    PicardDivergenceError,
    Trajectory,
    advance_steps,
    integrate_steps,
    run_blocks,
)

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_avf.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


class Loops(NamedTuple):
    """The entry points of _avf.c and the BLAS and LAPACK routines they
    call: the AVF loops of `ReducedModel.make_step` (reduced) and
    `TwoBlockSystem.make_step` (full), the midpoint loop of
    `ReducedModel.make_rhs` (midpoint) and the pass of `metrics.e_inf`."""

    reduced: object
    full: object
    midpoint: object
    max_mismatch: object
    gemv: int
    pttrs: int


def _symbols(package, pattern, *names):
    """Addresses of `names` in the one library `<package>.libs/<pattern>`,
    found beside the installed `package` without importing it."""
    origin = importlib.util.find_spec(package).origin
    libs = os.path.join(os.path.dirname(origin), os.pardir, package + ".libs")
    [path] = glob.glob(os.path.join(libs, pattern))
    lib = ctypes.CDLL(path)
    return [ctypes.cast(getattr(lib, name), ctypes.c_void_p).value for name in names]


class Lapack(NamedTuple):
    """dpttrf, dpttrs, dgetrf and dgetrs: every argument a pointer, every
    integer 32 bits; dgetrs also takes the hidden length of its TRANS."""

    pttrf: object
    pttrs: object
    getrf: object
    getrs: object


@functools.cache
def lapack():
    """The `Lapack` of scipy's bundled OpenBLAS, or None where it is missing."""
    try:
        addresses = _symbols("scipy", "libscipy_openblas-*.so",
                             *(f"scipy_d{name}_" for name in Lapack._fields))
    except _LOAD_ERRORS:
        return None
    arguments = ([_P] * 4, [_P] * 7, [_P] * 6, [_P] * 9 + [ctypes.c_size_t])
    return Lapack(*(ctypes.CFUNCTYPE(None, *types)(address)
                    for types, address in zip(arguments, addresses)))


def _refs(*args):
    """Pointers to the data of each array in args, which they keep alive,
    and to each int as a 32-bit integer."""
    return [a.ctypes if isinstance(a, np.ndarray) else ctypes.byref(ctypes.c_int(a))
            for a in args]


def pttrf(d, e):
    """`scipy.linalg.lapack.dpttrf(d, e)[:2]`."""
    if lapack() is None:
        import scipy.linalg
        return scipy.linalg.lapack.dpttrf(d, e)[:2]
    d, e = np.array(d, dtype=float), np.array(e, dtype=float)
    if d.ndim != 1 or e.shape != (d.size - 1,):
        raise ValueError(f"dpttrf takes n and n - 1 entries, not {d.shape} and {e.shape}")
    lapack().pttrf(*_refs(d.size, d, e, 0))
    return d, e


def pttrs(d, e, b):
    """`scipy.linalg.lapack.dpttrs(d, e, b)[0]`, Fortran-ordered."""
    if lapack() is None:
        import scipy.linalg
        return scipy.linalg.lapack.dpttrs(d, e, b)[0]
    d, e = np.ascontiguousarray(d, dtype=float), np.ascontiguousarray(e, dtype=float)
    x = np.array(b, dtype=float, order="F")
    if d.ndim != 1 or e.shape != (d.size - 1,) or x.shape[:1] != d.shape or x.ndim > 2:
        raise ValueError(f"dpttrs takes n, n - 1 and n rows, not {d.shape}, {e.shape}, {x.shape}")
    lapack().pttrs(*_refs(d.size, x.size // d.size, d, e, x, d.size, 0))
    return x


def lu_factor(a):
    """`scipy.linalg.lu_factor(a)`: a Fortran-ordered LU and 0-based pivots."""
    if lapack() is None:
        import scipy.linalg
        return scipy.linalg.lu_factor(a)
    lu = np.array(np.asarray_chkfinite(a), dtype=float, order="F")
    if lu.ndim != 2:
        raise ValueError(f"dgetrf takes a matrix, not shape {lu.shape}")
    piv = np.empty(min(lu.shape), dtype=np.int32)
    lapack().getrf(*_refs(*lu.shape, lu, lu.shape[0], piv, 0))
    return lu, piv - 1


def lu_solve_transposed(lu_and_piv, b):
    """`scipy.linalg.lu_solve(lu_and_piv, b, trans=1)`."""
    if lapack() is None:
        import scipy.linalg
        return scipy.linalg.lu_solve(lu_and_piv, b, trans=1)
    lu = np.asfortranarray(lu_and_piv[0], dtype=float)
    piv = np.asarray(lu_and_piv[1], dtype=np.int32) + 1
    x = np.array(np.asarray_chkfinite(b), dtype=float, order="F")
    n = lu.shape[0]
    if lu.shape != (n, n) or piv.shape != (n,) or x.shape[:1] != (n,) or x.ndim > 2:
        raise ValueError(f"dgetrs takes an n x n LU, n pivots and n rows, not {lu.shape}, "
                         f"{piv.shape}, {x.shape}")
    lapack().getrs(b"T", *_refs(n, x.size // n, lu, n, piv, x, n, 0), 1)
    return x


def _cache_dirs():
    """The package's `__pycache__`, then the user's cache of hamrom."""
    user = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(user):
        user = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(os.path.dirname(_SOURCE), "__pycache__"), os.path.join(user, "hamrom")


def _shared_object():
    """The compiled `_avf.c` from the first cache that holds it, else built
    into the first cache that can be written, whose builds of other
    sources or flags are then removed."""
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
        for stale in glob.glob(os.path.join(os.path.dirname(path), "_avf-*.so")):
            if stale != path:  # the build of another source or flag set
                with contextlib.suppress(OSError):
                    os.unlink(stale)
        return ctypes.CDLL(path)
    raise unwritable


_LOAD_ERRORS = (OSError, ValueError, AttributeError, subprocess.SubprocessError)
_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# the trailing arguments of every loop: tol, max_iter, history, steps,
# states, iterations, work, residual
_RUN_ARGS = [_D, _I, _I, _I, _P, _P, _P, _P]


def load():
    """The `Loops` of _avf.c, or None when any entry point is unavailable."""
    try:
        [gemv] = _symbols("numpy", "libscipy_openblas64_*.so", "scipy_cblas_dgemv64_")
        pttrs = ctypes.cast(lapack().pttrs, ctypes.c_void_p).value
        lib = _shared_object()
        loops = Loops(lib.avf_integrate, lib.avf_integrate_full, lib.midpoint_integrate,
                      lib.avf_max_mismatch, gemv, pttrs)
    except _LOAD_ERRORS:
        return None
    loops.reduced.argtypes = [_P] + [_I] * 3 + [_P] * 9 + _RUN_ARGS
    loops.full.argtypes = [_P, _P, _I] + [_P] * 4 + [_D, _P] + _RUN_ARGS
    loops.midpoint.argtypes = [_P] + [_I] * 3 + [_P] * 5 + [_D, _P] + _RUN_ARGS
    loops.reduced.restype = loops.full.restype = loops.midpoint.restype = _I
    loops.max_mismatch.argtypes = [_I, _I] + [_P] * 5
    loops.max_mismatch.restype = _D
    return loops


@functools.cache
def checked():
    """`load()` when every loop reproduces `integrate_steps` bit for bit on
    tiny fixed models, run in blocks of 5 states that resume across the
    start of the extrapolation, else None.  The models share one n = 16
    system with weights that are not all one, whose step matrix has the
    corner entries that the full-order solve corrects for: the system
    itself (the full-order loop), g-rom (Galerkin L, zero references) and
    shifted sp-deim (symplectic L, references and interpolation points),
    each reduced model through its AVF step (the reduced loop) and through
    the midpoint rule over its `make_rhs` (the midpoint loop).  Every
    operand reaches the loops C-ordered, as the models build it."""
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
    models = (rom.ReducedModel(rom.RomVariant("g-rom"), system, phi, phi, zero, zero),
              rom.ReducedModel(rom.RomVariant("sp-deim", True), system, phi, phi, ref, ref,
                               [1, 4, 6], [2.5] * 3))
    a0 = np.cos(np.arange(6.0))
    for model, z0 in (
        (system, np.concatenate([np.sin(np.arange(n)), 0.3 * np.cos(np.arange(n))])),
        *((model, a0) for model in models),
        # the vector field itself: a caller may wrap make_rhs, as the
        # benchmark's tracer does
        *((rom._ReducedRhs(model, model.g_fn), a0) for model in models),
    ):
        expected = integrate_steps(model.make_step(config), z0, config)
        got = [(states.copy(), iterations)
               for states, iterations in run_blocks(_advance(model, config, loops), z0, config, 5)]
        if not (np.array_equal(np.concatenate([s for s, _ in got]), expected.states)
                and np.array_equal(np.concatenate([i for _, i in got]), expected.picard_iters)):
            return None
    return loops


def integrate(system, z0, config) -> Trajectory:
    """Integration of `system` from z0 over config's steps by its
    make_step: the AVF step of a `core.TwoBlockSystem` or a
    `rom.ReducedModel`, the midpoint step of `ReducedModel.make_rhs`'s
    vector field.  The one block of `blocks`.

    The result, Picard failures included, is that of
    `integrate_steps(system.make_step(config), z0, config)` bit for bit.
    """
    return Trajectory.of_run(blocks(system, z0, config, config.step_count() + 1), config.dt)


def blocks(system, z0, config, rows):
    """Yield the integration of `system` (as for `integrate`) from z0 over
    config's steps as (states, iterations) for consecutive blocks of `rows`
    states, the last one shorter: states [0, rows) with z0 first, then
    [rows, 2 rows), ..., and the Picard iterations of the steps that made
    each block's states.

    Every block is a view of one window of rows + 8 states, which the next
    block overwrites.  The states, Picard failures included, are those of
    `integrate_steps(system.make_step(config), z0, config)` bit for bit,
    for any `rows`.  When `checked()` returns the loops,
    `system._compiled` gives the loop that makes the numpy, LAPACK and
    BLAS calls of every step of a block in one call of C (`run`), unless
    it returns None for a system that its loop does not take: one whose
    nonlinearity is not the wave's.  Otherwise `advance_steps` runs
    make_step.  Raises ValueError for a z0 that is not of length
    system.dim, for rows < 1 and where make_step does, and at the first
    block for a z0 that is not finite.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (system.dim,):
        raise ValueError(f"state has shape {z0.shape}, expected ({system.dim},)")
    if rows < 1:
        raise ValueError(f"a block holds at least one state, not {rows}")
    return run_blocks(_advance(system, config, checked()), z0, config, rows)


def _advance(system, config, loops):
    """advance(window, history, steps) -> iterations of `system` at config:
    the loop of `loops` where it applies, else `advance_steps`."""
    compiled = None if loops is None else system._compiled(loops, config)
    if compiled is None:
        return functools.partial(advance_steps, system.make_step(config))
    loop, args, work = compiled
    # each array becomes a pointer that keeps it, once for every block; the
    # weights of the degree-7 start end the leading arguments of every loop
    args = [a.ctypes.data_as(ctypes.c_void_p) if isinstance(a, np.ndarray) else a
            for a in [*args, _EXTRAPOLATION]]
    return functools.partial(run, loop, [*args, config.picard_tol, config.picard_max_iter], work)


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
