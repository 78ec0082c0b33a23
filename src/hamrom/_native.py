"""ctypes loader of `_avf.c`, the AVF integrations as C loops.

`load()` compiles the source with the system C compiler once for each
source and flag set, caches the shared object in this package's
`__pycache__` (written to a temporary file and renamed into place, so
concurrent processes never see a partial file), and returns its `Loops`:
the reduced and full-order loops, SuperLU's solve and supernode partition,
numpy's own cblas dgemv and the dtrsm and dgemm of the OpenBLAS that scipy
bundles (the BLAS its SuperLU calls), or None when anything is missing (a
compiler, a writable cache, either bundled OpenBLAS) or fails.
`checked()`, run once per process, returns them only when both loops pass
their probe; otherwise every integration takes the numpy path.
`superlu_factor` lays out a `splu` factor as `lu_solve` reads it, and
`integrate` runs either loop into a `Trajectory`.
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
import scipy.sparse as sparse

from .integrator import (
    IntegratorConfig,
    PicardDivergenceError,
    Trajectory,
    allocate_states,
    integrate_steps,
)

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_avf.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
ROW_MAJOR, COL_MAJOR = 101, 102
# SuperLU's default relaxed and largest supernode sizes (sp_ienv(2), sp_ienv(3))
_RELAX, _MAX_SUPER = 10, 200


class Matrix(ctypes.Structure):
    """`struct matrix` of _avf.c."""

    _fields_ = [("data", ctypes.c_void_p)] + [
        (name, ctypes.c_int64) for name in ("rows", "cols", "order")
    ]


class Factor(ctypes.Structure):
    """`struct factor` of _avf.c: a SuperLU factor in supernodes."""

    _fields_ = (
        [("trsm", ctypes.c_void_p), ("gemm", ctypes.c_void_p)]
        + [(name, ctypes.c_int64) for name in ("n", "nsuper")]
        + [(name, ctypes.c_void_p) for name in (
            "perm_r", "perm_c", "xsup", "xlsub", "lsub", "xlusup", "ucolptr", "urow",
            "lusup", "uval")]
    )


class Loops(NamedTuple):
    """The entry points of _avf.c and the BLAS they call."""

    reduced: object
    full: object
    solve: object
    supernodes: object
    gemv: int
    trsm: int
    gemm: int


def matrix(a):
    """(Matrix, array) for a float matrix as np.dot hands it to gemv: an
    F-contiguous one column-major, any other one row-major, in C order
    (copied if it is not).  The array must outlive every use of the
    Matrix."""
    if not a.flags.f_contiguous:
        a = np.ascontiguousarray(a)
    order = ROW_MAJOR if a.flags.c_contiguous else COL_MAJOR
    return Matrix(a.ctypes.data, a.shape[0], a.shape[1], order), a


def _symbols(package, pattern, *names):
    """Addresses of `names` in the one library `<package>.libs/<pattern>`."""
    libs = os.path.join(os.path.dirname(package.__file__), os.pardir, package.__name__ + ".libs")
    [path] = glob.glob(os.path.join(libs, pattern))
    lib = ctypes.CDLL(path)
    return [ctypes.cast(getattr(lib, name), ctypes.c_void_p).value for name in names]


def _shared_object():
    """The compiled `_avf.c`, built into the cache first if it is not there."""
    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read() + " ".join(_FLAGS).encode()).hexdigest()[:16]
    cache = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
    path = os.path.join(cache, f"_avf-{key}.so")
    if not os.path.exists(path):
        compiler = shutil.which("cc") or shutil.which("gcc")
        if compiler is None:
            raise OSError("no C compiler on PATH")
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run([compiler, *_FLAGS, "-o", tmp, _SOURCE, "-lm"],
                           check=True, capture_output=True, timeout=120)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(path)


_LOAD_ERRORS = (OSError, ValueError, AttributeError, subprocess.SubprocessError)
_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# the trailing arguments of both loops: tol, max_iter, steps, states,
# iterations, work, residual
_RUN_ARGS = [_D, _I, _I, _P, _P, _P, _P]


def load():
    """The `Loops` of _avf.c, or None when any entry point is unavailable."""
    try:
        [gemv] = _symbols(np, "libscipy_openblas64_*.so", "scipy_cblas_dgemv64_")
        trsm, gemm = _symbols(scipy, "libscipy_openblas-*.so", "scipy_dtrsm_", "scipy_dgemm_")
        lib = _shared_object()
        loops = Loops(lib.avf_integrate, lib.avf_integrate_full, lib.lu_solve, lib.lu_supernodes,
                      gemv, trsm, gemm)
    except _LOAD_ERRORS:
        return None
    loops.reduced.argtypes = [_P] + [ctypes.POINTER(Matrix)] * 6 + [_P] * 3 + _RUN_ARGS
    loops.full.argtypes = [_P, ctypes.POINTER(Factor), _P, _D, _P] + _RUN_ARGS
    loops.reduced.restype = loops.full.restype = _I
    loops.solve.argtypes = [ctypes.POINTER(Factor), _P, _P, _P]
    loops.solve.restype = None
    loops.supernodes.argtypes = [_I, _P, _P, _I, _I, _I, _P, _P, _P, _P]
    loops.supernodes.restype = _I
    return loops


@functools.cache
def checked():
    """`load()` when both loops reproduce `integrate_steps` bit for bit on
    tiny fixed models, else None.  The models share one n = 16 system
    with weights that are not all one, whose factor has a relaxed
    supernode of ten columns and a fundamental one of three: the system
    itself, g-rom and shifted sp-deim.  Their dt M is F-ordered (g-rom)
    and C-ordered (sp-deim), which np.dot hands to gemv in two different
    layouts."""
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
        got = model._integrate_compiled(loops, z0, config)
        if got is None or not (
            np.array_equal(got.states, expected.states)
            and np.array_equal(got.picard_iters, expected.picard_iters)
        ):
            return None
    return loops


def superlu_factor(loops, a, lu):
    """The `Factor` of `lu = splu(a)` for `loops.solve`, or None where that
    solve does not give lu.solve's result bit for bit on fixed vectors.

    The supernodes come from the pattern of a and SuperLU's rules
    (`lu_supernodes`), not from lu.L, which omits the entries that are
    exactly zero; the values come from lu.L and lu.U, and every entry
    that they omit inside a supernode is a stored zero.  The rows below
    a supernode are taken in ascending order, where SuperLU keeps the
    order of its depth-first search; dgemm's result can depend on that
    order once many rows lie below a supernode, so such a factor may be
    refused.  The wave's supernodes have at most two rows below them.
    """
    n = a.shape[0]
    perm_r = lu.perm_r.astype(np.int64)
    perm_c = lu.perm_c.astype(np.int64)
    b = sparse.csc_matrix(a)[:, np.argsort(perm_c)]  # Pc: column j of a is column perm_c[j]
    colptr = b.indptr.astype(np.int64)
    rowind = perm_r[b.indices]  # Pr: row i of a is row perm_r[i]
    xsup, xlsub = np.empty((2, n + 1), dtype=np.int64)
    work = np.empty(10 * n, dtype=np.int64)
    capacity = 2 * (lu.L.nnz + n)
    while True:
        lsub = np.empty(capacity, dtype=np.int64)
        nsuper = loops.supernodes(n, colptr.ctypes.data, rowind.ctypes.data, _RELAX, _MAX_SUPER,
                                  capacity, xsup.ctypes.data, xlsub.ctypes.data,
                                  lsub.ctypes.data, work.ctypes.data)
        if nsuper != -1:
            break
        capacity *= 2
    if nsuper < 0:
        return None
    xsup, xlsub = xsup[: nsuper + 1], xlsub[: nsuper + 1]
    nsupc, nsupr = np.diff(xsup), np.diff(xlsub)
    xlusup = np.concatenate(([0], np.cumsum(nsupc * nsupr)))
    supno = np.repeat(np.arange(nsuper), nsupc)
    keys = np.repeat(np.arange(nsuper), nsupr) * n + lsub[: xlsub[-1]]  # ascending
    lusup = np.zeros(xlusup[-1])

    def entries(m):
        m = sparse.csc_matrix(m)
        return m.indices.astype(np.int64), np.repeat(np.arange(n), np.diff(m.indptr)), m.data

    def place(rows, cols, values):
        """Write entries into their supernodes' blocks; False if one is
        outside its supernode's rows."""
        s = supno[cols]
        at = np.searchsorted(keys, s * n + rows)
        if np.any(keys[np.minimum(at, keys.size - 1)] != s * n + rows):
            return False
        lusup[xlusup[s] + (cols - xsup[s]) * nsupr[s] + at - xlsub[s]] = values
        return True

    rows, cols, values = entries(lu.L)
    below = rows > cols  # the unit diagonal is implied
    u_rows, u_cols, u_values = entries(lu.U)
    inside = u_rows >= xsup[supno[u_cols]]
    if not (place(rows[below], cols[below], values[below])
            and place(u_rows[inside], u_cols[inside], u_values[inside])):
        return None
    ucolptr = np.concatenate(([0], np.cumsum(np.bincount(u_cols[~inside], minlength=n))))
    arrays = [perm_r, perm_c, xsup, xlsub, lsub, xlusup, ucolptr, u_rows[~inside], lusup,
              u_values[~inside]]
    arrays = [np.ascontiguousarray(x) for x in arrays]
    factor = Factor(loops.trsm, loops.gemm, n, nsuper, *(x.ctypes.data for x in arrays))
    factor.arrays = arrays  # the factor's storage lives as long as it does

    rng = np.random.default_rng(0)
    x, work = np.empty(n), np.zeros(2 * n)
    for rhs in (rng.standard_normal(n), rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)):
        loops.solve(ctypes.byref(factor), rhs.ctypes.data, x.ctypes.data, work.ctypes.data)
        if x.tobytes() != lu.solve(rhs).tobytes():
            return None
    return factor


def integrate(run, args, work, z0, config) -> Trajectory:
    """The trajectory from z0 of the compiled loop `run` called with its
    leading arguments `args` and the doubles `work`.  Raises
    PicardDivergenceError where a solve fails, as `integrate_steps` does."""
    states = allocate_states(z0, config)
    steps = states.shape[0] - 1
    iterations = np.zeros(steps, dtype=np.int64)
    residual = ctypes.c_double()
    failed = run(*args, config.picard_tol, config.picard_max_iter, steps, states.ctypes.data,
                 iterations.ctypes.data, work.ctypes.data, ctypes.byref(residual))
    if failed >= 0:
        raise PicardDivergenceError(int(iterations[failed]), residual.value, step=failed)
    times = np.arange(steps + 1) * config.dt
    return Trajectory(states, times, picard_iters=iterations, dt=config.dt)
