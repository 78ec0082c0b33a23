"""ctypes loader of `_avf.c`, the reduced AVF integration as one C loop.

`load()` compiles the source with the system C compiler once for each
source and flag set, caches the shared object in this package's
`__pycache__` (written to a temporary file and renamed into place, so
concurrent processes never see a partial file), and returns its
`avf_integrate` with numpy's own cblas dgemv.  It returns None when
anything is missing (a compiler, a writable cache, numpy's bundled
OpenBLAS) or fails, and callers then take the numpy path.
"""

import ctypes
import glob
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_avf.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
ROW_MAJOR, COL_MAJOR = 101, 102


class Matrix(ctypes.Structure):
    """`struct matrix` of _avf.c."""

    _fields_ = [("data", ctypes.c_void_p)] + [
        (name, ctypes.c_int64) for name in ("rows", "cols", "order")
    ]


def matrix(a):
    """(Matrix, array) for a float matrix as np.dot hands it to gemv: an
    F-contiguous one column-major, any other one row-major, in C order
    (copied if it is not).  The array must outlive every use of the
    Matrix."""
    if not a.flags.f_contiguous:
        a = np.ascontiguousarray(a)
    order = ROW_MAJOR if a.flags.c_contiguous else COL_MAJOR
    return Matrix(a.ctypes.data, a.shape[0], a.shape[1], order), a


def _numpy_gemv():
    """Address of cblas dgemv in the OpenBLAS that numpy bundles."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    [path] = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
    return ctypes.cast(ctypes.CDLL(path).scipy_cblas_dgemv64_, ctypes.c_void_p).value


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


def load():
    """(avf_integrate, dgemv address), or None when either is unavailable."""
    try:
        gemv = _numpy_gemv()
        kernel = _shared_object().avf_integrate
    except (OSError, ValueError, AttributeError, subprocess.SubprocessError):
        return None
    pointer = ctypes.c_void_p
    kernel.argtypes = [pointer] + [ctypes.POINTER(Matrix)] * 6 + [pointer] * 3 + [
        ctypes.c_double, ctypes.c_int64, ctypes.c_int64, pointer, pointer, pointer, pointer
    ]
    kernel.restype = ctypes.c_int64
    return kernel, gemv
