"""The C source of the compiled loops and its emulation of SuperLU's solve."""

import ctypes
import shutil
import subprocess

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from hamrom import _native
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
def full():
    full = _native.load_full()
    if full is None:
        pytest.skip("the compiled full-order loop is unavailable here")
    return full


def emulated_solve(full, factor, b):
    n = b.size
    x, work = np.empty(n), np.zeros(2 * n)
    full.solve(ctypes.byref(factor), b.ctypes.data, x.ctypes.data, work.ctypes.data)
    assert not work[n:].any()  # the dgemm work vector is left zero
    return x


def right_hand_sides(n, seed):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.standard_normal((4, n)),
                      rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-100, 100, (2, n))])


@pytest.mark.parametrize("dt", (0.01, 0.0025))
@pytest.mark.parametrize("n", (*range(3, 25), 40, 500, 2000))
def test_emulated_solve_is_superlu_solve_bitwise(full, n, dt):
    # every wave step matrix is covered: the partition and the layout
    # reproduce SuperLU's, also where lu.L omits entries that underflow
    # to zero (n = 500 and 2000)
    _, matrix = assemble_wave_fom(WaveConfig(n=n))._avf_operators(dt)
    lu = splu(matrix)
    factor = _native.superlu_factor(full, matrix, lu)
    assert factor is not None
    for b in right_hand_sides(n, seed=n):
        assert emulated_solve(full, factor, b).tobytes() == lu.solve(b).tobytes()


def test_emulated_solve_is_superlu_solve_or_refused(full):
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
        factor = _native.superlu_factor(full, matrix, lu)
        if factor is None:
            continue
        built[bool(np.any(lu.perm_r != lu.perm_c))] += 1
        for b in right_hand_sides(n, seed=trial):
            assert emulated_solve(full, factor, b).tobytes() == lu.solve(b).tobytes()
    assert built[False] >= 6 and built[True] >= 6


def test_a_solve_that_differs_from_superlu_is_refused(full):
    _, matrix = assemble_wave_fom(WaveConfig(n=40))._avf_operators(0.01)
    lu = splu(matrix)

    class OneUlpOff:
        L, U, perm_r, perm_c = lu.L, lu.U, lu.perm_r, lu.perm_c

        @staticmethod
        def solve(b):
            x = lu.solve(b)
            x[7] = np.nextafter(x[7], np.inf)
            return x

    assert _native.superlu_factor(full, matrix, lu) is not None
    assert _native.superlu_factor(full, matrix, OneUlpOff) is None
