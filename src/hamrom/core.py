"""Canonical two-block Hamiltonian systems with a sparse linear part.

A state z = (u, v) of length 2n evolves by

    u' = v,    v' = A u - c_u * g(u),

which is z' = D grad H(z) with the canonical skew coupling
D = [[0, I], [-I, 0]] and the energy

    H(z) = 0.5 v^T v - 0.5 u^T A u + sum_i c_u[i] G(u_i).

A is a sparse symmetric n x n matrix, G an elementwise scalar
nonlinearity with derivative g = G', and c_u a weight vector.  No dense
n x n (or 2n x 2n) operator is ever formed.

Like a reduced model, the record has an AVF `make_step`, an `integrate`
that runs it over a time grid and a stacked `energy`.  It is immutable
after construction and its methods are pure.  For the wave's
`sin_average`, `integrate` runs the steps in the compiled loop of
`_avf.c`, whose linear solve repeats SuperLU's on the same factor, with
the same result bit for bit.
"""

import ctypes
import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from . import _native
from .integrator import (
    _EXTRAPOLATION,
    IntegratorConfig,
    Trajectory,
    integrate_steps,
    picard_solve,
)

__all__ = ["TwoBlockSystem"]


@dataclass(frozen=True, eq=False)
class TwoBlockSystem:
    """Two-block Hamiltonian system u' = v, v' = A u - c_u g(u).

    Parameters
    ----------
    A : (n, n) sparse matrix
        Symmetric linear part; stored as CSR.
    c_u : (n,) array_like
        Weight vector of the nonlinear part.
    G : callable
        Elementwise scalar nonlinearity, vectorized over numpy arrays.
    g : callable
        Derivative of G, also vectorized.  Spot-checked against central
        finite differences of G at construction.
    g_avg : callable, optional
        Segment mean (x0, x1) -> (G(x1) - G(x0)) / (x1 - x0), elementwise,
        in a form exact also where x1 = x0: the discrete gradient of the
        nonlinear part that energy-conserving (AVF) steps use.  Spot-checked
        against G at construction.
    """

    A: sparse.csr_matrix
    c_u: np.ndarray
    G: Callable
    g: Callable
    g_avg: Optional[Callable] = None

    def __post_init__(self):
        A = sparse.csr_matrix(self.A, dtype=float)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if abs(A - A.T).max() > 1e-12:
            raise ValueError("A is not symmetric within 1e-12")
        c_u = np.asarray(self.c_u, dtype=float)
        if c_u.shape != (A.shape[0],):
            raise ValueError(
                f"weight vector has shape {c_u.shape}, expected ({A.shape[0]},)"
            )
        _check_elementwise_derivative(self.G, self.g)
        if self.g_avg is not None:
            _check_segment_mean(self.G, self.g, self.g_avg)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c_u", c_u)

    @property
    def n(self) -> int:
        """Block dimension; states have length 2n."""
        return self.A.shape[0]

    def _blocks(self, z, stack=False):
        z = np.asarray(z, dtype=float)
        if z.shape[-1:] != (2 * self.n,) or z.ndim > 1 + stack:
            raise ValueError(f"state has shape {z.shape}, expected ({2 * self.n},)")
        return z[..., : self.n], z[..., self.n :]

    def energy(self, z):
        """H(z) = 0.5 v^T v - 0.5 u^T A u + c_u . G(u), or H of each row of a stack."""
        u, v = self._blocks(z, stack=True)
        uAu = np.sum(u * (u @ self.A), axis=-1)  # u A = (A u)^T, A symmetric
        h = 0.5 * np.sum(v * v, axis=-1) - 0.5 * uAu + self.G(u) @ self.c_u
        return h if u.ndim == 2 else float(h)

    def rhs(self, z) -> np.ndarray:
        """Right-hand side D grad H(z) = (v, A u - c_u * g(u))."""
        u, v = self._blocks(z)
        return np.concatenate([v, self.A @ u - self.c_u * self.g(u)])

    def make_step(self, config: IntegratorConfig):
        """AVF step for `integrate_steps`: step(z, start) -> (z1, iterations).

        z1 = z0 + dt * (v_m, A u_m - c_u g_avg(u0, u1)), with midpoints u_m,
        v_m, is one equation in u_m, iterated from (u0 + start_u) / 2 with
        I - dt^2/4 A factored once (splu):

            (I - dt^2/4 A) u_m = u0 + dt/2 v0 - dt^2/4 c_u g_avg(u0, 2 u_m - u0).

        Then u1 = 2 u_m - u0 and v1 = 4 (u_m - u0) / dt - v0.  Raises
        ValueError without `g_avg`.

        `_avf.c` repeats this step's arithmetic operation by operation for
        `integrate`: a change here must be made there too, or the probe of
        `_checked_loop` turns the compiled loop off.
        """
        if self.g_avg is None:
            raise ValueError("AVF stepping needs the segment mean g_avg of the nonlinearity")
        n, dt, g_avg = self.n, config.dt, self.g_avg
        qc, matrix = self._avf_operators(dt)
        solve = splu(matrix).solve

        def step(z, start):
            u0 = z[:n]
            v0 = z[n:]
            base = u0 + 0.5 * dt * v0

            def update(um):
                return solve(base - qc * g_avg(u0, 2.0 * um - u0))

            um, iterations = picard_solve(update, 0.5 * (u0 + start[:n]), config)
            return np.concatenate([2.0 * um - u0, (4.0 / dt) * (um - u0) - v0]), iterations

        return step

    def _avf_operators(self, dt):
        """qc = dt^2/4 c_u and I - dt^2/4 A (CSC) of the AVF step at dt."""
        q = 0.25 * dt * dt
        return q * self.c_u, sparse.csc_matrix(sparse.identity(self.n) - q * self.A)

    def integrate(self, z0, config: IntegratorConfig) -> Trajectory:
        """AVF integration from z0 over config's steps.

        The result, Picard failures included, is that of
        `integrate_steps(self.make_step(config), z0, config)` bit for bit.
        When g_avg is `wave.sin_average` and the compiled loop of `_avf.c`
        loads and passes a probe, and its emulation of SuperLU's solve
        gives this system's `splu(...).solve` bit for bit on fixed vectors,
        the whole run is one call into that loop, which makes the numpy
        and SuperLU calls of every Picard iteration in C.  Otherwise
        `integrate_steps` runs make_step.  Raises ValueError without
        `g_avg` or for a z0 that is not of length 2n.
        """
        from .wave import sin_average  # wave imports this module

        z0 = np.asarray(z0, dtype=float)
        if z0.shape != (2 * self.n,):
            raise ValueError(f"state has shape {z0.shape}, expected ({2 * self.n},)")
        full = _checked_loop() if self.g_avg is sin_average else None
        traj = None if full is None else self._integrate_compiled(full, z0, config)
        return integrate_steps(self.make_step(config), z0, config) if traj is None else traj

    def _integrate_compiled(self, full, z0, config):
        """`integrate` through the loop `full` of `_native.load_full`, or
        None where the emulated solve differs from SuperLU's."""
        qc, matrix = self._avf_operators(config.dt)
        factor = _native.superlu_factor(full, matrix, splu(matrix))
        if factor is None:
            return None
        args = [full.gemv, ctypes.byref(factor), qc.ctypes.data, config.dt,
                _EXTRAPOLATION.ctypes.data]
        return _native.integrate(full.integrate, args, np.zeros(11 * self.n), z0, config)


@functools.cache
def _checked_loop():
    """`_native.load_full()` when its loop reproduces `integrate_steps`
    bit for bit on a tiny fixed system, else None.  The system's factor
    has a relaxed supernode of ten columns and a fundamental one of three,
    and its weights are not all one."""
    from .wave import WaveConfig, build_laplacian, sin_average

    full = _native.load_full()
    if full is None:
        return None
    n = 16
    system = TwoBlockSystem(build_laplacian(WaveConfig(n=n)), 1.0 + 0.5 * np.cos(np.arange(n)),
                            lambda x: 1.0 - np.cos(x), np.sin, sin_average)
    config = IntegratorConfig(dt=0.01, t_final=0.2)
    z0 = np.concatenate([np.sin(np.arange(n)), 0.3 * np.cos(np.arange(n))])
    expected = integrate_steps(system.make_step(config), z0, config)
    got = system._integrate_compiled(full, z0, config)
    if got is None or not (
        np.array_equal(got.states, expected.states)
        and np.array_equal(got.picard_iters, expected.picard_iters)
    ):
        return None
    return full


def _check_elementwise_derivative(G, g, step=1e-6):
    # Cheap guard against passing a g that is not G'; sample points are
    # fixed so construction stays deterministic.
    pts = np.linspace(-0.9, 1.1, 7)
    fd = (np.asarray(G(pts + step)) - np.asarray(G(pts - step))) / (2.0 * step)
    gv = np.asarray(g(pts), dtype=float) * np.ones_like(pts)
    if not np.allclose(fd, gv, rtol=1e-5, atol=1e-7):
        raise ValueError("g does not match the finite-difference derivative of G")


def _check_segment_mean(G, g, g_avg):
    # the mean times the segment length telescopes G; a zero-length
    # segment gives g itself
    x0 = np.linspace(-0.9, 1.1, 7)
    x1 = x0[::-1] + 0.3
    mean = np.asarray(g_avg(x0, x1), dtype=float)
    if not np.allclose(mean * (x1 - x0), np.asarray(G(x1)) - np.asarray(G(x0)),
                       rtol=1e-9, atol=1e-12):
        raise ValueError("g_avg is not the segment mean of g")
    if not np.allclose(g_avg(x0, x0), g(x0), rtol=1e-9, atol=1e-12):
        raise ValueError("g_avg does not reduce to g on a zero-length segment")
