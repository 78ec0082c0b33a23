"""Canonical two-block Hamiltonian systems with a periodic stencil as linear part.

A state z = (u, v) of length 2n evolves by

    u' = v,    v' = A u - c_u * g(u),

which is z' = D grad H(z) with the canonical skew coupling
D = [[0, I], [-I, 0]] and the energy

    H(z) = 0.5 v^T v - 0.5 u^T A u + sum_i c_u[i] G(u_i).

A is a `PeriodicStencil`, the symmetric periodic three-point stencil of
the wave's Laplacian, G an elementwise scalar nonlinearity with
derivative g = G', and c_u a weight vector.  No dense n x n (or 2n x 2n)
operator is ever formed.

Like a reduced model, the record has an AVF `make_step`, an `integrate`
that runs it over a time grid and a stacked `energy`.  It is immutable
after construction and its methods are pure.  The AVF step solves with
I - dt^2/4 A, itself a periodic stencil, factored as a
`PeriodicFactor`.  For the wave's `sin_average`, `integrate` runs the
steps in the compiled loop of `_avf.c`, which calls the same LAPACK and
BLAS routines on the same factor, with the same result bit for bit;
both take LAPACK from `_native.lapack`.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _native
from .integrator import IntegratorConfig, Trajectory, picard_solve

__all__ = ["TwoBlockSystem", "PeriodicFactor", "PeriodicStencil"]

# entries of W below this are set to zero: W decays geometrically away
# from the corners, and a subnormal entry would slow every solve
_FLUSH = 1e-290


@dataclass(frozen=True)
class PeriodicStencil:
    """The symmetric periodic three-point stencil on n >= 3 points: the
    n x n matrix with `diagonal` on its diagonal and `off` beside it and
    in its corners.  `@` takes a vector or the columns of a block and
    gives the product of the matrix in CSR with sorted columns, bit for
    bit and C-ordered: each row sums its products in column order from 0.0."""

    n: int
    diagonal: float
    off: float

    def __post_init__(self):
        if self.n < 3:  # fewer points would repeat a column in a row
            raise ValueError(f"a periodic three-point stencil needs n >= 3 points, not {self.n}")

    @property
    def shape(self):
        return (self.n, self.n)

    def toarray(self) -> np.ndarray:
        rows, a = np.arange(self.n), np.zeros(self.shape)
        a[rows, rows], a[rows, rows - 1], a[rows - 1, rows] = self.diagonal, self.off, self.off
        return a

    def __matmul__(self, x):
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape[:1] != (self.n,) or x.ndim > 2:
            raise ValueError(f"dimension mismatch: {self.shape} @ {x.shape}")
        # row i is (d x_i + e x_{i-1}) + e x_{i+1}, CSR's (e x_{i-1} + d x_i) + e x_{i+1};
        # rows 0 and n-1 take their columns in the order (0, 1, n-1) and (0, n-2, n-1)
        y, t = x * self.diagonal, x * self.off
        y[1:-1] += t[:-2]
        y[1:-1] += t[2:]
        y[0] += t[1]
        y[0] += t[-1]
        y[-1] = t[0] + t[-2] + y[-1]
        y += 0.0  # CSR's sum from 0.0 is +0.0 where all three products are -0.0
        return y


class PeriodicFactor(NamedTuple):
    """Solver of M x = b for M a `PeriodicStencil`: its tridiagonal part
    T, which must be positive definite, plus the corner entries
    s = M[0, n-1] = M[n-1, 0] = M.off.

    T = L D L^T is factored by LAPACK's dpttrf, and `d`, `e` hold D and
    the subdiagonal of L.  The corners enter by Sherman-Morrison-Woodbury:
    with U = [e_0, e_{n-1}] and S = [[0, s], [s, 0]], M = T + U S U^T and

        M^-1 b = y - W C (y_0, y_{n-1}),   y = T^-1 b,  W = T^-1 U,
        C = (I_2 + S U^T W)^-1 S.

    `wc` is the C-ordered n x 2 product W C, which is zero where s = 0.
    A diagonal M (e and wc None) is solved by division, where dpttrs's
    update with a zero off-diagonal would turn an infinite entry into NaN.
    """

    d: np.ndarray
    e: Optional[np.ndarray]
    wc: Optional[np.ndarray]

    @classmethod
    def of(cls, stencil: PeriodicStencil):
        """The factor of the stencil.  Raises ValueError where T is not
        positive definite."""
        n, s = stencil.n, stencil.off
        d, e = np.full(n, stencil.diagonal), np.full(n - 1, s)
        if s != 0:
            d, e = _native.pttrf(d, e)  # it stops at a pivot <= 0, which stays in d
        else:
            e = None
        if np.any(d <= 0):
            raise ValueError("the tridiagonal part of I - dt^2/4 A is not positive definite")
        if e is None:
            return cls(d, None, None)
        corner_columns = np.zeros((n, 2))
        corner_columns[[0, n - 1], [0, 1]] = 1.0
        w = _native.pttrs(d, e, corner_columns)
        w[np.abs(w) < _FLUSH] = 0.0
        corners = np.array([[0.0, s], [s, 0.0]])
        c = np.linalg.solve(np.eye(2) + corners @ w[[0, n - 1]], corners)
        return cls(d, e, np.ascontiguousarray(w @ c))

    def solve(self, b):
        """x = M^-1 b, a new array."""
        if self.e is None:
            return b / self.d
        y = _native.pttrs(self.d, self.e, b)
        return y - np.dot(self.wc, y[[0, -1]])


@dataclass(frozen=True, eq=False)
class TwoBlockSystem:
    """Two-block Hamiltonian system u' = v, v' = A u - c_u g(u).

    Parameters
    ----------
    A : PeriodicStencil
        Symmetric linear part.
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

    A: PeriodicStencil
    c_u: np.ndarray
    G: Callable
    g: Callable
    g_avg: Optional[Callable] = None

    def __post_init__(self):
        if not isinstance(self.A, PeriodicStencil):
            raise TypeError(f"A must be a PeriodicStencil, not {type(self.A).__name__}")
        c_u = np.asarray(self.c_u, dtype=float)
        if c_u.shape != (self.n,):
            raise ValueError(f"weight vector has shape {c_u.shape}, expected ({self.n},)")
        _check_elementwise_derivative(self.G, self.g)
        if self.g_avg is not None:
            _check_segment_mean(self.G, self.g, self.g_avg)
        object.__setattr__(self, "c_u", c_u)

    @property
    def n(self) -> int:
        """Block dimension; states have length 2n."""
        return self.A.n

    @property
    def dim(self) -> int:
        """State length 2n."""
        return 2 * self.n

    def _blocks(self, z, stack=False):
        z = np.asarray(z, dtype=float)
        if z.shape[-1:] != (self.dim,) or z.ndim > 1 + stack:
            raise ValueError(f"state has shape {z.shape}, expected ({self.dim},)")
        return z[..., : self.n], z[..., self.n :]

    def energy(self, z):
        """H(z) = 0.5 v^T v - 0.5 u^T A u + c_u . G(u), or H of each row of a stack."""
        u, v = self._blocks(z, stack=True)
        # the stencil multiplies from the left, and (A u^T)^T is u A bit for
        # bit, as the stencil is symmetric
        uAu = np.sum(u * (self.A @ u.T).T, axis=-1)
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
        I - dt^2/4 A factored once (`PeriodicFactor`):

            (I - dt^2/4 A) u_m = u0 + dt/2 v0 - dt^2/4 c_u g_avg(u0, 2 u_m - u0).

        Then u1 = 2 u_m - u0 and v1 = 4 (u_m - u0) / dt - v0.  Raises
        ValueError without `g_avg`, or where the tridiagonal part of
        I - dt^2/4 A is not positive definite.

        `_avf.c` repeats this step's arithmetic operation by operation for
        `integrate`: a change here must be made there too, or the probe of
        `_native.checked` turns the compiled loops off.
        """
        if self.g_avg is None:
            raise ValueError("AVF stepping needs the segment mean g_avg of the nonlinearity")
        n, dt, g_avg = self.n, config.dt, self.g_avg
        qc, factor = self._avf_operators(dt)
        solve = factor.solve

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
        """qc = dt^2/4 c_u and the `PeriodicFactor` of I - dt^2/4 A of the
        AVF step at dt."""
        q, A = 0.25 * dt * dt, self.A
        # the entries of CSR's identity(n) - q A: a zero off-diagonal gives +0.0, not -0.0
        m = PeriodicStencil(A.n, 1.0 - q * A.diagonal, 0.0 - q * A.off)
        return q * self.c_u, PeriodicFactor.of(m)

    def integrate(self, z0, config: IntegratorConfig) -> Trajectory:
        """AVF integration from z0 over config's steps; see `_native.integrate`."""
        return _native.integrate(self, z0, config)

    def integrate_blocks(self, z0, config: IntegratorConfig, rows):
        """The states of `integrate` in blocks of `rows`, each with its
        Picard iterations, from one reused window; see `_native.blocks`."""
        return _native.blocks(self, z0, config, rows)

    def _compiled(self, loops, config):
        """The full-order loop of `_native.load`'s `loops`, its leading
        arguments at config.dt before the extrapolation weights, arrays for
        pointers, and its work doubles, for `_native.run`; None unless
        g_avg is `wave.sin_average`, the mean that the loop computes."""
        from .wave import sin_average  # wave imports this module

        if self.g_avg is not sin_average:
            return None
        qc, factor = self._avf_operators(config.dt)
        args = [loops.gemv, loops.pttrs, self.n, factor.d, factor.e, factor.wc, qc, config.dt]
        return loops.full, args, np.empty(9 * self.n + 2)


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
