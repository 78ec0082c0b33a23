"""Nonlinear-wave benchmark: periodic finite differences and system assembly.

The PDE u_tt = c^2 u_xx - sin(u) on a periodic domain [0, l] is
semi-discretized with a three-point stencil on n grid points x_i = i*dx.
In first-order form z = (u, v) it is a `core.TwoBlockSystem` with the
sparse periodic Laplacian A, weights c_u = 1 and G(x) = 1 - cos(x), so
that H(z) = 0.5 v^T v - 0.5 u^T A u + sum_i (1 - cos u_i).

`make_wave_step` advances the system with the average-vector-field (AVF)
discrete gradient, which conserves H exactly (up to the fixed-point
tolerance and rounding): `sin_average` replaces sin(u) at the midpoint by
its exact mean over the step, the stiff linear part is factored once, and
each solve starts from the first iterate that `integrate_steps` supplies.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .core import TwoBlockSystem
from .integrator import IntegratorConfig, picard_solve

__all__ = [
    "WaveConfig",
    "build_laplacian",
    "bump_spline",
    "spline_initial_condition",
    "initial_state",
    "assemble_wave_fom",
    "make_wave_rhs",
    "make_wave_energy",
    "sin_average",
    "make_wave_step",
]


@dataclass(frozen=True)
class WaveConfig:
    """Benchmark discretization parameters (defaults: n=500, dx=2e-3)."""

    c_speed: float = 0.1
    length: float = 1.0
    n: int = 500

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 grid points for the periodic stencil")
        if self.length <= 0 or self.c_speed <= 0:
            raise ValueError("length and c_speed must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n

    def grid(self) -> np.ndarray:
        return self.dx * np.arange(self.n)


def build_laplacian(cfg: WaveConfig) -> sparse.csr_matrix:
    """Periodic second-difference matrix c^2/dx^2 * (1, -2, 1), as CSR
    with sorted column indices."""
    n = cfg.n
    k = cfg.c_speed**2 / cfg.dx**2
    rows = np.arange(n)[:, None]
    cols = np.sort(np.hstack([(rows - 1) % n, rows, (rows + 1) % n]), axis=1)
    data = np.where(cols == rows, -2.0 * k, k)
    indptr = 3 * np.arange(n + 1)
    return sparse.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(n, n))


def bump_spline(s):
    """Cubic spline profile: 1 - 1.5 s^2 + 0.75 s^3 on [0,1],
    0.25 (2-s)^3 on (1,2], zero beyond."""
    s = np.asarray(s, dtype=float)
    return np.where(
        s <= 1.0,
        1.0 - 1.5 * s**2 + 0.75 * s**3,
        np.where(s <= 2.0, 0.25 * (2.0 - s) ** 3, 0.0),
    )


def spline_initial_condition(cfg: WaveConfig) -> np.ndarray:
    """Initial displacement u0[i] = f(10 |x_i - 1/2|) on the grid."""
    return bump_spline(10.0 * np.abs(cfg.grid() - 0.5))


def initial_state(cfg: WaveConfig) -> np.ndarray:
    """Full initial state z0 = (u0, 0) of length 2n."""
    return np.concatenate([spline_initial_condition(cfg), np.zeros(cfg.n)])


def assemble_wave_fom(cfg: WaveConfig) -> TwoBlockSystem:
    """The 2n-dimensional wave system: sparse Laplacian, unit weights,
    G = 1 - cos with its AVF segment mean `sin_average`."""
    return TwoBlockSystem(
        build_laplacian(cfg), np.ones(cfg.n), lambda x: 1.0 - np.cos(x), np.sin, sin_average
    )


def make_wave_rhs(cfg: WaveConfig):
    """Right-hand side z -> (v, A u - sin u) of the assembled system."""
    return assemble_wave_fom(cfg).rhs


def make_wave_energy(cfg: WaveConfig):
    """Hamiltonian z -> 0.5 v'v - 0.5 u'Au + sum(1 - cos u) of the assembled system."""
    return assemble_wave_fom(cfg).energy


def sin_average(x0, x1):
    """Elementwise mean of sin over [x0, x1], (cos x0 - cos x1) / (x1 - x0).

    Evaluated as sin(m) * sinc(h) with m = (x0 + x1)/2, h = (x1 - x0)/2,
    which has no cancellation as x1 -> x0 and equals sin(x0) there.
    """
    m = 0.5 * (x0 + x1)
    h = 0.5 * (x1 - x0)
    return np.sin(m) * np.divide(np.sin(h), h, out=np.ones(h.shape), where=h != 0.0)


def make_wave_step(cfg: WaveConfig, config: IntegratorConfig, g_avg=sin_average):
    """AVF step z0 -> z1 of the wave system, for `integrate_steps`.

    The AVF step z1 = z0 + dt * (v_m, A u_m - g_avg(u0, u1)), with
    midpoints u_m, v_m, reduces to one equation in u_m:

        (I - dt^2/4 A) u_m = u0 + dt/2 v0 - dt^2/4 g_avg(u0, 2 u_m - u0),

    iterated from u_m = (u0 + start_u) / 2, where start_u is the u block
    of the first iterate `start` that `integrate_steps` supplies, with the
    periodic matrix factored once (splu).  Then u1 = 2 u_m - u0 and
    v1 = 4 (u_m - u0) / dt - v0.  Pass `g_avg` to substitute the averaged
    nonlinearity, for example zero to turn it off.  The returned
    step(z, start) gives (z1, Picard iterations).
    """
    n = cfg.n
    dt = config.dt
    q = 0.25 * dt * dt
    A = build_laplacian(cfg)
    solve = splu(sparse.csc_matrix(sparse.identity(n) - q * A)).solve

    def step(z, start):
        u0 = z[:n]
        v0 = z[n:]
        base = u0 + 0.5 * dt * v0

        def update(um):
            return solve(base - q * g_avg(u0, 2.0 * um - u0))

        um, iterations = picard_solve(update, 0.5 * (u0 + start[:n]), config)
        return np.concatenate([2.0 * um - u0, (4.0 / dt) * (um - u0) - v0]), iterations

    return step
