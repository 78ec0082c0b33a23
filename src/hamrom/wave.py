"""Nonlinear-wave benchmark: periodic finite differences and system assembly.

The PDE u_tt = c^2 u_xx - sin(u) on a periodic domain [0, l] is
semi-discretized with a three-point stencil on n grid points x_i = i*dx.
In first-order form z = (u, v) it is a `core.TwoBlockSystem` with the
periodic Laplacian A, a `core.PeriodicStencil`, weights c_u = 1 and
G(x) = 1 - cos(x), so that H(z) = 0.5 v^T v - 0.5 u^T A u + sum_i (1 - cos u_i).

The assembled system carries `sin_average`, the exact mean of sin over a
step, so `TwoBlockSystem.make_step` advances it with the
average-vector-field (AVF) discrete gradient, which conserves H exactly
(up to the fixed-point tolerance and rounding).
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import PeriodicStencil, TwoBlockSystem

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
]


@dataclass(frozen=True)
class WaveConfig:
    """Benchmark discretization parameters (defaults: n=500, dx=2e-3)."""

    c_speed: float = 0.1
    length: float = 1.0
    n: int = 500

    def __post_init__(self):
        # an int64 index range, which also keeps length / n from raising
        if not 3 <= self.n < 2**63:
            raise ValueError("need 3 <= n < 2^63 grid points for the periodic stencil")
        if not (0 < self.length < math.inf and 0 < self.c_speed < math.inf):
            raise ValueError("length and c_speed must be finite and positive")
        # the stencil weight of build_laplacian, in numpy scalars: where
        # Python's float ** or / would raise, they give inf, nan or 0
        with np.errstate(all="ignore"):
            weight = np.float64(self.c_speed) ** 2 / np.float64(self.dx) ** 2
        if not 0 < weight < math.inf:
            raise ValueError(
                f"the stencil weight c_speed^2/dx^2 = {weight} is not finite and positive"
            )

    @property
    def dx(self) -> float:
        return self.length / self.n

    def grid(self) -> np.ndarray:
        return self.dx * np.arange(self.n)


def build_laplacian(cfg: WaveConfig) -> PeriodicStencil:
    """Periodic second-difference matrix c^2/dx^2 * (1, -2, 1) as a
    stencil, whose products are those of its CSR form bit for bit."""
    k = cfg.c_speed**2 / cfg.dx**2
    return PeriodicStencil(cfg.n, -2.0 * k, k)


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
    """The 2n-dimensional wave system: periodic Laplacian, unit weights,
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


_TINY = np.finfo(float).tiny


def sin_average(x0, x1):
    """Elementwise mean of sin over [x0, x1], (cos x0 - cos x1) / (x1 - x0).

    Evaluated as sin(m) * sinc(h) with m = (x0 + x1)/2, h = (x1 - x0)/2,
    which has no cancellation as x1 -> x0 and equals sin(x0) there.
    sinc is even, so it is taken at |h| clamped below at the smallest
    normal float, where sin(h)/h is exactly 1 as it is for every smaller
    |h|: h = 0 needs no separate case.
    """
    h = np.maximum(np.abs((x1 - x0) * 0.5), _TINY)
    return np.sin((x0 + x1) * 0.5) * (np.sin(h) / h)
