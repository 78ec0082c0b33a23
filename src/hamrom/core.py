"""Canonical two-block Hamiltonian systems with a sparse linear part.

A state z = (u, v) of length 2n evolves by

    u' = v,    v' = A u - c_u * g(u),

which is z' = D grad H(z) with the canonical skew coupling
D = [[0, I], [-I, 0]] and the energy

    H(z) = 0.5 v^T v - 0.5 u^T A u + sum_i c_u[i] G(u_i).

A is a sparse symmetric n x n matrix, G an elementwise scalar
nonlinearity with derivative g = G', and c_u a weight vector.  No dense
n x n (or 2n x 2n) operator is ever formed.

The record is immutable after construction and its methods are pure.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sparse

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

    def _blocks(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (2 * self.n,):
            raise ValueError(f"state has shape {z.shape}, expected ({2 * self.n},)")
        return z[: self.n], z[self.n :]

    def energy(self, z) -> float:
        """H(z) = 0.5 v^T v - 0.5 u^T A u + c_u . G(u)."""
        u, v = self._blocks(z)
        return float(0.5 * v @ v - 0.5 * u @ (self.A @ u) + self.c_u @ self.G(u))

    def rhs(self, z) -> np.ndarray:
        """Right-hand side D grad H(z) = (v, A u - c_u * g(u))."""
        u, v = self._blocks(z)
        return np.concatenate([v, self.A @ u - self.c_u * self.g(u)])


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
