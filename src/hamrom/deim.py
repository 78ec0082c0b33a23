"""Discrete empirical interpolation: greedy point selection and weights.

Given an orthonormal basis Psi (n x s) for the range of a nonlinear
function, the greedy selection picks s interpolation indices; the oblique
projector

    proj = Psi (P^T Psi)^{-1} P^T,    P = identity columns at the indices,

reproduces any vector in span(Psi) from its s sampled entries.  For a
split Hamiltonian with weights c the vector proj^T c is supported on the
selected indices only, which is what makes sampled evaluation of both the
reduced Hamiltonian and its gradient possible.

Greedy selection is prefix-stable: the first s indices depend only on the
first s columns of Psi.  With the nested POD bases of one snapshot set, one
selection at the largest size therefore serves every smaller size through
`DeimModel.truncated`, bit for bit.
"""

import numpy as np
import scipy.linalg

__all__ = ["DeimModel", "deim_select", "build_deim", "precompute_weights"]


def deim_select(psi) -> np.ndarray:
    """Greedy interpolation indices for the columns of psi.

    The first index is the argmax of |psi_1|; each later index is the
    argmax of the residual of the next column against the interpolant built
    so far.  Ties break toward the lowest index (argmax convention), so the
    selection is deterministic.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2 or psi.shape[1] < 1:
        raise ValueError("psi must be an n x s matrix with s >= 1")
    s = psi.shape[1]
    indices = np.empty(s, dtype=np.int64)
    indices[0] = int(np.argmax(np.abs(psi[:, 0])))
    for level in range(1, s):
        sampled = psi[indices[:level], :level]
        try:
            coeff = np.linalg.solve(sampled, psi[indices[:level], level])
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                f"singular interpolation matrix at selection step {level}"
            ) from None
        residual = psi[:, level] - psi[:, :level] @ coeff
        indices[level] = int(np.argmax(np.abs(residual)))
    return indices


class DeimModel:
    """Interpolation basis, selected indices, and precomputed weights."""

    def __init__(self, psi, indices, weights_full, shift_ref=None):
        psi = np.asarray(psi, dtype=float)
        indices = np.asarray(indices, dtype=np.int64)
        if indices.shape != (psi.shape[1],):
            raise ValueError("need exactly one interpolation index per basis column")
        if len(np.unique(indices)) != indices.shape[0]:
            raise ValueError("interpolation indices must be distinct")
        interp = psi[indices, :]  # s x s matrix P^T Psi
        self.psi = psi
        self.indices = indices
        self.lu = scipy.linalg.lu_factor(interp)
        self.cond = float(np.linalg.cond(interp))
        self.weights_full = np.asarray(weights_full, dtype=float)
        self.weights = precompute_weights(self, self.weights_full)
        self.shift_ref = shift_ref if shift_ref is None else np.asarray(shift_ref)

    @property
    def n(self) -> int:
        return self.psi.shape[0]

    @property
    def s(self) -> int:
        return self.psi.shape[1]

    @property
    def shifted(self) -> bool:
        return self.shift_ref is not None

    def truncated(self, s: int) -> "DeimModel":
        """The size-s model of the same basis: the leading s columns (a
        C-ordered copy) and indices, with the interpolation factor, cond and
        weights rebuilt from the same weight vector and shift reference.
        build_deim(B, c).truncated(s) is bitwise build_deim(B.truncated(s), c)."""
        if not 1 <= s <= self.s:
            raise ValueError(f"interpolation size s={s} must lie in [1, {self.s}]")
        return DeimModel(self.psi[:, :s].copy(), self.indices[:s].copy(), self.weights_full,
                         shift_ref=self.shift_ref)


def precompute_weights(model: DeimModel, c) -> np.ndarray:
    """Collapse proj^T c onto the sampled entries.

    Returns w = (P^T Psi)^{-T} (Psi^T c); scattering w onto the selected
    indices reproduces proj^T c exactly.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (model.n,):
        raise ValueError(f"weight vector has shape {c.shape}, expected ({model.n},)")
    return scipy.linalg.lu_solve(model.lu, model.psi.T @ c, trans=1)


def build_deim(basis, c) -> DeimModel:
    """Build a DEIM model from a POD basis of nonlinear snapshots.

    `basis` is a PodBasis (its shift reference, when present, is the
    nonlinear function at the reference state); `c` is the weight vector of
    the split Hamiltonian the model will serve.
    """
    indices = deim_select(basis.phi)
    return DeimModel(basis.phi, indices, c, shift_ref=basis.shift_ref)

