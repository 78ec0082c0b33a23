"""Orthonormal bases from snapshot sets via thin singular value decomposition.

A basis of rank r consists of the first r left singular vectors of the
snapshot matrix, with a deterministic sign convention: in every column the
entry of largest magnitude (lowest index on ties) is made positive, so two
runs on the same data produce bit-identical bases.

The bases of one set are nested: the rank-r basis is the leading r columns
of every larger one, with the same spectrum and shift reference.  So one
decomposition at the largest rank serves every smaller rank through
`PodBasis.truncated`, bit for bit.
"""

import struct

import numpy as np

from ._binio import FileFormatError, check_payload, read_array, read_exact, write_array
from .snapshots import SnapshotSet, read_container, write_container

__all__ = [
    "PodBasis",
    "RankDeficientError",
    "compute_pod",
    "captured_energy",
    "save_basis",
    "load_basis",
]


class RankDeficientError(ValueError):
    """Requested rank exceeds the numerical rank of the snapshot matrix."""


class PodBasis:
    """Orthonormal column basis with its singular-value spectrum.

    When built from a shifted snapshot set, carries the shift reference:
    the basis then spans the affine subspace ref + span(phi).
    """

    def __init__(self, phi, singular_values, shift_ref=None, kind=None):
        phi = np.asarray(phi, dtype=float)
        singular_values = np.asarray(singular_values, dtype=float)
        if phi.ndim != 2:
            raise ValueError("phi must be a matrix")
        self.phi = phi
        self.singular_values = singular_values
        self.shift_ref = shift_ref if shift_ref is None else np.asarray(shift_ref)
        self.kind = kind

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def r(self) -> int:
        return self.phi.shape[1]

    @property
    def shifted(self) -> bool:
        return self.shift_ref is not None

    def truncated(self, r: int) -> "PodBasis":
        """The rank-r basis of the same set: a C-ordered copy of the leading
        r columns, with this basis's spectrum, shift reference and kind.
        compute_pod(S, R).truncated(r) is bitwise compute_pod(S, r)."""
        if not 1 <= r <= self.r:
            raise ValueError(f"rank r={r} must lie in [1, {self.r}]")
        return PodBasis(self.phi[:, :r].copy(), self.singular_values, self.shift_ref, self.kind)


def _fix_signs(phi):
    # Largest-magnitude entry of each column made positive; argmax takes the
    # lowest index on ties, which pins the convention.
    lead = np.argmax(np.abs(phi), axis=0)
    flip = phi[lead, np.arange(phi.shape[1])] < 0
    phi[:, flip] *= -1.0
    return phi


def compute_pod(snapshots: SnapshotSet, r: int) -> PodBasis:
    """Extract the rank-r basis of a snapshot set.

    Raises RankDeficientError when sigma_r <= 1e-12 * sigma_1.
    """
    n, m = snapshots.columns.shape
    if not 1 <= r <= min(n, m):
        raise ValueError(f"rank r={r} must lie in [1, min(n, M)] = [1, {min(n, m)}]")
    left, sigma, _ = np.linalg.svd(snapshots.columns, full_matrices=False)
    if sigma[r - 1] <= 1e-12 * sigma[0]:
        # sigma_1 = 0 only for a zero matrix, where the ratio is 0/0
        ratio = f"sigma_r/sigma_1 = {sigma[r - 1] / sigma[0]:.3e}" if sigma[0] else "sigma_1 = 0"
        raise RankDeficientError(f"snapshot matrix has numerical rank below r={r}: {ratio}")
    phi = _fix_signs(left[:, :r].copy())
    return PodBasis(phi, sigma, shift_ref=snapshots.shift_ref, kind=snapshots.kind)


def captured_energy(basis: PodBasis) -> float:
    """Informational ratio sum_{j<=r} sigma_j^2 / sum_j sigma_j^2."""
    sq = basis.singular_values**2
    return float(np.sum(sq[: basis.r]) / np.sum(sq))


def save_basis(basis: PodBasis, path):
    """Persist a basis: snapshot container (kind "basis") plus the spectrum."""
    with open(path, "wb") as fh:
        write_container(
            fh, basis.phi, np.arange(basis.r), "basis", basis.shift_ref
        )
        fh.write(struct.pack("<Q", basis.singular_values.shape[0]))
        write_array(fh, basis.singular_values)


def load_basis(path) -> PodBasis:
    with open(path, "rb") as fh:
        phi, _, kind, shift_ref = read_container(fh, path)
        if kind != "basis":
            raise FileFormatError(f"{path}: container holds {kind!r}, not a basis")
        (count,) = struct.unpack("<Q", read_exact(fh, 8, "singular value count"))
        check_payload(fh, 8 * count, "singular values", path)
        sigma = read_array(fh, (count,), "singular values")
    return PodBasis(phi, sigma, shift_ref=shift_ref, kind=kind)
