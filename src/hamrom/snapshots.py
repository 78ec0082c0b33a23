"""Snapshot collection, shifting, and binary persistence.

Snapshot sets hold columns of sampled states or nonlinear-function values.
A set may carry a shift reference: its columns then store (sample - ref),
which makes reduced bases exact at the reference state.

On-disk container (all little-endian):

    "HRSNAP01" | u32 version=1 | u32 kind | u64 n | u64 M | u8 has_shift
    | shift_ref (n f64, if flagged) | sample_steps (M u64)
    | columns, column-major (n*M f64)
"""

import struct

import numpy as np

from ._binio import FileFormatError, read_array, read_exact, write_array

__all__ = [
    "SnapshotSet",
    "SNAPSHOT_KINDS",
    "collect",
    "shift",
    "save_snapshots",
    "load_snapshots",
    "FileFormatError",
]

_MAGIC = b"HRSNAP01"

# "basis" is used when the container is reused for POD basis persistence.
SNAPSHOT_KINDS = ("state-u", "state-v", "nonlinear-G", "basis")


class SnapshotSet:
    """Matrix of snapshot columns with sampling metadata."""

    def __init__(self, columns, sample_steps, kind, shift_ref=None):
        columns = np.asarray(columns, dtype=float)
        sample_steps = np.asarray(sample_steps, dtype=np.int64)
        if columns.ndim != 2 or columns.shape[1] < 1:
            raise ValueError("columns must be an n x M matrix with M >= 1")
        if sample_steps.shape != (columns.shape[1],):
            raise ValueError("sample_steps length must match the column count")
        if kind not in SNAPSHOT_KINDS:
            raise ValueError(f"unknown snapshot kind {kind!r}")
        if shift_ref is not None:
            shift_ref = np.asarray(shift_ref, dtype=float)
            if shift_ref.shape != (columns.shape[0],):
                raise ValueError("shift reference length must match the row count")
        self.columns = columns
        self.sample_steps = sample_steps
        self.kind = kind
        self.shift_ref = shift_ref

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]


def collect(traj, stride, extractor, kind) -> SnapshotSet:
    """Sample a trajectory at steps 0, stride, 2*stride, ..., final inclusive.

    The extractor maps a full state row to the sampled vector (for example
    a block slice, or a nonlinear function of it).
    """
    if len(traj) < 1:
        raise ValueError("cannot collect snapshots from an empty trajectory")
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    last = len(traj) - 1
    steps = list(range(0, last + 1, stride))
    if steps[-1] != last:
        steps.append(last)
    cols = np.column_stack([extractor(traj.states[k]) for k in steps])
    return SnapshotSet(cols, steps, kind)


def shift(snapshots: SnapshotSet, ref) -> SnapshotSet:
    """Subtract a reference vector from every column.

    Columns that become exactly zero are retained; they change neither the
    left singular vectors nor the nonzero singular values.
    """
    if snapshots.shift_ref is not None:
        raise ValueError("snapshot set is already shifted")
    ref = np.asarray(ref, dtype=float)
    if ref.shape != (snapshots.n,):
        raise ValueError(f"reference has shape {ref.shape}, expected ({snapshots.n},)")
    return SnapshotSet(
        snapshots.columns - ref[:, None],
        snapshots.sample_steps,
        snapshots.kind,
        shift_ref=ref,
    )


def _kind_code(kind):
    return SNAPSHOT_KINDS.index(kind)


def write_container(fh, columns, sample_steps, kind, shift_ref):
    n, m = columns.shape
    has_shift = shift_ref is not None
    fh.write(struct.pack("<8sIIQQB", _MAGIC, 1, _kind_code(kind), n, m, has_shift))
    if has_shift:
        write_array(fh, shift_ref)
    write_array(fh, np.asarray(sample_steps), dtype="<u8")
    write_array(fh, columns.T)  # column-major payload


def read_container(fh, path):
    head = read_exact(fh, struct.calcsize("<8sIIQQB"), "snapshot header")
    magic, version, kind_code, n, m, has_shift = struct.unpack("<8sIIQQB", head)
    if magic != _MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}")
    if version != 1:
        raise FileFormatError(f"{path}: unsupported version {version}")
    if kind_code >= len(SNAPSHOT_KINDS):
        raise FileFormatError(f"{path}: unknown kind code {kind_code}")
    if n == 0 or m == 0:
        raise FileFormatError(f"{path}: implausible dimensions {n} x {m}")
    # read_array checks every size the header claims against the bytes
    # that follow before it allocates
    shift_ref = read_array(fh, (n,), "shift reference") if has_shift else None
    steps = read_array(fh, (m,), "sample steps", dtype="<u8").astype(np.int64)
    columns = read_array(fh, (m, n), "column data").T
    return columns, steps, SNAPSHOT_KINDS[kind_code], shift_ref


def save_snapshots(snapshots: SnapshotSet, path):
    with open(path, "wb") as fh:
        write_container(
            fh, snapshots.columns, snapshots.sample_steps, snapshots.kind,
            snapshots.shift_ref,
        )


def load_snapshots(path) -> SnapshotSet:
    with open(path, "rb") as fh:
        columns, steps, kind, shift_ref = read_container(fh, path)
    return SnapshotSet(columns, steps, kind, shift_ref=shift_ref)
