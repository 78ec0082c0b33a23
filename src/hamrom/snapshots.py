"""Snapshot collection and shifting.

Snapshot sets hold columns of sampled states or nonlinear-function values.
A set may carry a shift reference: its columns then store (sample - ref),
which makes reduced bases exact at the reference state.
"""

import numpy as np

__all__ = ["SnapshotSet", "SNAPSHOT_KINDS", "collect", "shift"]

SNAPSHOT_KINDS = ("state-u", "state-v", "nonlinear-G")


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

    `traj` is a `Trajectory` or an `integrator.TrajectoryFile`, which reads
    only the sampled states.  The extractor maps a full state row to the
    sampled vector (for example a block slice, or a nonlinear function of
    it).
    """
    if len(traj) < 1:
        raise ValueError("cannot collect snapshots from an empty trajectory")
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    last = len(traj) - 1
    steps = list(range(0, last + 1, stride))
    if steps[-1] != last:
        steps.append(last)
    cols = np.column_stack([extractor(z) for z in traj.rows(steps)])
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

