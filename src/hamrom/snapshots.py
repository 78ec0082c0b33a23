"""Snapshot collection and shifting.

Snapshot sets hold columns of sampled states or nonlinear-function values.
A set may carry a shift reference: its columns then store (sample - ref),
which makes reduced bases exact at the reference state.
"""

import numpy as np

__all__ = ["SnapshotSet", "SNAPSHOT_KINDS", "SampledStates", "collect", "sample_steps", "shift"]

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


def sample_steps(count, stride) -> list:
    """Steps 0, stride, 2*stride, ... of a trajectory of `count` states,
    and its last step."""
    if count < 1:
        raise ValueError("cannot collect snapshots from an empty trajectory")
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    steps = list(range(0, count, stride))
    if steps[-1] != count - 1:
        steps.append(count - 1)
    return steps


def collect(traj, stride, extractor, kind) -> SnapshotSet:
    """Sample a trajectory at steps 0, stride, 2*stride, ..., final inclusive.

    `traj` is a `Trajectory`, an `integrator.TrajectoryFile`, which reads
    only the sampled states, or the `SampledStates` of a trajectory at
    this stride.  The extractor maps a full state row to the sampled
    vector (for example a block slice, or a nonlinear function of it).
    """
    steps = sample_steps(len(traj), stride)
    cols = np.column_stack([extractor(z) for z in traj.rows(steps)])
    return SnapshotSet(cols, steps, kind)


class SampledStates:
    """The states of a trajectory at `sample_steps(len(traj), stride)`,
    read once, so that several `collect` calls at that stride read the
    trajectory once; `rows` gives those states alone."""

    def __init__(self, traj, stride):
        steps = sample_steps(len(traj), stride)
        self._count = len(traj)
        self._row = {step: row for row, step in enumerate(steps)}
        self._states = traj.rows(steps)

    def __len__(self):
        return self._count

    def rows(self, indices) -> np.ndarray:
        """The states at `indices`, each a sampled step: the stored states
        themselves, not a copy, when `indices` are all the sampled steps
        in order."""
        rows = [self._row[k] for k in indices]
        return self._states if rows == list(self._row.values()) else self._states[rows]


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

