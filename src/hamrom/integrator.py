"""Implicit one-step time stepping with Picard fixed-point solves.

`integrate` advances z' = f(z) with the implicit midpoint rule

    z_new = z + dt * f((z + z_new) / 2),

solving each step by plain fixed-point iteration.  The rule is symplectic
and preserves quadratic invariants exactly (up to the Picard tolerance),
but leaves an O(dt^2) oscillation in any energy that is not quadratic.

`integrate_steps` runs any one-step map `step(z, start) -> (z_new,
iterations)`; `integrate` is that driver over a midpoint step.  `start` is
the first Picard iterate: the current state z_k for the first seven steps,
then the degree-7 extrapolation of the last eight stored states,

    start = sum_j (-1)^j binom(8, j+1) z_{k-j},  j = 0..7
          = 8 z_k - 28 z_{k-1} + 56 z_{k-2} - 70 z_{k-3}
            + 56 z_{k-4} - 28 z_{k-5} + 8 z_{k-6} - z_{k-7},

which is O(dt^8) away from z_{k+1} instead of O(dt), so a solve at the
reference step size meets the tolerance in two iterations instead of
three.  Rounding in the start is amplified by the weights' 1-norm,
2^8 - 1 = 255, which keeps it near 3e-14, well below the default
tolerance.  Stiff modes with dt * omega > pi/3 are extrapolated badly,
but the full-order step solves its linear part exactly, so they cost no
extra iterations.

Through `TwoBlockSystem.integrate` and `ReducedModel.integrate`, the
pipeline gives `advance_steps`, the stepping loop of `integrate_steps`,
the average-vector-field (AVF) discrete-gradient steps of
`TwoBlockSystem.make_step` and `ReducedModel.make_step`: they replace the
nonlinearity at the midpoint by its exact mean over the step, which
conserves every energy of the form z' = D grad H(z), and they solve with
the stiff linear part factored once.  With no nonlinearity AVF is exactly
the midpoint rule.  For the wave, both `integrate` methods run their
steps in a compiled loop instead, which repeats this module's
extrapolated start and stopping rule bit for bit; so does `integrate`
here for the reduced vector field of `ReducedModel.make_rhs`, whose
midpoint steps a third loop runs.

Every solve stops by `picard_converged`: convergence is measured on the
iterate update in max-norm, relative with absolute floor 1, and a
non-finite update stops the solve at once.  `picard_solve` iterates any
map that returns a new iterate; the midpoint step and both AVF steps
solve with it.  `advance_steps` keeps the extrapolated first iterates
in two buffers of its own, used in turn, so `start` is valid only during
the call that receives it.

Memory.  `run_blocks` runs every integration in a window whose rows
before the current state hold the last seven states, from which
`advance_steps` and the compiled loops resume it, so an integration can
run block by block in one small window (`TwoBlockSystem.integrate_blocks`)
with the states of one run, bit for bit.  `hamrom fom` runs that way and
appends each block to the file through `trajectory_writer`;
`open_trajectory` reads the file back a few states at a time with pread.
No stage holds the whole full-order trajectory, so its memory does not
grow with the run length.  A whole run (`integrate_steps`, the reduced
runs) is the one block of its window.  Every window is an anonymous
mapping of its own, never in the malloc heap, where tens of MB would
stay resident after they are freed and leave a hole that later
allocations fragment; the mapping is unmapped when the array is freed.
`load_trajectory` maps a whole file copy-on-write.  Every file is written
under a unique temporary name and renamed over the old one, so a file
that a loaded trajectory still maps is never truncated under it.
"""

import contextlib
import functools
import itertools
import math
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from ._binio import FileFormatError, check_payload, read_exact, write_array

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "PicardDivergenceError",
    "picard_converged",
    "picard_solve",
    "integrate",
    "integrate_steps",
    "advance_steps",
    "run_blocks",
    "save_trajectory",
    "trajectory_writer",
    "TrajectoryFile",
    "open_trajectory",
    "load_trajectory",
]

_TRAJ_MAGIC = b"HRTRAJ01"
_TRAJ_HEADER = struct.Struct("<8sIQQdd")
# weights of z_{k-7}, ..., z_k in the degree-7 extrapolation of z_{k+1}
_EXTRAPOLATION = np.array([-1.0, 8.0, -28.0, 56.0, -70.0, 56.0, -28.0, 8.0])


def _mapped_empty(shape, dtype=float):
    """Uninitialised array in a private anonymous mapping of its own."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(1, count * dtype.itemsize))
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.01
    t_final: float = 50.0
    picard_tol: float = 1e-12
    picard_max_iter: int = 100

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be finite and positive")
        if not 0 <= self.t_final < math.inf:
            raise ValueError("t_final must be finite and non-negative")
        if not 0 < self.picard_tol < math.inf:
            raise ValueError("picard_tol must be finite and positive")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be at least 1")

    def step_count(self) -> int:
        """Number of steps round(t_final/dt); errors on a fractional count."""
        ratio = self.t_final / self.dt
        if ratio == math.inf:
            raise ValueError(f"t_final={self.t_final} is too many steps of dt={self.dt}")
        steps = round(ratio)
        if abs(self.t_final - steps * self.dt) > 1e-9 * max(1.0, abs(self.t_final)):
            raise ValueError(
                f"t_final={self.t_final} is not an integer multiple of dt={self.dt}"
            )
        return steps


class PicardDivergenceError(RuntimeError):
    """Fixed-point iteration failed to reach the update tolerance.

    `step` is the failing step of an integration and `model` names what
    was integrated (for example "sp-deim-1 r=10"), when known.
    """

    def __init__(self, iterations, residual, step=None, model=None):
        self.iterations = iterations
        self.residual = residual
        self.step = step
        self.model = model
        where = "" if model is None else f" in {model}"
        where += "" if step is None else f" at step {step}"
        super().__init__(
            f"Picard iteration did not converge{where}: "
            f"residual {residual:.3e} after {iterations} iterations"
        )


class Trajectory:
    """Dense record of an integration: one state row per step, t0 included.

    `dt` is the step size when known: `integrate_steps` and
    `load_trajectory` set it, also for a single state.
    """

    def __init__(self, states, times, picard_iters=None, dt=None):
        states = np.asarray(states, dtype=float)
        times = np.asarray(times, dtype=float)
        if states.ndim != 2 or states.shape[0] != times.shape[0]:
            raise ValueError("states and times must have matching first dimension")
        self.states = states
        self.times = times
        self.dim = states.shape[1]
        self.picard_iters = picard_iters
        self.dt = dt

    def __len__(self):
        return self.states.shape[0]

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    def rows(self, indices) -> np.ndarray:
        """The states at `indices`, one row each."""
        return self.states[np.asarray(indices, dtype=np.intp)]

    @classmethod
    def of_run(cls, blocks, dt):
        """The trajectory of a run that `run_blocks` yields in one block."""
        [(states, iterations)] = blocks
        return cls(states, np.arange(len(states)) * dt, picard_iters=iterations, dt=dt)

    def blocks(self, size):
        """Yield (start, states[start : start + size]) for start = 0, size, ..."""
        for start in range(0, len(self), size):
            yield start, self.states[start : start + size]

    def read(self, start, out) -> np.ndarray:
        """Copy states start, start + 1, ... into `out`; returns out."""
        out[...] = self.states[start : start + len(out)]
        return out


def picard_converged(update, x, iteration, config: IntegratorConfig) -> bool:
    """The stopping rule of every Picard solve, after update `iteration`.

    `update` holds x - x_previous and is overwritten; `x` is the new
    iterate.  True once the max-norm update is at most
    picard_tol * max(1, max|x|).  Raises PicardDivergenceError at a
    non-finite update, or when update picard_max_iter has not converged.
    """
    # a.item(a.argmax()) is a.max() as a Python float, NaN if any entry
    # is NaN, at a fraction of the cost of a reduction on a short vector
    np.abs(update, update)
    residual = update.item(update.argmax())
    if not residual < math.inf:  # NaN or infinite update
        raise PicardDivergenceError(iteration, residual)
    # tol * max(1, max|x|) = max(tol, tol * max|x|): max|x| is needed
    # only when the update exceeds tol
    tol = config.picard_tol
    if residual <= tol:
        return True
    np.abs(x, update)
    if residual <= tol * update.item(update.argmax()):
        return True
    if iteration >= config.picard_max_iter:
        raise PicardDivergenceError(iteration, residual)
    return False


def picard_solve(phi, x, config: IntegratorConfig):
    """Fixed point of phi by plain iteration from x; returns (x, iterations).

    Stops by `picard_converged`: once the max-norm update is at most
    picard_tol * max(1, max|x|); raises PicardDivergenceError at the first
    non-finite update, or after picard_max_iter updates.
    """
    for it in itertools.count(1):
        x_next = phi(x)
        update = x_next - x
        x = x_next
        if picard_converged(update, x, it, config):
            return x, it


def _midpoint_step_map(f, config: IntegratorConfig):
    """Implicit midpoint step of z' = f(z) for `integrate_steps`."""
    dt = config.dt

    def step(z, start):
        half = 0.5 * z
        return picard_solve(lambda z_new: z + dt * f(half + 0.5 * z_new), start, config)

    return step


def integrate(f, z0, config: IntegratorConfig, observer=None) -> Trajectory:
    """Integrate z' = f(z) from z0 over round(t_final/dt) midpoint steps.

    See `integrate_steps` for the observer and the error path.  Without
    an observer, a vector field of `ReducedModel.make_rhs` (which has
    `_compiled`) goes to `_native.integrate`, which runs its steps in the
    compiled loop where it can, with the same result bit for bit.
    """
    if observer is None and hasattr(f, "_compiled"):
        from . import _native  # it imports this module

        return _native.integrate(f, z0, config)
    return integrate_steps(_midpoint_step_map(f, config), z0, config, observer)


def integrate_steps(step, z0, config: IntegratorConfig, observer=None) -> Trajectory:
    """Apply a one-step map round(t_final/dt) times from z0.

    `step(z, start)` returns (z_new, iterations), solving from the first
    iterate `start`, and is built for config.dt (`TwoBlockSystem.make_step`,
    `ReducedModel.make_step`); `advance_steps` runs it in the one block of
    `run_blocks`.  The observer, if given, is called after each step as
    observer(step_index, t, state).  Picard failures are re-raised with the
    offending step index attached.
    """
    dt = config.dt
    watch = None if observer is None else lambda k, z: observer(k, k * dt, z)
    advance = functools.partial(advance_steps, step, observer=watch)
    return Trajectory.of_run(run_blocks(advance, z0, config, config.step_count() + 1), dt)


def advance_steps(step, window, history, steps, observer=None) -> np.ndarray:
    """Apply the one-step map `step` `steps` times from the state
    window[history], writing window[history + 1 : history + 1 + steps];
    returns the Picard iterations of each step.

    The `history` <= 7 rows before window[history] hold the states that
    preceded it, the last seven or all of them, so an integration resumed
    in a new window solves from the first iterates that one run would:
    `start` is z for the first seven steps of the integration and the
    degree-7 extrapolation of the last eight states afterwards, written
    into one of two buffers in turn; the step may read it, or return it as
    z_new, but not keep it past the next call.  The observer, if given, is
    called after each step as observer(row, state).  Picard failures are
    re-raised with the index of the failing step of this call attached.
    """
    z = window[history]
    # two start buffers in turn: a step that returns its start leaves the
    # next state in the buffer that the next extrapolation does not write
    starts = tuple(np.empty((2, z.shape[0])))
    iters = np.empty(steps, dtype=np.int64)
    for j in range(steps):
        k = history + j
        start = z if k < 7 else np.dot(_EXTRAPOLATION, window[k - 7 : k + 1], starts[k & 1])
        try:
            z, iters[j] = step(z, start)
        except PicardDivergenceError as exc:
            raise PicardDivergenceError(exc.iterations, exc.residual, step=j) from None
        window[k + 1] = z
        if observer is not None:
            observer(k + 1, z)
    return iters


def run_blocks(advance, z0, config: IntegratorConfig, rows):
    """The blocks of `_native.blocks`, made by advance(window, history,
    steps) -> iterations (`advance_steps` or `_native.run`) in a window
    whose rows 0..7 hold the last states before the block, the current one
    in row 7, and whose rows from 8 on hold the block."""
    steps = config.step_count()
    rows = min(rows, steps + 1)
    z0 = np.asarray(z0, dtype=float)
    if not np.all(np.isfinite(z0)):
        raise ValueError("initial state contains non-finite entries")
    window = _mapped_empty((rows + 8, z0.shape[0]))
    window[7] = z0
    done, first, count = 0, 7, min(rows - 1, steps)
    while True:
        history = min(done, 7)
        try:
            iterations = advance(window[7 - history :], history, count)
        except PicardDivergenceError as exc:  # at the step of the whole run
            step = done + exc.step
            raise PicardDivergenceError(exc.iterations, exc.residual, step=step) from None
        yield window[first : 8 + count], iterations
        done += count
        if done == steps:
            return
        window[:8] = window[count : count + 8]
        first, count = 8, min(rows, steps - done)


# ---------------------------------------------------------------------------
# Trajectory persistence: little-endian binary, states in row-major order.


def save_trajectory(traj: Trajectory, path, dt=None):
    """Write a trajectory to disk (magic HRTRAJ01, float64 payload) through
    `trajectory_writer`.

    The step stored is `dt`, else `traj.dt`, else the first time
    difference (0.0 for a single state).
    """
    if dt is None:
        dt = traj.dt
    if dt is None:
        dt = float(traj.times[1] - traj.times[0]) if len(traj) > 1 else 0.0
    with trajectory_writer(path, traj.dim, len(traj), dt, float(traj.times[0])) as append:
        append(traj.states)


@contextlib.contextmanager
def trajectory_writer(path, dim, count, dt, t0=0.0, directory=None):
    """Write the trajectory file of `count` states of `dim` values block
    by block: the with-block receives append(states), which writes rows
    after those appended before.

    The rows go to a new file of a random 128-bit name in `directory`
    (default: the directory of `path`), created by open() and so with the
    mode that open() gives.  It is renamed over `path` once the with-block
    has ended without an error and appended exactly `count` states; on any
    later failure it is removed, and `path` is left as it was.  A
    trajectory loaded from an old file keeps mapping its contents.
    """
    if directory is None:
        directory = os.path.dirname(os.fspath(path)) or os.curdir
    tmp = os.path.join(directory, f".trajectory-{os.urandom(16).hex()}.tmp")
    fh = open(tmp, "xb")  # never an existing file, which a failure would remove
    try:
        with fh:
            fh.write(_TRAJ_HEADER.pack(_TRAJ_MAGIC, 1, dim, count, dt, t0))
            yield functools.partial(write_array, fh)
            if fh.tell() != _TRAJ_HEADER.size + 8 * dim * count:
                raise ValueError(f"{path}: {count} states announced, "
                                 f"{(fh.tell() - _TRAJ_HEADER.size) // (8 * dim)} written")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class TrajectoryFile:
    """A trajectory file opened for reading a few states at a time.

    `open_trajectory` checks the header and the payload size before any
    state is read.  `rows` and `read` read states with pread, so a
    process holds only the states it has asked for: a mapping of the file
    would bring whole large folios of the page cache into its resident set
    around every page it touches.  pread leaves the file offset alone, so
    threads may read one file at once.  Use it as a context manager, or
    close it.
    """

    def __init__(self, path, fh, dim, count, dt, t0):
        self.path = path
        self._fh = fh
        self.dim = dim
        self.dt = dt
        self.times = t0 + np.arange(count) * dt
        self._row_bytes = 8 * dim

    def __len__(self):
        return self.times.shape[0]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self._fh.close()

    def rows(self, indices) -> np.ndarray:
        """The states at `indices`, one pread each."""
        indices = np.asarray(indices, dtype=np.intp)
        out = np.empty((indices.shape[0], self.dim), dtype="<f8")
        for row, k in zip(out, indices.tolist()):
            self.read(k, row)
        return out

    def read(self, start, out) -> np.ndarray:
        """Read states start, start + 1, ... into `out`, a C-ordered
        float64 array of rows of `dim` values, with pread; returns out."""
        if not 0 <= start < len(self):
            raise IndexError(f"state {start} of a trajectory of {len(self)} states")
        view = memoryview(out).cast("B")
        offset = _TRAJ_HEADER.size + start * self._row_bytes
        done = 0
        while done < len(view):
            got = os.preadv(self._fh.fileno(), [view[done:]], offset + done)
            if got == 0:
                raise FileFormatError(
                    f"{self.path}: truncated file: expected {len(view)} bytes of state "
                    f"data from state {start}, got {done}"
                )
            done += got
        return out


def open_trajectory(path) -> TrajectoryFile:
    """Open a trajectory file for reading; raises FileFormatError naming the
    file for a bad header or a payload of another size than it claims."""
    fh = open(path, "rb")
    try:
        head = read_exact(fh, _TRAJ_HEADER.size, "trajectory header")
        magic, version, dim, count, dt, t0 = _TRAJ_HEADER.unpack(head)
        if magic != _TRAJ_MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        if version != 1:
            raise FileFormatError(f"{path}: unsupported version {version}")
        if dim == 0 or count == 0:
            raise FileFormatError(f"{path}: implausible dimensions {dim} x {count}")
        check_payload(fh, 8 * dim * count, "state data", path)
    except BaseException:
        fh.close()
        raise
    return TrajectoryFile(path, fh, dim, count, dt, t0)


def load_trajectory(path) -> Trajectory:
    """Read a whole trajectory file; its states are a private copy-on-write
    map of it, checked as `open_trajectory` checks it.

    The map is writable without changing the file.  Touching a page of it
    maps the page cache around that page, whole large folios of it, so the
    resident set grows by more than the states read; `open_trajectory`
    reads only what is asked for.
    """
    with open_trajectory(path) as traj:
        shape = (len(traj), traj.dim)
    states = np.memmap(path, "<f8", mode="c", offset=_TRAJ_HEADER.size, shape=shape)
    return Trajectory(states, traj.times, dt=traj.dt)
