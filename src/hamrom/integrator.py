"""Implicit one-step time stepping with Picard fixed-point solves.

`integrate` advances z' = f(z) with the implicit midpoint rule

    z_new = z + dt * f((z + z_new) / 2),

solving each step by plain fixed-point iteration.  The rule is symplectic
and preserves quadratic invariants exactly (up to the Picard tolerance),
but leaves an O(dt^2) oscillation in any energy that is not quadratic.

`integrate_steps` runs any one-step map `step(z, start) -> (z_new,
iterations)`; `integrate` is that driver over a midpoint step.  `start` is
the first Picard iterate: the current state z_k for the first three steps,
then the cubic extrapolation of the last four stored states,

    start = 4 z_k - 6 z_{k-1} + 4 z_{k-2} - z_{k-3},

which is O(dt^4) away from z_{k+1} instead of O(dt), so each solve meets
the same tolerance in fewer iterations.

The pipeline gives `integrate_steps` the average-vector-field (AVF)
discrete-gradient steps of `TwoBlockSystem.make_step` and
`ReducedModel.make_step`: they replace the nonlinearity at the midpoint
by its exact mean over the step, which conserves every energy of the form
z' = D grad H(z), and they solve with the stiff linear part factored
once.  With no nonlinearity AVF is exactly the midpoint rule.

Every step solves with `picard_solve`: convergence is measured on the
iterate update in max-norm, relative with absolute floor 1, and a
non-finite update stops the solve at once.

Trajectory states, from `integrate_steps` or `load_trajectory`, live in
their own anonymous memory mapping, which is unmapped when the array is
freed.  A trajectory of tens of MB in the malloc heap would stay resident
after it is freed and leave a hole that later allocations fragment, so
the process's peak memory would depend on the order of unrelated small
allocations.
"""

import math
import mmap
import struct
from dataclasses import dataclass

import numpy as np

from ._binio import FileFormatError, check_payload, read_array, read_exact, write_array

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "PicardDivergenceError",
    "picard_solve",
    "integrate",
    "integrate_steps",
    "save_trajectory",
    "load_trajectory",
]

_TRAJ_MAGIC = b"HRTRAJ01"
# weights of z_{k-3}, ..., z_k in the cubic extrapolation of z_{k+1}
_EXTRAPOLATION = np.array([-1.0, 4.0, -6.0, 4.0])


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
        steps = round(self.t_final / self.dt)
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
    """Dense record of an integration: one state row per step, t0 included."""

    def __init__(self, states, times, picard_iters=None):
        states = np.asarray(states, dtype=float)
        times = np.asarray(times, dtype=float)
        if states.ndim != 2 or states.shape[0] != times.shape[0]:
            raise ValueError("states and times must have matching first dimension")
        self.states = states
        self.times = times
        self.dim = states.shape[1]
        self.picard_iters = picard_iters

    def __len__(self):
        return self.states.shape[0]

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1


def picard_solve(phi, x, config: IntegratorConfig):
    """Fixed point of phi by plain iteration from x; returns (x, iterations).

    Stops once the max-norm update is at most
    picard_tol * max(1, max|x|); raises PicardDivergenceError at the first
    non-finite update, or after picard_max_iter updates.
    """
    tol, inf = config.picard_tol, math.inf
    for it in range(1, config.picard_max_iter + 1):
        x_next = phi(x)
        residual = float(abs(x_next - x).max())
        x = x_next
        if not residual < inf:  # NaN or infinite update
            raise PicardDivergenceError(it, residual)
        if residual <= tol * max(1.0, float(abs(x).max())):
            return x, it
    raise PicardDivergenceError(config.picard_max_iter, residual)


def _midpoint_step_map(f, config: IntegratorConfig):
    """Implicit midpoint step of z' = f(z) for `integrate_steps`."""
    dt = config.dt

    def step(z, start):
        half = 0.5 * z
        return picard_solve(lambda z_new: z + dt * f(half + 0.5 * z_new), start, config)

    return step


def integrate(f, z0, config: IntegratorConfig, observer=None) -> Trajectory:
    """Integrate z' = f(z) from z0 over round(t_final/dt) midpoint steps.

    See `integrate_steps` for the observer and the error path.
    """
    return integrate_steps(_midpoint_step_map(f, config), z0, config, observer)


def integrate_steps(step, z0, config: IntegratorConfig, observer=None) -> Trajectory:
    """Apply a one-step map round(t_final/dt) times from z0.

    `step(z, start)` returns (z_new, iterations), solving from the first
    iterate `start`, and is built for config.dt (`TwoBlockSystem.make_step`,
    `ReducedModel.make_step`).  `start` is z for the first three steps and
    the cubic extrapolation of the last four stored states afterwards.
    The observer, if given, is called after each step as
    observer(step_index, t, state).  Picard failures are re-raised with
    the offending step index attached.
    """
    z0 = np.asarray(z0, dtype=float)
    if not np.all(np.isfinite(z0)):
        raise ValueError("initial state contains non-finite entries")
    steps = config.step_count()
    states = _mapped_empty((steps + 1, z0.shape[0]))
    states[0] = z0
    iters = np.zeros(steps, dtype=np.int64)
    z = z0
    dt = config.dt
    for k in range(steps):
        start = z if k < 3 else _EXTRAPOLATION @ states[k - 3 : k + 1]
        try:
            z, iters[k] = step(z, start)
        except PicardDivergenceError as exc:
            raise PicardDivergenceError(exc.iterations, exc.residual, step=k) from None
        states[k + 1] = z
        if observer is not None:
            observer(k + 1, (k + 1) * dt, z)
    times = np.arange(steps + 1) * dt
    return Trajectory(states, times, picard_iters=iters)


# ---------------------------------------------------------------------------
# Trajectory persistence: little-endian binary, states in row-major order.


def save_trajectory(traj: Trajectory, path, dt=None):
    """Write a trajectory to disk (magic HRTRAJ01, float64 payload)."""
    if dt is None:
        dt = float(traj.times[1] - traj.times[0]) if len(traj) > 1 else 0.0
    header = struct.pack(
        "<8sIQQdd", _TRAJ_MAGIC, 1, traj.dim, len(traj), dt, float(traj.times[0])
    )
    with open(path, "wb") as fh:
        fh.write(header)
        write_array(fh, traj.states)


def load_trajectory(path) -> Trajectory:
    with open(path, "rb") as fh:
        head = read_exact(fh, struct.calcsize("<8sIQQdd"), "trajectory header")
        magic, version, dim, count, dt, t0 = struct.unpack("<8sIQQdd", head)
        if magic != _TRAJ_MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        if version != 1:
            raise FileFormatError(f"{path}: unsupported version {version}")
        if dim == 0 or count == 0:
            raise FileFormatError(f"{path}: implausible dimensions {dim} x {count}")
        check_payload(fh, 8 * dim * count, "state data", path)
        states = read_array(fh, (count, dim), "state data", empty=_mapped_empty)
    times = t0 + np.arange(count) * dt
    return Trajectory(states, times)
