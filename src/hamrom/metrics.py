"""Benchmark metrics: pointwise max error, energy series, online timing.

The approximation error is the maximum over every time step and grid
point of the Euclidean mismatch in the (u, v) pair,

    e_inf = max_k max_i sqrt((u_h - u_r)_i^2 + (v_h - v_r)_i^2),

evaluated against the full-order trajectory in blocks of states.
Energy series are reported scaled by the mesh size dx, which makes them
consistent approximations of the continuum Hamiltonian; every series,
full-order or reduced, takes one energy call per block of states.  A
series written by `write_series_csv` reads back bit-exactly with
`read_series_csv`.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from ._binio import FileFormatError
from .integrator import Trajectory

__all__ = [
    "RunReport",
    "EvalCounter",
    "e_inf",
    "hamiltonian_series",
    "energy_series_of_states",
    "time_online",
    "write_series_csv",
    "read_series_csv",
]

# States per energy call and per e_inf block: each holds a few arrays of
# _BLOCK x n entries, which 32 rows keep cache-sized for n up to a few
# thousand.  (On a 2-core x86 VM, 256-row full-order energy calls at
# n=2000, 4 MB per array, took 4x longer per state than one-state calls.)
_BLOCK = 32


@dataclass
class RunReport:
    """Per-run benchmark summary with stable JSON field names."""

    variant: str
    r: int
    s: int
    e_inf: float
    h_offset_max: float
    h_drift_max: float
    online_seconds: float
    steps: int
    picard_avg_iters: float


class EvalCounter:
    """Wrap a vectorized scalar map and count calls and scalar evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.scalars = 0

    def __call__(self, x):
        x = np.asarray(x)
        self.calls += 1
        self.scalars += x.size
        return self.fn(x)


def e_inf(fom_traj: Trajectory, rom_traj: Trajectory, model) -> float:
    """Spatio-temporal max error of a reduced run against the full one.

    Every stored full-order state is compared against the reconstruction
    of the reduced coefficients of the same step, `_BLOCK` steps at a time.
    A block is reconstructed in trajectory layout, one state per row
    (coeffs @ phi^T + ref), and the squared mismatch is reduced in place;
    the square root is taken once, of the largest square, which gives the
    same value because sqrt is monotone.  A NaN in either trajectory makes
    the result NaN.
    """
    if len(fom_traj) != len(rom_traj):
        raise ValueError("trajectories have different step counts")
    n, r_u = model.n, model.r_u
    phi_u_t, phi_v_t = model.phi_u.T, model.phi_v.T
    worst = 0.0
    for start in range(0, len(fom_traj), _BLOCK):
        block = fom_traj.states[start : start + _BLOCK]
        coeffs = rom_traj.states[start : start + _BLOCK]
        du = coeffs[:, :r_u] @ phi_u_t
        du += model.u_ref
        du -= block[:, :n]
        du *= du
        dv = coeffs[:, r_u:] @ phi_v_t
        dv += model.v_ref
        dv -= block[:, n:]
        dv *= dv
        du += dv
        worst = np.maximum(worst, du.max())  # propagates NaN, unlike max()
    return math.sqrt(worst)


def hamiltonian_series(model, rom_traj: Trajectory, dx, fom_series=None):
    """Reduced energy at every stored step, scaled by dx, evaluated on
    stacks of reduced states.

    Returns (series, h_offset_max, h_drift_max) where the offset is
    measured against the supplied full-order series (already scaled) and
    the drift against the first entry.  The offset is None when no
    full-order series is given.
    """
    series = energy_series_of_states(model.hamiltonian, rom_traj, dx)
    drift = float(np.max(np.abs(series - series[0])))
    offset = None
    if fom_series is not None:
        fom_series = np.asarray(fom_series, dtype=float)
        if fom_series.shape != series.shape:
            raise ValueError("energy series have different lengths")
        offset = float(np.max(np.abs(series - fom_series)))
    return series, offset, drift


def energy_series_of_states(energy_fn, traj: Trajectory, dx) -> np.ndarray:
    """Scaled energy of every state, one `energy_fn` call per block of states."""
    return dx * np.concatenate(
        [energy_fn(traj.states[k : k + _BLOCK]) for k in range(0, len(traj), _BLOCK)]
    )


def time_online(fn):
    """Wall-clock a callable; returns (result, seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def write_series_csv(path, times, values):
    """Write a `t,value` CSV; each number is the shortest repr that
    round-trips its float64 value."""
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in zip(times, values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def read_series_csv(path, times) -> np.ndarray:
    """The values of a `t,value` CSV written by `write_series_csv`, which
    must hold one row for each of `times`, with that time and a finite
    value; raises FileFormatError naming the file otherwise, and the row
    when a row is not so."""
    try:
        with open(path, encoding="ascii") as fh:
            header = fh.readline()
            rows = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not a t,value series ({exc})") from None
    if header != "t,value\n" or len(rows) != len(times):
        raise FileFormatError(
            f"{path}: expected a t,value header and {len(times)} rows, found {len(rows)} rows"
        )
    values = []
    for row, (line, expected) in enumerate(zip(rows, times), 1):
        try:
            t, value = map(float, line.split(","))
        except ValueError:
            t = value = math.nan
        if t != expected or not math.isfinite(value):
            raise FileFormatError(
                f"{path}: row {row} is not t = {float(expected)!r} with a finite value: {line!r}"
            )
        values.append(value)
    return np.array(values)
