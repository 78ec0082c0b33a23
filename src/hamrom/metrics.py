"""Benchmark metrics: pointwise max error, energy series, online timing.

The approximation error is the maximum over every time step and grid
point of the Euclidean mismatch in the (u, v) pair,

    e_inf = max_k max_i sqrt((u_h - u_r)_i^2 + (v_h - v_r)_i^2),

evaluated against the full-order trajectory in blocks of states.
Energy series are reported scaled by the mesh size dx, which makes them
consistent approximations of the continuum Hamiltonian; the reduced
series takes one batched `ReducedModel.hamiltonian` call per block of
states.
"""

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .integrator import Trajectory

__all__ = [
    "RunReport",
    "EvalCounter",
    "e_inf",
    "hamiltonian_series",
    "energy_series_of_states",
    "time_online",
    "write_series_csv",
]

# States per batched reduced-energy call and per e_inf block: each holds a
# few arrays of _BLOCK x n entries, so larger blocks raise peak memory.
_BLOCK = 256


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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)


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


def e_inf(fom_traj: Trajectory, rom_traj: Trajectory, model, chunk=_BLOCK) -> float:
    """Spatio-temporal max error of a reduced run against the full one.

    Every stored full-order state is compared against the reconstruction
    of the reduced coefficients of the same step, `chunk` steps at a time.
    """
    if len(fom_traj) != len(rom_traj):
        raise ValueError("trajectories have different step counts")
    n = model.n
    worst = 0.0
    for start in range(0, len(fom_traj), chunk):
        block = fom_traj.states[start : start + chunk]
        U, V = model.reconstruct_blocks(rom_traj.states[start : start + chunk])
        du = block[:, :n].T - U
        dv = block[:, n:].T - V
        worst = max(worst, float(np.sqrt(np.max(du**2 + dv**2))))
    return worst


def hamiltonian_series(model, rom_traj: Trajectory, dx, fom_series=None):
    """Reduced energy at every stored step, scaled by dx, evaluated on
    stacks of reduced states.

    Returns (series, h_offset_max, h_drift_max) where the offset is
    measured against the supplied full-order series (already scaled) and
    the drift against the first entry.  The offset is None when no
    full-order series is given.
    """
    states = rom_traj.states
    series = dx * np.concatenate(
        [model.hamiltonian(states[k : k + _BLOCK]) for k in range(0, len(states), _BLOCK)]
    )
    drift = float(np.max(np.abs(series - series[0])))
    offset = None
    if fom_series is not None:
        fom_series = np.asarray(fom_series, dtype=float)
        if fom_series.shape != series.shape:
            raise ValueError("energy series have different lengths")
        offset = float(np.max(np.abs(series - fom_series)))
    return series, offset, drift


def energy_series_of_states(energy_fn, traj: Trajectory, dx) -> np.ndarray:
    """Scaled energy of every state of a full-order trajectory."""
    return dx * np.array([energy_fn(z) for z in traj.states])


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
