"""Structure-preserving model reduction for finite-dimensional Hamiltonian
systems: orthogonal bases from snapshots, greedy interpolation of the
nonlinearity, and reduced dynamics that keep a discrete energy invariant.

The `wave` module provides the nonlinear-wave benchmark the package is
validated on; the `cli` module exposes the reproduction pipeline.
"""

from .core import TwoBlockSystem
from .deim import DeimModel, build_deim, deim_select, precompute_weights
from .integrator import (
    IntegratorConfig,
    PicardDivergenceError,
    Trajectory,
    integrate,
    integrate_steps,
    load_trajectory,
    save_trajectory,
)
from .metrics import RunReport, e_inf, hamiltonian_series, time_online
from .pod import (
    PodBasis,
    RankDeficientError,
    captured_energy,
    compute_pod,
    load_basis,
    save_basis,
)
from .rom import ReducedModel, RomVariant, build_rom, load_rom, save_rom
from .snapshots import SnapshotSet, collect, load_snapshots, save_snapshots, shift
from .wave import (
    WaveConfig,
    assemble_wave_fom,
    build_laplacian,
    initial_state,
    make_wave_energy,
    make_wave_rhs,
    spline_initial_condition,
)

__version__ = "0.1.0"
