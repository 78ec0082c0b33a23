"""From snapshots to orthogonal bases and interpolation points.

Collect state and nonlinearity snapshots from a wave run, extract
orthonormal bases by singular value decomposition, and pick greedy
interpolation points so the nonlinearity can later be evaluated at a
handful of entries instead of the full grid.
"""

import numpy as np

from hamrom.deim import build_deim
from hamrom.integrator import IntegratorConfig, integrate
from hamrom.pod import captured_energy, compute_pod
from hamrom.snapshots import collect, shift
from hamrom.wave import WaveConfig, assemble_wave_fom, initial_state, make_wave_rhs

cfg = WaveConfig(n=128)
n = cfg.n
fom = assemble_wave_fom(cfg)
G = fom.G

traj = integrate(make_wave_rhs(cfg), initial_state(cfg), IntegratorConfig(dt=0.01, t_final=10.0))
print(f"trajectory: {traj.steps} steps of dimension {traj.dim}")

set_u = collect(traj, 50, lambda z: z[:n], "state-u")
set_g = collect(traj, 50, lambda z: G(z[:n]), "nonlinear-G")
print(f"snapshots: {set_u.count} columns (every 50th step, endpoints included)")

u0 = traj.states[0, :n]
shifted_u = shift(set_u, u0)
print(f"shifted set: first column norm = {np.linalg.norm(shifted_u.columns[:, 0]):.1e}")

# the bases of one set are nested: one decomposition at the largest rank
# serves every smaller rank through its leading columns
basis = compute_pod(set_u, 20)
for r in (5, 10, 20):
    print(f"rank {r:2d}: captured snapshot energy {captured_energy(basis.truncated(r)):.9f}")

sigma = basis.singular_values
print("\nleading singular values (state snapshots):")
print("  " + "  ".join(f"{s:.2e}" for s in sigma[:8]))

deim = build_deim(compute_pod(set_g, 20), np.ones(n))
print(f"\ninterpolation points for the nonlinearity (s=20 of n={n}):")
print(f"  indices: {sorted(deim.indices.tolist())}")
print(f"  interpolation matrix condition number: {deim.cond:.2f}")
x = cfg.grid()[sorted(deim.indices.tolist())]
print(f"  point locations cluster where the pulse lives: x in [{x.min():.2f}, {x.max():.2f}]")
