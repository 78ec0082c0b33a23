"""Build the nonlinear-wave Hamiltonian system and watch its energy.

The wave equation u_tt = c^2 u_xx - sin(u) on a periodic interval is
semi-discretized into the two-block system u' = v, v' = A u - sin(u) with
a sparse symmetric Laplacian A; it is Hamiltonian, z' = D grad H(z) with
the canonical skew-symmetric D = [[0, I], [-I, 0]].
The implicit midpoint rule keeps the discrete energy within a bounded
O(dt^2) oscillation; the average-vector-field (AVF) step that the
pipeline uses conserves it exactly, up to the solver tolerance.
"""

import numpy as np

from hamrom.integrator import IntegratorConfig, integrate, integrate_steps
from hamrom.wave import WaveConfig, assemble_wave_fom, initial_state

cfg = WaveConfig(n=128)
fom = assemble_wave_fom(cfg)
z0 = initial_state(cfg)

print(f"grid: n={cfg.n}, dx={cfg.dx:.4f}, wave speed c={cfg.c_speed}")
print(f"sparse Laplacian: {fom.A.nnz} nonzeros, "
      f"symmetric: {abs(fom.A - fom.A.T).max() == 0.0}")
print(f"initial energy H(z0)*dx = {fom.energy(z0) * cfg.dx:.6e}")

icfg = IntegratorConfig(dt=0.01, t_final=10.0)
for name, run in (
    ("implicit midpoint rule", lambda: integrate(fom.rhs, z0, icfg)),
    ("AVF step, stiff part factored", lambda: integrate_steps(fom.make_step(icfg), z0, icfg)),
):
    print(f"\nintegrating 10 time units with the {name} ...")
    traj = run()
    series = cfg.dx * fom.energy(traj.states)
    print(f"steps: {traj.steps}, mean Picard iterations: {np.mean(traj.picard_iters):.1f}")
    print(f"energy range over the run: [{series.min():.9e}, {series.max():.9e}]")
    print(f"max energy drift (scaled): {np.max(np.abs(series - series[0])):.2e}")
