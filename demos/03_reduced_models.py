"""The five reduced models side by side.

Plain Galerkin projection loses the Hamiltonian structure; replacing the
projected operator with the reduced skew coupling restores an invariant
energy; shifted bases make the reduced energy exact at the initial state;
and interpolation makes the online nonlinearity cost independent of the
grid size.
"""

import numpy as np

from hamrom.deim import build_deim
from hamrom.integrator import IntegratorConfig, integrate_steps
from hamrom.metrics import e_inf, hamiltonian_series
from hamrom.pod import compute_pod
from hamrom.rom import RomVariant, build_rom
from hamrom.snapshots import collect, shift
from hamrom.wave import WaveConfig, assemble_wave_fom, initial_state

cfg = WaveConfig(n=128)
n, r = cfg.n, 8
fom = assemble_wave_fom(cfg)
icfg = IntegratorConfig(dt=0.01, t_final=10.0)

traj = integrate_steps(fom.make_step(icfg), initial_state(cfg), icfg)
z0 = traj.states[0]
G = fom.G

set_u = collect(traj, 50, lambda z: z[:n], "state-u")
set_v = collect(traj, 50, lambda z: z[n:], "state-v")
set_g = collect(traj, 50, lambda z: G(z[:n]), "nonlinear-G")

bases = {
    False: (compute_pod(set_u, r), compute_pod(set_v, r)),
    True: (
        compute_pod(shift(set_u, z0[:n]), r),
        compute_pod(shift(set_v, z0[n:]), r),
    ),
}
deims = {
    False: build_deim(compute_pod(set_g, 2 * r), np.ones(n)),
    True: build_deim(compute_pod(shift(set_g, G(z0[:n])), 2 * r), np.ones(n)),
}

fom_series = cfg.dx * fom.energy(traj.states)

print(f"reduced dimension r={r}, interpolation points s={2 * r}, n={n}\n")
print(f"{'model':<10} {'E_inf':>10} {'energy offset':>14} {'energy drift':>13}")
for tag in ("g-rom", "sp-pod-1", "sp-pod-2", "sp-deim-1", "sp-deim-2"):
    variant = RomVariant.from_tag(tag)
    model = build_rom(
        variant,
        *bases[variant.shifted],
        fom,
        deim=deims[variant.shifted] if variant.kind == "sp-deim" else None,
    )
    rom_traj = integrate_steps(model.make_step(icfg), model.initial_coefficients(z0), icfg)
    _, offset, drift = hamiltonian_series(model, rom_traj, cfg.dx, fom_series)
    err = e_inf(traj, rom_traj, model)
    print(f"{tag:<10} {err:>10.3e} {offset:>14.3e} {drift:>13.3e}")

print(
    "\nunder the energy-conserving AVF step the structure-preserving variants"
    "\nhold their energy to the solver tolerance, and the shifted ones start it"
    "\nexactly at the full-order value, which is why their offset column collapses."
)
