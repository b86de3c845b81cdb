"""The same gate from pure dissipation, no measurement readout.

Since the measurement outcomes are never used, the environment may do the
measuring: strong dephasing with a jump operator weighting each rotating
eigenspace differently pins the state to the moving block structure.  As
the dephasing rate grows, the lab-frame endpoint converges (first order in
1/gamma) to the nonselective measurement result -- same loop, same gate.
"""

import numpy as np

from zenogate import (
    DissipatorSpec,
    circle_path,
    frame_path_analytic_three_level,
    integrate_master,
    nonselective_step,
    three_level_projectors,
    trace_distance,
    zeno_hamiltonian,
    zeno_unitary,
)

t_final = 1.0
omega = 2 * np.pi / t_final


def projectors_at(t):
    return three_level_projectors(omega * t)


# ideal limit from the measurement picture
path = circle_path(windings=1, samples=4097, duration=t_final)
frames = frame_path_analytic_three_level(path)
uz = zeno_unitary(zeno_hamiltonian(None, frames, 1)) @ zeno_unitary(
    zeno_hamiltonian(None, frames, 0)
)
psi = np.array([1.0, 0.0, 0.0], dtype=complex)
rho0 = np.outer(psi, psi.conj())
wt = frames.frames[-1]
target = wt @ uz @ nonselective_step(rho0, frames.projectors0) @ uz.conj().T @ wt.conj().T

print(f"{'gamma*T':>8s} {'steps':>7s} {'trace distance to limit':>24s}")
for gamma in (10.0, 100.0, 1000.0, 10000.0):
    diss = DissipatorSpec(gamma=gamma, alphas=(0.0, 1.0), projectors_at=projectors_at)
    steps = max(512, int(np.ceil(10 * gamma * t_final)))
    traj = integrate_master(None, diss, rho0, t_final, steps, store_every=steps)
    print(f"{gamma * t_final:>8.0f} {steps:>7d} {trace_distance(traj.final, target):>24.3e}")

print("\nDistance falls roughly as 1/gamma: dissipation implements the gate.")
