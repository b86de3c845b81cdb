"""What the measurements do to superpositions across subspaces.

Slow driving transports a superposition of different eigenspaces coherently.
The measurement route does not: unread measurements form a dephasing channel
that strips every cross-subspace coherence while still rotating each block
by its own gate.  Inside a single subspace the two routes agree exactly.
"""

import numpy as np

from zenogate import (
    circle_path,
    frame_path_analytic_three_level,
    nonselective_step,
    nonselective_zeno_evolution,
    spectral_norm,
    three_level_eigenbasis,
    trace_distance,
    zeno_hamiltonian,
    zeno_unitary,
)

n = 4096
path = circle_path(windings=1, samples=n + 1)
frames = frame_path_analytic_three_level(path)
ep, em, ez = three_level_eigenbasis(0.0)
p0 = frames.projectors0[0]
p1 = frames.projectors0[1]


def blocks(rho):
    return (
        np.trace(p0 @ rho).real,
        np.trace(p1 @ rho).real,
        spectral_norm(p0 @ rho @ p1),
    )


psi = (ep + em + ez) / np.sqrt(3)  # cross-subspace superposition
rho0 = np.outer(psi, psi.conj())
w0, w1, coh = blocks(rho0)
print(f"initial state: block weights ({w0:.3f}, {w1:.3f}), cross coherence {coh:.3f}")

out = nonselective_zeno_evolution(None, frames, n, rho0)
w0, w1, coh = blocks(out)
print(f"after {n} unread measurements: weights ({w0:.3f}, {w1:.3f}), coherence {coh:.1e}")

uz = zeno_unitary(zeno_hamiltonian(None, frames, 1)) @ zeno_unitary(
    zeno_hamiltonian(None, frames, 0)
)
wt = frames.frames[-1]
pred = wt @ uz @ nonselective_step(rho0, frames.projectors0) @ uz.conj().T @ wt.conj().T
print(f"distance to dephase-then-rotate prediction: {trace_distance(out, pred):.2e}")

rho_sub = np.outer(em, em.conj())  # entirely inside one subspace
out_sub = nonselective_zeno_evolution(None, frames, n, rho_sub)
pred_sub = wt @ uz @ rho_sub @ uz.conj().T @ wt.conj().T
print(f"single-subspace state, same comparison:     {trace_distance(out_sub, pred_sub):.2e}")
print("\nCoherence between subspaces dies; dynamics inside each block survives.")
