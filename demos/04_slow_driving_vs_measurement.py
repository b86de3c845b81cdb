"""Slow driving reproduces the measurement-driven gate, slowly.

Propagating the driven Hamiltonian exactly and factoring out the transport
frame and dynamical phases leaves a residual gauge evolution.  Driven slowly
enough it block-diagonalizes and its degenerate-subspace block approaches
the same topological gate the measurement sequence produces at any speed.
The leaked population (escape probability) falls quadratically in the drive
rate -- the price the slow route pays for not measuring.
"""

import numpy as np

from zenogate import (
    circle_path,
    escape_probability,
    frame_path_analytic_three_level,
    gauge_decompose,
    propagate_exact,
    three_level_eigenbasis,
    three_level_hamiltonian,
    zeno_hamiltonian,
    zeno_unitary,
)

_, e_minus, _ = three_level_eigenbasis(0.0)
print(f"{'duration':>9s} {'rate/gap':>9s} {'escape q':>12s} {'gate fidelity':>14s}")

# durations pinned at a fixed phase of the oscillatory leakage factor
for turns in (25, 50, 100, 200, 400):
    t_final = 2 * np.pi * (turns + 0.25)
    omega = 2 * np.pi / t_final

    def h(t):
        return three_level_hamiltonian(np.cos(omega * t), np.sin(omega * t))

    path = circle_path(windings=1, samples=2049, duration=t_final)
    frames = frame_path_analytic_three_level(path)
    steps = int(t_final / 0.02)
    q = escape_probability(h, frames, 0, e_minus, t_final, steps)

    u = propagate_exact(h, t_final, steps)
    energies = np.column_stack([np.zeros(2049), 2.0 * path.radius()])
    decomp = gauge_decompose(u, frames, energies)
    p0 = frames.projectors0[0]
    target = zeno_unitary(zeno_hamiltonian(None, frames, 0))
    block = p0 @ decomp.gauge_evolution @ p0
    fidelity = abs(np.trace(target.conj().T @ block)) ** 2 / 4.0
    print(f"{t_final:>9.1f} {omega / 2:>9.5f} {q:>12.3e} {fidelity:>14.9f}")

print("\nHalving the drive rate quarters the leakage; the measurement-driven")
print("gate needs no slow limit at all, only frequent enough measurements.")
