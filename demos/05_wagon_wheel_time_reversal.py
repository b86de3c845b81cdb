"""Running a Hamiltonian backwards by measuring faster than it turns.

Like the film-wheel illusion: rotate the measurement basis at twice the
drive's own pace, W(t) = exp(-2 i H0 t), and the conditioned dynamics inside
each measured subspace is generated by -P H0 P -- effective time reversal
without touching the Hamiltonian itself.
"""

import numpy as np

from zenogate import (
    expm_hermitian,
    projected_evolution,
    spectral_norm,
    three_level_eigenbasis,
    three_level_generators,
    three_level_projectors,
    wagon_wheel_frames,
)

h0 = three_level_generators(0.0).frame_generator  # the constant drive
projs = three_level_projectors(0.0)  # measured eigenbasis at theta = 0
p0 = projs[0]
duration = np.pi
_, e_minus, _ = three_level_eigenbasis(0.0)

forward = expm_hermitian(p0 @ h0 @ p0, -1j * duration)
backward = expm_hermitian(p0 @ h0 @ p0, +1j * duration)

print(f"{'N':>6s} {'vs forward':>12s} {'vs reversed':>12s}")
for n in (2**8, 2**10, 2**12):
    frames = wagon_wheel_frames(h0, np.linspace(0, duration, n + 1), projs)
    run = projected_evolution(lambda t: h0, frames, 0, n, e_minus)
    gate = frames.frames[-1].conj().T @ run.final_operator
    d_fwd = spectral_norm(gate - forward @ p0)
    d_rev = spectral_norm(gate - backward @ p0)
    print(f"{n:>6d} {d_fwd:>12.3e} {d_rev:>12.3e}")

print("\nThe conditioned subspace evolution converges to the REVERSED drive.")
