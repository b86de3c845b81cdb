"""How fast the measurement sequence reaches its limit.

The conditioned evolution converges to the ideal frame-times-gate form at
rate 1/N in the number of measurements, and so does the probability of ever
failing a measurement.  Both slopes are fitted below from an N-sweep.
"""

import numpy as np

from zenogate import (
    circle_path,
    frame_path_analytic_three_level,
    projected_evolution,
    spectral_norm,
    three_level_eigenbasis,
    zeno_hamiltonian,
    zeno_unitary,
)

print(f"{'N':>6s} {'1 - survival':>14s} {'operator dist':>14s}")
ns = [2**k for k in range(6, 15)]
deficits, dists = [], []
for n in ns:
    path = circle_path(windings=1, samples=n + 1)
    frames = frame_path_analytic_three_level(path)
    _, e_minus, _ = three_level_eigenbasis(0.0)
    run = projected_evolution(None, frames, 0, n, e_minus)
    gate = zeno_unitary(zeno_hamiltonian(None, frames, 0))
    target = frames.frames[-1] @ gate @ frames.projectors0[0]
    deficits.append(1 - run.survival_probability)
    dists.append(spectral_norm(run.final_operator - target))
    print(f"{n:>6d} {deficits[-1]:>14.3e} {dists[-1]:>14.3e}")

fit = lambda ys: np.polyfit(np.log(ns), np.log(ys), 1)[0]
print(f"\nlog-log slope of survival deficit: {fit(deficits):+.3f}")
print(f"log-log slope of operator error:   {fit(dists):+.3f}")
print("Both decay as 1/N: measure twice as often, halve the error.")
