"""Lindblad dynamics realizing the measurement-free Zeno gate.

Strong dephasing with the Hermitian jump operator L(t) = sum_n c_n P_n(t)
(pairwise distinct weights c_n) plays the role of unread projective
measurements: as the rate grows, the master equation

    drho/dt = -i [H_0(t), rho] - (gamma/2) (L^2 rho + rho L^2 - 2 L rho L)

drives the state onto the block-diagonal manifold and, seen from the frame
rotating with the projectors, obeys a von Neumann equation generated by the
Zeno Hamiltonian.  The lab-frame endpoint therefore converges (first order
in 1/gamma) to the nonselective Zeno result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, StiffnessBudgetExceeded
from .linalg import trace_distance
from .spectral import FramePath, OperatorPath, _sample_stack
from .zeno import _dephase

STIFFNESS_BUDGET = 0.1


@dataclass(frozen=True)
class DissipatorSpec:
    """Dephasing channel: rate, per-level weights, and the moving projector family.

    `projectors_at` maps a time array to the per-level projector stacks (a constant
    (d, d) matrix is broadcast), resolving the identity; weights must be pairwise
    distinct or the corresponding coherences would not decay.
    """

    gamma: float
    alphas: tuple
    projectors_at: object  # Callable[[times], sequence of (K, d, d) or (d, d) arrays]

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        al = tuple(float(a) for a in self.alphas)
        for i in range(len(al)):
            for j in range(i + 1, len(al)):
                if abs(al[i] - al[j]) <= 1e-9:
                    raise ValueError(f"dephasing weights must be pairwise distinct: {al[i]} ~ {al[j]}")
        object.__setattr__(self, "alphas", al)

    def lindblad_op(self, t) -> np.ndarray:
        projs = self.projectors_at(t)
        return sum(a * np.asarray(p, dtype=complex) for a, p in zip(self.alphas, projs))

    def max_weight_gap_sq(self) -> float:
        al = self.alphas
        if len(al) < 2:
            return 0.0
        return max(
            (al[i] - al[j]) ** 2 for i in range(len(al)) for j in range(i + 1, len(al))
        )


def projectors_from_frames(frames: FramePath):
    """Projector family interpolated from a sampled frame path.

    Entrywise linear interpolation of the transported projectors; adequate
    when the frame grid is much finer than the integrator grid.
    """
    paths = [OperatorPath(times=frames.times, operators=frames.projector_path(n)) for n in range(frames.nlevels)]
    return lambda t: [p.at(t) for p in paths]


@dataclass
class MasterTrajectory:
    """Integrated density-matrix trajectory with bookkeeping diagnostics."""

    times: np.ndarray
    states: list
    frame: str = "lab"
    trace_drift: float = 0.0

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _lindblad(rho, h0, lop, l2, gamma: float) -> np.ndarray:
    """-i[H_0, rho] - (gamma/2)(L^2 rho + rho L^2 - 2 L rho L) with l2 = L @ L; None drops a term."""
    out = -1j * (h0 @ rho - rho @ h0) if h0 is not None else np.zeros_like(rho)
    if lop is not None:
        out = out - 0.5 * gamma * (l2 @ rho + rho @ l2 - 2.0 * (lop @ rho @ lop))
    return out


def lindblad_rhs(rho: np.ndarray, h0, diss: DissipatorSpec, t: float) -> np.ndarray:
    """Right-hand side -i[H_0, rho] - (gamma/2)(L^2 rho + rho L^2 - 2 L rho L) at time t."""
    lop = diss.lindblad_op(t) if diss.gamma > 0 else None
    return _lindblad(rho, h0, lop, None if lop is None else lop @ lop, diss.gamma)


def _rk4_step(rho, dt, f0, fmid_a, fmid_b, f1):
    k1 = f0(rho)
    k2 = fmid_a(rho + 0.5 * dt * k1)
    k3 = fmid_b(rho + 0.5 * dt * k2)
    k4 = f1(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_master(h0_of_t, diss: DissipatorSpec, rho0, t_final: float, steps: int,
                     store_every: int = 1) -> MasterTrajectory:
    """Classical RK4 integration of the dephasing master equation in the lab frame.

    `h0_of_t` and the projectors are each evaluated once, on the half-step grid.
    The step size must respect the budget dt * gamma * max(c_n - c_m)^2 <= 0.1
    (StiffnessBudgetExceeded otherwise, rather than substepping silently).  Each
    step re-Hermitizes and renormalizes the trace; the accumulated
    renormalization is reported in `trace_drift`, not hidden.
    """
    rho = np.asarray(rho0, dtype=complex)
    dt = t_final / steps
    if diss.gamma > 0 and len(diss.alphas) > 1:
        budget = dt * diss.gamma * diss.max_weight_gap_sq()
        if budget > STIFFNESS_BUDGET:
            raise StiffnessBudgetExceeded(
                f"dt*gamma*max_gap^2 = {budget:.3f} > {STIFFNESS_BUDGET}; increase steps"
            )
    # Precompute stage operators on the half-step grid (2*steps + 1 points).
    half_times = np.arange(2 * steps + 1) * (0.5 * dt)
    lops = _sample_stack(diss.lindblad_op, half_times) if diss.gamma > 0 else None
    l2s = None if lops is None else lops @ lops
    h0s = None if h0_of_t is None else _sample_stack(h0_of_t, half_times)

    def make_rhs(i):
        h0, lop, l2 = (None if stack is None else stack[i] for stack in (h0s, lops, l2s))
        return lambda r: _lindblad(r, h0, lop, l2, diss.gamma)

    times = [0.0]
    states = [rho.copy()]
    drift = 0.0
    for k in range(steps):
        f0 = make_rhs(2 * k)
        fmid = make_rhs(2 * k + 1)
        f1 = make_rhs(2 * k + 2)
        rho = _rk4_step(rho, dt, f0, fmid, fmid, f1)
        rho = 0.5 * (rho + rho.conj().T)
        tr = float(np.trace(rho).real)
        drift += abs(tr - 1.0)
        rho = rho / tr
        if (k + 1) % store_every == 0 or k == steps - 1:
            times.append((k + 1) * dt)
            states.append(rho.copy())
    return MasterTrajectory(times=np.asarray(times), states=states, frame="lab", trace_drift=drift)


def rotating_frame(trajectory: MasterTrajectory, frames: FramePath) -> MasterTrajectory:
    """Conjugate a trajectory into (or back out of) the frame rotating with W(t)."""
    if frames.times.size != trajectory.times.size or not np.allclose(
        frames.times, trajectory.times, rtol=0.0, atol=1e-9
    ):
        raise GridMismatch("trajectory and frames are sampled on different grids")
    to_rotating = trajectory.frame == "lab"
    out = []
    for w, rho in zip(frames.frames, trajectory.states):
        if to_rotating:
            out.append(w.conj().T @ rho @ w)
        else:
            out.append(w @ rho @ w.conj().T)
    return MasterTrajectory(
        times=trajectory.times.copy(),
        states=out,
        frame="rotating" if to_rotating else "lab",
        trace_drift=trajectory.trace_drift,
    )


def zeno_master_reference(hz_total: OperatorPath, projectors0, rho0) -> MasterTrajectory:
    """Rotating-frame reference flow drho/dt = -i [H_Z(t), P rho] with dephased start.

    `hz_total` samples the sum of all per-level Zeno Hamiltonians on the
    integration grid; `projectors0` is the initial (static) projector family
    defining the dephasing projection P.  Block coherences are removed at
    t = 0 and never regenerated.
    """
    mats = [np.asarray(p, dtype=complex) for p in projectors0]
    rho = _dephase(np.asarray(rho0, dtype=complex), mats)
    times = hz_total.times
    ops = hz_total.operators
    states = [rho.copy()]
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        h0, h1 = ops[k], ops[k + 1]
        hmid = 0.5 * (h0 + h1)

        def rhs_with(h):
            def rhs(r):
                pr = _dephase(r, mats)
                return -1j * (h @ pr - pr @ h)

            return rhs

        rho = _rk4_step(rho, dt, rhs_with(h0), rhs_with(hmid), rhs_with(hmid), rhs_with(h1))
        rho = 0.5 * (rho + rho.conj().T)
        states.append(rho.copy())
    return MasterTrajectory(times=times.copy(), states=states, frame="rotating", trace_drift=0.0)


def coherence_probe_states(projectors):
    """Probe density matrices spanning all cross-block coherences plus block states."""
    mats = [np.asarray(p, dtype=complex) for p in projectors]
    dim = mats[0].shape[0]
    bases = []
    for m in mats:
        w, v = np.linalg.eigh(m)
        bases.append([v[:, i] for i in range(dim) if w[i] > 0.5])
    probes = []
    for vs in bases:
        for v in vs:
            probes.append(np.outer(v, v.conj()))
    for n in range(len(bases)):
        for m in range(n + 1, len(bases)):
            for u in bases[n]:
                for v in bases[m]:
                    for amp in (1.0, 1j):
                        w = (u + amp * v) / np.sqrt(2.0)
                        probes.append(np.outer(w, w.conj()))
    return probes


def dephasing_fixed_point_check(diss: DissipatorSpec, t_probe: float, at_time: float = 0.0,
                                probes=None) -> float:
    """Worst-case trace-norm distance of exp(L t_probe) rho from the dephased rho.

    Projectors are frozen at `at_time`; the distance decays exponentially in
    gamma * t_probe times the squared weight gap.  `probes` defaults to a
    basis of cross-block coherence states plus block-diagonal ones.
    """
    frozen = [np.asarray(p, dtype=complex) for p in diss.projectors_at(at_time)]
    static = DissipatorSpec(
        gamma=diss.gamma, alphas=diss.alphas, projectors_at=lambda t: frozen
    )
    if probes is None:
        probes = coherence_probe_states(frozen)
    worst = 0.0
    for rho in probes:
        target = _dephase(rho, frozen)
        if t_probe == 0.0:
            final = rho
        else:
            steps = max(16, int(np.ceil(diss.gamma * static.max_weight_gap_sq() * t_probe / STIFFNESS_BUDGET)))
            final = integrate_master(None, static, rho, t_probe, steps, store_every=steps).final
        worst = max(worst, 2.0 * trace_distance(final, target))
    return worst
