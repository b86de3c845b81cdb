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

from .errors import StiffnessBudgetExceeded
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
        ordered = sorted(al)
        for lo, hi in zip(ordered, ordered[1:]):
            if hi - lo <= 1e-9:
                raise ValueError(f"dephasing weights must be pairwise distinct: {lo} ~ {hi}")
        object.__setattr__(self, "alphas", al)

    def lindblad_op(self, t) -> np.ndarray:
        projs = self.projectors_at(t)
        return sum(a * np.asarray(p, dtype=complex) for a, p in zip(self.alphas, projs))

    def max_weight_gap_sq(self) -> float:
        return (max(self.alphas) - min(self.alphas)) ** 2 if self.alphas else 0.0


def projectors_from_frames(frames: FramePath):
    """Projector family interpolated from a sampled frame path.

    Entrywise linear interpolation of the transported projectors; adequate
    when the frame grid is much finer than the integrator grid.
    """
    paths = [OperatorPath(times=frames.times, operators=frames.projector_path(n)) for n in range(frames.nlevels)]
    return lambda t: [p.at(t) for p in paths]


@dataclass(frozen=True)
class MasterResult:
    """Endpoint of a master-equation integration and the trace renormalization it accumulated."""

    final: np.ndarray
    trace_drift: float


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


def _integrate(rho, dts, rhs_at) -> MasterResult:
    """Classical RK4 over steps of sizes `dts`; `rhs_at(i, rho)` is the right-hand side at sample i.

    Step k evaluates samples 2k, 2k + 1 (twice) and 2k + 2.  Each step
    re-Hermitizes and renormalizes the trace; the accumulated
    renormalization is reported in `trace_drift`, not hidden.
    """
    drift = 0.0
    for k, dt in enumerate(dts.tolist()):
        i = 2 * k
        k1 = rhs_at(i, rho)
        k2 = rhs_at(i + 1, rho + 0.5 * dt * k1)
        k3 = rhs_at(i + 1, rho + 0.5 * dt * k2)
        k4 = rhs_at(i + 2, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        tr = float(np.trace(rho).real)
        drift += abs(tr - 1.0)
        rho = rho / tr
    return MasterResult(final=rho, trace_drift=drift)


def integrate_master(h0_of_t, diss: DissipatorSpec, rho0, t_final: float, steps: int) -> MasterResult:
    """Classical RK4 integration of the dephasing master equation in the lab frame, to t_final.

    `h0_of_t` and the projectors are each evaluated once, on the half-step grid.
    The step size must respect the budget dt * gamma * max(c_n - c_m)^2 <= 0.1
    (StiffnessBudgetExceeded otherwise, rather than substepping silently).
    """
    dt = t_final / steps
    budget = dt * diss.gamma * diss.max_weight_gap_sq()
    if budget > STIFFNESS_BUDGET:
        raise StiffnessBudgetExceeded(
            f"dt*gamma*max_gap^2 = {budget:.3f} > {STIFFNESS_BUDGET}; increase steps"
        )
    half_times = np.arange(2 * steps + 1) * (0.5 * dt)
    h0s = lops = l2s = [None] * half_times.size
    if h0_of_t is not None:
        h0s = list(_sample_stack(h0_of_t, half_times))
    if diss.gamma > 0:
        stack = _sample_stack(diss.lindblad_op, half_times)
        lops, l2s = list(stack), list(stack @ stack)
    gamma = diss.gamma
    return _integrate(np.asarray(rho0, dtype=complex), np.full(steps, dt),
                      lambda i, r: _lindblad(r, h0s[i], lops[i], l2s[i], gamma))


def zeno_master_reference(hz_total: OperatorPath, projectors0, rho0) -> MasterResult:
    """Rotating-frame reference flow drho/dt = -i [H_Z(t), P rho] with dephased start.

    `hz_total` samples the sum of all per-level Zeno Hamiltonians on the
    integration grid; `projectors0` is the initial (static) projector family
    defining the dephasing projection P.  Block coherences are removed at
    t = 0 and never regenerated.
    """
    mats = [np.asarray(p, dtype=complex) for p in projectors0]
    ops = hz_total.operators
    hs = np.empty((2 * len(ops) - 1,) + ops.shape[1:], dtype=complex)
    hs[0::2] = ops
    hs[1::2] = 0.5 * (ops[:-1] + ops[1:])

    def rhs_at(i, r):
        pr = _dephase(r, mats)
        return -1j * (hs[i] @ pr - pr @ hs[i])

    return _integrate(_dephase(np.asarray(rho0, dtype=complex), mats), np.diff(hz_total.times), rhs_at)


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


def dephasing_fixed_point_check(diss: DissipatorSpec, t_probe: float, probes=None) -> float:
    """Worst-case trace-norm distance of exp(L t_probe) rho from the dephased rho.

    Projectors are frozen at t = 0; the distance decays exponentially in
    gamma * t_probe times the squared weight gap.  `probes` defaults to a
    basis of cross-block coherence states plus block-diagonal ones.
    """
    frozen = [np.asarray(p, dtype=complex) for p in diss.projectors_at(0.0)]
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
            final = integrate_master(None, static, rho, t_probe, steps).final
        worst = max(worst, 2.0 * trace_distance(final, target))
    return worst
