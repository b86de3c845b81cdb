"""Lindblad dynamics realizing the measurement-free Zeno gate.

Strong dephasing with the Hermitian jump operator L(t) = sum_n c_n P_n(t)
(pairwise distinct weights c_n) plays the role of unread projective
measurements: as the rate grows, the master equation

    drho/dt = -i [H_0(t), rho] - (gamma/2) (L^2 rho + rho L^2 - 2 L rho L)

drives the state onto the block-diagonal manifold and, seen from the frame
rotating with the projectors, obeys a von Neumann equation generated by the
Zeno Hamiltonian.  The lab-frame endpoint therefore converges (first order
in 1/gamma) to the nonselective Zeno result.

`integrate_rotating` integrates in that rotating frame, where the dephaser
is constant and every step is one exact exponential of a d^2 x d^2
superoperator, real in Hermitian coordinates; it runs every dissipative
scenario.  `integrate_master` integrates in the lab frame by RK4 and is
kept only as the engine's independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StiffnessBudgetExceeded
from .linalg import (_commutator_coordinates, _hermitian_coordinates, _hermitian_lift, _range_basis,
                     _real_superoperator, expm_stack, trace_distance)
from .spectral import FramePath, OperatorPath, _sample_stack
from .zeno import MasterResult, _dephase, _fold

STIFFNESS_BUDGET = 0.1
EXPONENTIAL_BUDGET = 1e3


def _weights(gamma: float, alphas) -> tuple:
    """`alphas` as floats; ValueError when gamma < 0 or two weights are not pairwise distinct."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    al = tuple(float(a) for a in alphas)
    ordered = sorted(al)
    for lo, hi in zip(ordered, ordered[1:]):
        if hi - lo <= 1e-9:
            raise ValueError(f"dephasing weights must be pairwise distinct: {lo} ~ {hi}")
    return al


def _gap_sq(alphas: tuple) -> float:
    gap = max(alphas) - min(alphas) if alphas else 0.0
    return gap * gap  # inf rather than OverflowError for huge weights


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
        object.__setattr__(self, "alphas", _weights(self.gamma, self.alphas))

    def lindblad_op(self, t) -> np.ndarray:
        projs = self.projectors_at(t)
        return sum(a * np.asarray(p, dtype=complex) for a, p in zip(self.alphas, projs))

    def max_weight_gap_sq(self) -> float:
        return _gap_sq(self.alphas)


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
    if steps < fewest_steps(diss.gamma, diss.alphas, t_final, STIFFNESS_BUDGET):
        raise StiffnessBudgetExceeded(
            f"dt*gamma*max_gap^2 = {dt * diss.gamma * diss.max_weight_gap_sq():.3f} > {STIFFNESS_BUDGET}; "
            "increase steps"
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


def dephaser(gamma: float, alphas, projectors0) -> np.ndarray:
    """Constant dephasing superoperator D_0 = -(gamma/2)(L^2 x 1 + 1 x (L^2)^T - 2 L x L^T), L = sum_n alphas[n] P_n(0).

    It acts on the row-major vec(rho) = rho.reshape(-1) and is the moving
    dephaser seen from the frame that rotates with the projectors.  The
    weights must be pairwise distinct (ValueError otherwise).
    """
    lop = np.einsum("n,nij->ij", np.asarray(_weights(gamma, alphas)), np.asarray(projectors0, dtype=complex))
    l2 = lop @ lop
    eye = np.eye(lop.shape[0])
    return -0.5 * gamma * (np.kron(l2, eye) + np.kron(eye, l2.T) - 2.0 * np.kron(lop, lop.T))


def fewest_steps(gamma: float, alphas, t_final: float, budget: float) -> float:
    """Fewest steps over t_final with dt * gamma * max_gap^2 <= budget, as an unrounded float.

    With EXPONENTIAL_BUDGET it is the least count `integrate_rotating`
    accepts, with STIFFNESS_BUDGET the least `integrate_master` accepts:
    both refuse any count below it, so ceil() of it always passes.  It may
    exceed every feasible grid.
    """
    return gamma * _gap_sq(_weights(gamma, alphas)) * t_final / budget


def _running_integral(path: OperatorPath):
    """t -> the integral of `path` (linear between its samples) from its first time to t."""
    times, ops = path.times, path.operators
    h = np.diff(times)[:, None, None]
    slope = np.diff(ops, axis=0) / h
    area = np.concatenate([np.zeros_like(ops[:1]), np.cumsum(0.5 * h * (ops[:-1] + ops[1:]), axis=0)])

    def integral(t):
        j = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2)
        s = (t - times[j])[:, None, None]
        return area[j] + s * (ops[j] + 0.5 * s * slope[j])

    return integral


def integrate_rotating(generator, frames: FramePath, gamma: float, alphas, rho0, steps: int) -> MasterResult:
    """Dephasing master equation along the frames' projectors, integrated in the frame rotating with W.

    The jump operator is L(t) = sum_n alphas[n] P_n(t) with
    P_n(t) = W(t) P_n(0) W(t)^dag.  rho~ = W^dag rho W obeys
    drho~/dt = S(t) rho~, S = -i ad K + D_0, with K the rotating-frame
    generator sampled on the frame grid (`generator`, from
    `adiabatic.rotating_generator`; linear between samples) and D_0 the
    constant `dephaser`.  Each of the `steps` uniform steps is one
    exponential exp(-i ad(integral of K over the step) + dt D_0), folded
    onto rho~(0) = rho0 (W(0) = 1) by `zeno._fold`.  Every such map takes
    Hermitian matrices to Hermitian matrices, so it runs in the real
    coordinates of `linalg._hermitian_coordinates` (the real Liouville
    representation, Havel, J. Math. Phys. 44, 534 (2003)): -i ad kappa is
    two gathers of kappa's d^2 coordinates (`linalg._commutator_coordinates`),
    D_0 is converted once, and the maps are exponentiated and folded as
    real d^2 x d^2 matrices, half the numbers of complex ones.  The exact
    integral keeps a step that spans many frame samples accurate where K jumps (at
    the corners of a path).  The count must keep dt * gamma * max_gap^2
    within EXPONENTIAL_BUDGET (StiffnessBudgetExceeded otherwise).  No step
    renormalizes: `trace_drift` is |tr rho(T) - 1| before the one final
    division by the trace.  It is accumulated rounding and grows with
    gamma: on the unit loop 4.2e-11 at gamma = 1e7 and 2.6e-9 at 1e8 (1e5
    steps), where 1e6 and 3.3e5 steps give 1.8e-9 and 6.0e-10 instead.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    t0, t1 = float(frames.times[0]), float(frames.times[-1])
    needed = fewest_steps(gamma, alphas, t1 - t0, EXPONENTIAL_BUDGET)
    if steps < needed:
        raise StiffnessBudgetExceeded(
            f"dt*gamma*max_gap^2 = {needed * EXPONENTIAL_BUDGET / steps:.3g} > {EXPONENTIAL_BUDGET:g}; increase steps"
        )
    integral = _running_integral(OperatorPath(times=frames.times, operators=generator))
    d0 = _real_superoperator(dephaser(gamma, alphas, frames.projectors0))
    grid = np.linspace(t0, t1, steps + 1)
    dts = np.diff(grid)

    def maps(start, stop):
        kappa = _hermitian_coordinates(np.diff(integral(grid[start:stop + 1]), axis=0))  # of K integrated per step
        return expm_stack(_commutator_coordinates(kappa) + dts[start:stop, None, None] * d0)

    return _fold(frames, _hermitian_coordinates(np.asarray(rho0, dtype=complex)), steps, maps, _hermitian_lift)


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


def dephasing_fixed_point_check(diss: DissipatorSpec, t_probe: float, probes=None) -> float:
    """Worst-case trace-norm distance of exp(t_probe D_0) rho from the dephased rho.

    D_0 is the `dephaser` with the projectors frozen at t = 0, exponentiated
    exactly; the distance decays exponentially in gamma * t_probe times the
    squared weight gap.  `probes` defaults to the states v v^dag of each
    block's basis and w w^dag, w = (u + v) / sqrt(2) or (u + i v) / sqrt(2).
    """
    frozen = np.asarray(diss.projectors_at(0.0), dtype=complex)
    if probes is None:
        bases = [_range_basis(p).T for p in frozen]
        vecs = [v for basis in bases for v in basis]
        vecs += [(u + amp * v) / np.sqrt(2.0) for n, basis in enumerate(bases) for other in bases[n + 1:]
                 for u in basis for v in other for amp in (1.0, 1j)]
        probes = [np.outer(w, w.conj()) for w in vecs]
    flow = expm_stack(t_probe * dephaser(diss.gamma, diss.alphas, frozen)[None])[0]
    worst = 0.0
    for rho in probes:
        final = (flow @ np.asarray(rho, dtype=complex).reshape(-1)).reshape(rho.shape)
        worst = max(worst, 2.0 * trace_distance(final, _dephase(rho, frozen)))
    return worst
