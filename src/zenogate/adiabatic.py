"""Exact time-ordered propagation and its gauge decomposition.

The propagator U(t) generated by a time-dependent Hermitian H(t) factors as

    U(t) = W(t) * sum_n exp(-i int_0^t E_n) P_n(0) * U_G(t),

where W(t) transports the eigenprojectors and U_G(t) collects all inter- and
intra-eigenspace couplings.  In the slow-driving limit U_G becomes block
diagonal with per-level generator

    H_G[n](t) = i P_n(0) dW^dag/dt W(t) P_n(0),

whose ordered exponential is the subspace holonomy.  The leaked weight
outside the followed eigenspace (escape probability) diagnoses how far a
finite-speed drive is from that limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    InitialStateOutsideSubspace,
    InsufficientSamples,
)
from .linalg import assert_hermitian, expm_hermitian_stack, spectral_norm
from .spectral import FramePath, OperatorPath, _sample_stack


@dataclass(frozen=True)
class PropagatorResult:
    """Time-ordered propagator with a step-halving error heuristic."""

    unitary: np.ndarray
    step_count: int
    estimated_error: float
    t_final: float


@dataclass(frozen=True)
class GaugeDecomposition:
    """U(t) split into frame, dynamical phases, and gauge evolution.

    `dynamical_phases[n]` is int_0^t E_n(s) ds; `gauge_evolution` is U_G(t).
    """

    dynamical_phases: np.ndarray
    gauge_evolution: np.ndarray


def ordered_product(stack: np.ndarray) -> np.ndarray:
    """Product stack[K-1] @ ... @ stack[0] (later factors leftmost).

    Pairwise tree reduction: exact (associativity) and much faster than a
    Python loop for long stacks of small matrices.
    """
    m = stack
    while m.shape[0] > 1:
        if m.shape[0] % 2 == 1:
            tail = m[-1]
            pairs = np.matmul(m[1:-1:2], m[0:-1:2])
            m = np.concatenate([pairs, tail[None]], axis=0)
        else:
            m = np.matmul(m[1::2], m[0::2])
    return m[0]


def _midpoint_propagators(h_of_t, times: np.ndarray) -> np.ndarray:
    """Propagators U(t_{k+1}, t_k) per grid interval, one midpoint factor each.

    Every sampled H must be Hermitian (NonHermitianInput otherwise); the
    symmetrization only removes rounding before the unchecked exponential.
    """
    dts = np.diff(times)
    hs = _sample_stack(h_of_t, times[:-1] + 0.5 * dts)
    assert_hermitian(hs, what="H(t) at a sampled midpoint")
    hs = 0.5 * (hs + hs.conj().transpose(0, 2, 1))
    return expm_hermitian_stack(hs, -1j * dts)


def propagate_exact(h_of_t, t_final: float, steps: int) -> PropagatorResult:
    """Time-ordered propagator of H(t) over [0, t_final] by the midpoint rule.

    `h_of_t` maps the array of midpoint times to a (K, d, d) stack (or one (d, d)
    matrix); one exactly-unitary factor per step, second order in the step size.
    `estimated_error` compares against the half-resolution product (NaN when steps == 1).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    u = ordered_product(_midpoint_propagators(h_of_t, np.linspace(0.0, t_final, steps + 1)))
    if steps >= 2:
        coarse = ordered_product(_midpoint_propagators(h_of_t, np.linspace(0.0, t_final, steps // 2 + 1)))
        est = spectral_norm(u - coarse)
    else:
        est = float("nan")
    return PropagatorResult(unitary=u, step_count=steps, estimated_error=est, t_final=float(t_final))


def frame_velocity(frames: FramePath) -> np.ndarray:
    """dW/dt on the frame grid: central differences interior, one-sided at the ends."""
    if frames.times.size < 3:
        raise InsufficientSamples("frame derivative needs at least 3 samples")
    return np.gradient(frames.frames, frames.times, axis=0, edge_order=2)

def adiabatic_generator(frames: FramePath, level: int) -> OperatorPath:
    """Sampled subspace generator H_G[n](t) = i P_n(0) dW^dag/dt W P_n(0).

    The connection dW^dag/dt W is estimated by its skew-Hermitian part (the
    exact object is skew, finite differencing is not), so every returned
    sample is exactly Hermitian and supported on the range of P_n(0).
    """
    wdot = frame_velocity(frames)
    w = frames.frames
    a = wdot.conj().transpose(0, 2, 1) @ w
    a = 0.5 * (a - a.conj().transpose(0, 2, 1))
    p0 = frames.projectors0[level]
    hg = 1j * np.einsum("ij,kjl,lm->kim", p0, a, p0)
    return OperatorPath(times=frames.times, operators=hg)


def ordered_exp_from_samples(op: OperatorPath) -> np.ndarray:
    """Ordered product exponential of -i H(t) from samples, trapezoid per interval."""
    if op.times.size < 2:
        raise InsufficientSamples("ordered exponential needs at least 2 samples")
    dts = np.diff(op.times)
    mids = 0.5 * (op.operators[:-1] + op.operators[1:])
    return ordered_product(expm_hermitian_stack(mids, -1j * dts))


def _check_in_subspace(frames: FramePath, level: int, initial: np.ndarray):
    p0 = frames.projectors0[level]
    leak = np.linalg.norm(initial - p0 @ initial)
    if leak > 1e-10:
        raise InitialStateOutsideSubspace(
            f"initial state has weight {leak:.3e} outside eigenspace {level}"
        )


def adiabatic_evolve(frames: FramePath, level: int, initial, energies=None):
    """Slow-driving evolution of a state in the `level` eigenspace.

    Returns ``(state, holonomy)`` where holonomy is the ordered exponential
    of the subspace generator and

        state = exp(-i int E_n) W(T) holonomy initial.

    `energies` optionally samples E_n(t) on the frame grid (default 0).
    """
    initial = np.asarray(initial, dtype=complex)
    _check_in_subspace(frames, level, initial)
    hg = adiabatic_generator(frames, level)
    holonomy = ordered_exp_from_samples(hg)
    phase = 0.0
    if energies is not None:
        energies = np.asarray(energies, dtype=float)
        if energies.shape != frames.times.shape:
            raise GridMismatch("energies must be sampled on the frame grid")
        phase = np.trapezoid(energies, frames.times)
    state = np.exp(-1j * phase) * (frames.frames[-1] @ (holonomy @ initial))
    state = state / np.linalg.norm(state)
    return state, holonomy


def escape_probability(h_of_t, frames: FramePath, level: int, initial, t_final: float, steps: int) -> float:
    """Weight outside the followed eigenspace after exact propagation.

    q_n = <psi(T)| (1 - P_n(T)) |psi(T)> with P_n(T) the frame-transported
    projector, `h_of_t` a grid callable as in propagate_exact; zero in the adiabatic limit.
    """
    initial = np.asarray(initial, dtype=complex)
    _check_in_subspace(frames, level, initial)
    if abs(frames.times[-1] - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise GridMismatch("frames do not cover t_final")
    result = propagate_exact(h_of_t, t_final, steps)
    psi = result.unitary @ initial
    wt = frames.frames[-1]
    pt = wt @ frames.projectors0[level] @ wt.conj().T
    return float((psi.conj() @ (psi - pt @ psi)).real)


def gauge_decompose(u: PropagatorResult, frames: FramePath, energies) -> GaugeDecomposition:
    """Factor out the frame and dynamical phases from a propagator.

    `energies` has shape (len(frames.times), nlevels); dynamical phases are
    trapezoid integrals of each level.  The returned gauge evolution
    satisfies the exact reconstruction

        U = W(T) sum_n exp(-i phase_n) P_n(0) U_G.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 2 or energies.shape != (frames.times.size, frames.nlevels):
        raise GridMismatch(
            f"energies must have shape (len(times), nlevels) = "
            f"({frames.times.size}, {frames.nlevels}), got {energies.shape}"
        )
    if abs(u.t_final - frames.times[-1]) > 1e-9 * max(1.0, abs(u.t_final)):
        raise GridMismatch("propagator and frames cover different time spans")
    phases = np.trapezoid(energies, frames.times, axis=0)
    wt = frames.frames[-1]
    core = wt.conj().T @ u.unitary
    ug = sum(
        np.exp(+1j * phases[n]) * (frames.projectors0[n] @ core)
        for n in range(frames.nlevels)
    )
    return GaugeDecomposition(dynamical_phases=phases, gauge_evolution=ug)
