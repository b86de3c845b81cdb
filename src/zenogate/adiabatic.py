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

import inspect
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    GridMismatch,
    InitialStateOutsideSubspace,
    InsufficientSamples,
)
from .linalg import _checked_hermitian_stack, _entry_major_matmul, expm_hermitian_stack, expm_stack, spectral_norm
from .spectral import ClosedFormHamiltonian, FramePath, OperatorPath, _sample_stack


@dataclass(frozen=True)
class PropagatorResult:
    """Time-ordered propagator with a step-halving error heuristic.

    `estimated_error` is |U - U_coarse|_2, U_coarse the product on the grid of
    step_count // 2 steps (NaN when step_count == 1).  It is built on its first
    read, from the kept `h_of_t`, and cached; a caller that never reads it
    never pays for the second product.  A closed-form propagator keeps no
    `h_of_t` (None): it is exact, and its `estimated_error` is 0.0.
    """

    unitary: np.ndarray
    step_count: int
    t_final: float
    _h_of_t: object = field(compare=False, repr=False)

    @cached_property
    def estimated_error(self) -> float:
        if self._h_of_t is None:
            return 0.0
        if self.step_count < 2:
            return float("nan")
        coarse = _midpoint_propagators(self._h_of_t, np.linspace(0.0, self.t_final, self.step_count // 2 + 1))
        return spectral_norm(self.unitary - ordered_product(coarse))


@dataclass(frozen=True)
class GaugeDecomposition:
    """U(t) split into frame, dynamical phases, and gauge evolution.

    `dynamical_phases[n]` is int_0^t E_n(s) ds; `gauge_evolution` is U_G(t).
    """

    dynamical_phases: np.ndarray
    gauge_evolution: np.ndarray


_CHUNK_FACTORS = 4096  # factors per entry-major copy in the first level of ordered_product
_EXPM_CHUNK = 1024  # midpoint factors per expm_stack call: its temporaries stay small


def ordered_product(stack: np.ndarray) -> np.ndarray:
    """Product stack[K-1] @ ... @ stack[0] (later factors leftmost).

    Pairwise tree reduction: exact (associativity) and much faster than a
    Python loop for long stacks of small matrices.  np.matmul pays a fixed
    cost per matrix, so for d <= 3 every level runs entry-major, on (d, d, K)
    arrays: the views `three_level_propagators`, the closed form of
    `spectral._rotations` and `zeno._interval_factors` return as they are,
    any other stack copied chunk by chunk for the first level (a full-size
    copy made the allocator fault its pages in again on every call).  With
    one BLAS thread on a 2-core x86 VM, the product of 63k 3 x 3 propagators
    takes 6-8 ms against 11.5-16 ms as (K, 3, 3) products; np.matmul wins
    from d = 4 on.
    """
    if stack.shape[-1] > 3:
        m = stack
        while m.shape[0] > 1:
            k = m.shape[0]
            pairs = np.matmul(m[1::2], m[0:k - 1:2])
            m = np.concatenate([pairs, m[k - 1:]]) if k % 2 else pairs
        return m[0]
    m = stack.transpose(1, 2, 0)
    if not m.flags.c_contiguous:
        chunks = range(0, m.shape[-1], _CHUNK_FACTORS)
        m = np.concatenate([_entry_major_level(np.ascontiguousarray(m[..., s:s + _CHUNK_FACTORS])) for s in chunks],
                           axis=-1)
    while m.shape[-1] > 1:
        m = _entry_major_level(m)
    return m[..., 0]


def _entry_major_level(m: np.ndarray) -> np.ndarray:
    """One tree level of a (d, d, k) entry-major stack: products m_{2j+1} m_{2j}, an odd last factor carried on."""
    k = m.shape[-1]
    pairs = _entry_major_matmul(m[..., 1::2], m[..., 0:k - 1:2])
    return np.concatenate([pairs, m[..., k - 1:]], axis=-1) if k % 2 else pairs


def _midpoint_propagators(h_of_t, times: np.ndarray) -> np.ndarray:
    """Propagators U(t_{k+1}, t_k) per grid interval, one midpoint factor each.

    A ClosedFormHamiltonian, also behind functools.wraps decorators, gives them
    in closed form; else every sampled H must be finite and Hermitian
    (ValueError, NonHermitianInput), and the symmetrization only removes
    rounding before exp(-i dt H) is taken by the Pade kernel `expm_stack`,
    chunk by chunk: unitary to rounding unless dt |H|_1 exceeds 5.37 and it
    squares.  The result is the (K, d, d) view of an entry-major (d, d, K)
    array, which `ordered_product` multiplies without a copy.
    """
    dts = np.diff(times)
    mids = times[:-1] + 0.5 * dts
    closed = inspect.unwrap(h_of_t)
    if isinstance(closed, ClosedFormHamiltonian):
        return closed.propagators(mids, dts)
    hs = _checked_hermitian_stack(_sample_stack(h_of_t, mids), what="H(t) at a sampled midpoint")
    hs = 0.5 * (hs + hs.conj().transpose(0, 2, 1))
    bounds = range(_EXPM_CHUNK, dts.size, _EXPM_CHUNK)
    factors = [expm_stack(-1j * dt[:, None, None] * h).transpose(1, 2, 0)
               for dt, h in zip(np.split(dts, bounds), np.split(hs, bounds))]
    return np.concatenate(factors, axis=-1).transpose(2, 0, 1)


def propagate_exact(h_of_t, t_final: float, steps: int) -> PropagatorResult:
    """Time-ordered propagator of H(t) over [0, t_final] by the midpoint rule.

    `h_of_t` maps the array of midpoint times to a (K, d, d) stack (or one (d, d)
    matrix); one factor per step (`_midpoint_propagators`: Pade, unitary to
    rounding when it does not square), second order in the step size.
    `estimated_error` compares against the half-resolution product (NaN when
    steps == 1); that product is built on the first read of the attribute.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    u = ordered_product(_midpoint_propagators(h_of_t, np.linspace(0.0, t_final, steps + 1)))
    return PropagatorResult(unitary=u, step_count=steps, t_final=float(t_final), _h_of_t=h_of_t)


def rotating_generator(h0_of_t, frames: FramePath) -> np.ndarray:
    """K = W^dag H_0 W + i dW^dag/dt W on the frame grid, the generator of the frame rotating with W.

    dW/dt takes central differences (one-sided at the ends); K keeps the
    skew part of the connection (exactly skew, unlike its finite difference)
    and the Hermitian part of W^dag H_0 W (`h0_of_t` called once on the grid;
    None drops it).  Every product runs entry-major, on (d, d, K) arrays (the
    layout tracked and rotation frames have), and K is the (K, d, d) view of one.
    """
    if frames.times.size < 3:
        raise InsufficientSamples("frame derivative needs at least 3 samples")
    w = frames.frames.transpose(1, 2, 0)
    wh = w.conj().swapaxes(0, 1)
    a = _entry_major_matmul(np.gradient(wh, frames.times, axis=-1, edge_order=2), w)
    k = 0.5j * (a - a.conj().swapaxes(0, 1))
    if h0_of_t is not None:
        h0 = _sample_stack(h0_of_t, frames.times).transpose(1, 2, 0)
        rotated = _entry_major_matmul(wh, _entry_major_matmul(h0, w))
        k = k + 0.5 * (rotated + rotated.conj().swapaxes(0, 1))
    return k.transpose(2, 0, 1)


def _subspace_generator(h0_of_t, frames: FramePath, level: int) -> OperatorPath:
    """H_Z[n] = P_n(0) K P_n(0) on the frame grid with K from `rotating_generator`; H_G[n] if `h0_of_t` is None."""
    p0, k = frames.projectors0[level], rotating_generator(h0_of_t, frames)
    return OperatorPath(times=frames.times, operators=np.einsum("ij,kjl,lm->kim", p0, k, p0))


def adiabatic_generator(frames: FramePath, level: int) -> OperatorPath:
    """Sampled subspace generator H_G[n](t) = i P_n(0) dW^dag/dt W P_n(0), supported on the range of P_n(0)."""
    return _subspace_generator(None, frames, level)


def _ordered_exp(times: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Unchecked ordered product exponential of -i H(t) from Hermitian samples, trapezoid per interval."""
    mids = 0.5 * (hs[:-1] + hs[1:])
    return ordered_product(expm_hermitian_stack(mids, -1j * np.diff(times)))


def ordered_exp_from_samples(op: OperatorPath) -> np.ndarray:
    """Ordered product exponential of -i H(t) from 2 or more finite Hermitian samples, trapezoid per interval."""
    if op.times.size < 2:
        raise InsufficientSamples("ordered exponential needs at least 2 samples")
    return _ordered_exp(op.times, _checked_hermitian_stack(op.operators, what="generator sample"))


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
    state = np.exp(-1j * phase) * (frames.final @ (holonomy @ initial))
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
    wt = frames.final
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
    wt = frames.final
    core = wt.conj().T @ u.unitary
    ug = sum(
        np.exp(+1j * phases[n]) * (frames.projectors0[n] @ core)
        for n in range(frames.nlevels)
    )
    return GaugeDecomposition(dynamical_phases=phases, gauge_evolution=ug)
