"""Projected (Zeno) evolution, emergent subspace generators, and controls.

A state prepared in one eigenspace and measured N times along the moving
projector family P_n(t_k) = W(t_k) P_n(0) W(t_k)^dag evolves, conditioned on
always being found inside, by

    V_N(t) = prod_k P_n(t_{k+1}) U_0(t_{k+1}, t_k) P_n(t_k),

with U_0 the bare propagator of H_0(t) (possibly zero).  As N grows this
converges at rate 1/N to W(t) U_Z[n](t) P_n(0), the ordered exponential of
the emergent Zeno Hamiltonian

    H_Z[n](t) = P_n(0) W^dag H_0 W P_n(0) + H_G[n](t),

so measurement sequences reproduce slow-driving holonomies with no speed
limit, and the H_0 term is a control knob the slow-driving scenario lacks.
Discarding measurement outcomes gives the nonselective variant acting on
density matrices, which dephases any coherence across subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adiabatic import _midpoint_propagators, adiabatic_generator, ordered_exp_from_samples, ordered_product
from .errors import (
    GridMismatch,
    IncompleteResolution,
    NotASubspaceRotation,
    ZeroSurvival,
)
from .linalg import hermitian_eigendecomposition, spectral_norm
from .spectral import FramePath, OperatorPath, ParameterPath, _sample_stack, three_level_generators


@dataclass(frozen=True)
class ZenoRun:
    """Outcome of a conditioned measurement sequence."""

    N: int
    final_operator: np.ndarray
    survival_probability: float
    conditional_state: np.ndarray


@dataclass(frozen=True)
class ControlConfig:
    """Choice of the bare Hamiltonian accompanying the measurement sequence.

    mode 'none' leaves the system with no intrinsic dynamics; 'alpha_frame'
    applies alpha times the frame generator times the path's angular speed
    (three-level scenarios only); 'wagon_wheel' and 'custom' apply the given
    constant matrix.
    """

    mode: str = "none"
    alpha: float = 0.0
    hamiltonian: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("none", "alpha_frame", "wagon_wheel", "custom"):
            raise ValueError(f"unknown control mode {self.mode!r}")
        if self.mode in ("wagon_wheel", "custom") and self.hamiltonian is None:
            raise ValueError(f"control mode {self.mode!r} needs a Hamiltonian matrix")


def control_hamiltonian(config: ControlConfig, path: ParameterPath | None = None):
    """Materialize a control config as a callable on a time array (H_0 stack or one constant matrix), or None."""
    if config.mode == "none":
        return None
    if config.mode == "alpha_frame":
        if path is None:
            raise ValueError("alpha_frame control needs the parameter path for its angular speed")
        theta = path.theta()
        thdot = np.gradient(theta, path.times, edge_order=2)
        g = three_level_generators(theta[0]).frame_generator
        times = path.times

        def h0(t):
            return config.alpha * np.interp(t, times, thdot)[..., None, None] * g

        return h0
    h = np.asarray(config.hamiltonian, dtype=complex)
    return lambda t: h


def wagon_wheel_frames(h0, times, projectors0) -> FramePath:
    """Frame family W(t) = exp(-2 i H_0 t): measurement basis outrunning the drive.

    In the Zeno limit the conditioned dynamics then runs time-reversed
    relative to H_0 on each measured subspace.
    """
    times = np.asarray(times, dtype=float)
    w, v = hermitian_eigendecomposition(h0)
    frames = np.einsum("ij,kj,lj->kil", v, np.exp(-2j * np.outer(times, w)), v.conj())
    return FramePath(times=times, frames=frames, projectors0=projectors0)


def _measurement_indices(times: np.ndarray, n: int) -> np.ndarray:
    """Indices of the uniform measurement grid k*T/N inside the frame grid."""
    span = times.size - 1
    if span < n or span % n != 0:
        raise GridMismatch(
            f"frame grid with {span} intervals cannot host {n} uniform measurement intervals"
        )
    idx = np.arange(0, times.size, span // n)
    target = times[0] + (times[-1] - times[0]) * np.arange(n + 1) / n
    if not np.allclose(times[idx], target, rtol=0.0, atol=1e-9 * max(1.0, abs(times[-1]))):
        raise GridMismatch("frame grid is not uniform over the measurement times")
    return idx


def projected_evolution(h0_of_t, frames: FramePath, level: int, N: int, initial) -> ZenoRun:
    """Conditioned evolution under N projective measurements along the frame.

    `frames` must be sampled so that the uniform measurement times k*T/N are
    grid points.  Between measurements the bare Hamiltonian `h0_of_t` (None
    for no bare dynamics), called once on all midpoint times, propagates with
    one midpoint factor per interval.
    """
    initial = np.asarray(initial, dtype=complex)
    idx = _measurement_indices(frames.times, N)
    wm = frames.frames[idx]
    p0 = frames.projectors0[level]
    if h0_of_t is None:
        core = np.matmul(wm[1:].conj().transpose(0, 2, 1), wm[:-1])
    else:
        u0 = _midpoint_propagators(h0_of_t, frames.times[idx])
        core = np.matmul(wm[1:].conj().transpose(0, 2, 1), np.matmul(u0, wm[:-1]))
    factors = np.einsum("ij,kjl,lm->kim", p0, core, p0)
    v = frames.frames[idx[-1]] @ ordered_product(factors)
    amp = v @ initial
    p = float(np.linalg.norm(amp) ** 2)
    if p < 1e-15:
        raise ZeroSurvival("survival probability vanished; conditioning is undefined")
    return ZenoRun(
        N=N,
        final_operator=v,
        survival_probability=p,
        conditional_state=amp / np.sqrt(p),
    )


def zeno_hamiltonian(h0_of_t, frames: FramePath, level: int) -> OperatorPath:
    """Emergent generator of the conditioned subspace evolution, sampled on the frame grid.

    Sum of the frame-rotated, projected bare Hamiltonian (`h0_of_t` evaluated once on
    the frame times) and the geometric term from the moving measurement basis.
    """
    geometric = adiabatic_generator(frames, level)
    if h0_of_t is None:
        return geometric
    p0 = frames.projectors0[level]
    h0s = _sample_stack(h0_of_t, frames.times)
    rotated = np.matmul(frames.frames.conj().transpose(0, 2, 1), np.matmul(h0s, frames.frames))
    projected = np.einsum("ij,kjl,lm->kim", p0, rotated, p0)
    projected = 0.5 * (projected + projected.conj().transpose(0, 2, 1))
    return OperatorPath(times=frames.times, operators=projected + geometric.operators)


def zeno_unitary(hz: OperatorPath) -> np.ndarray:
    """Ordered product exponential of the sampled Zeno Hamiltonian.

    Acts as the Zeno gate on the generator's support and as the identity on
    the complement, so gates of different levels compose in the full space.
    Needs at least 2 samples (InsufficientSamples).
    """
    return ordered_exp_from_samples(hz)


def effective_frame(h0_of_t, frames: FramePath) -> FramePath:
    """Measurement frame as seen from the interaction picture of H_0 (`h0_of_t`, a grid callable).

    W_eff(t) = U_0(t, 0)^dag W(t); the Zeno Hamiltonian of (H_0, W) equals
    the purely geometric generator of W_eff, which is how a bare Hamiltonian
    reshapes the effective rotation of the measurement basis.
    """
    if h0_of_t is None:
        return frames
    factors = _midpoint_propagators(h0_of_t, frames.times)
    u = np.empty_like(frames.frames)
    u[0] = np.eye(frames.dim)
    for k in range(factors.shape[0]):
        u[k + 1] = factors[k] @ u[k]
    weff = np.matmul(u.conj().transpose(0, 2, 1), frames.frames)
    return FramePath(times=frames.times, frames=weff, projectors0=frames.projectors0)


def holonomy_angle(gate: np.ndarray, generator: np.ndarray, tol: float = 1e-6) -> float:
    """Rotation angle phi of a gate of the form exp(i phi generator) on its support.

    The generator must be a rank-2 Hermitian involution on its support
    (generator^3 = generator); the angle is fitted from the subspace traces,
    avoiding matrix-logarithm branch cuts.  Returns the principal value in
    (-pi, pi]; combine with :func:`unwrap_angle` when a winding count fixes
    the expected total angle.  Raises NotASubspaceRotation when the gate is
    not such a rotation to within `tol`.
    """
    g = np.asarray(generator, dtype=complex)
    p = g @ g
    p = 0.5 * (p + p.conj().T)
    rank = float(np.trace(p).real)
    if abs(rank - 2.0) > 1e-8:
        raise ValueError("generator support must be two-dimensional")
    sub = p @ gate @ p
    comm = spectral_norm(sub @ g - g @ sub)
    if comm > tol:
        raise NotASubspaceRotation(f"gate does not commute with the rotation family: {comm:.3e} > {tol:.1e}")
    c = float(np.trace(p @ gate).real) / 2.0
    s = float(np.trace(g @ gate).imag) / 2.0
    phi = float(np.arctan2(s, c))
    if phi <= -np.pi:
        phi += 2 * np.pi
    residual = spectral_norm(sub - (np.cos(phi) * p + 1j * np.sin(phi) * g))
    if residual > tol:
        raise NotASubspaceRotation(f"gate is not a generator rotation: residual {residual:.3e} > {tol:.1e}")
    return phi


def unwrap_angle(phi: float, expected: float) -> float:
    """Shift phi by the multiple of 2*pi closest to the expected total angle."""
    return phi + 2 * np.pi * np.round((expected - phi) / (2 * np.pi))


def _dephase(rho: np.ndarray, mats) -> np.ndarray:
    """Unchecked dephasing sum_n P_n rho P_n over projector matrices, re-Hermitized."""
    out = sum(m @ rho @ m for m in mats)
    return 0.5 * (out + out.conj().T)


def _check_resolution(totals: np.ndarray):
    """Raise IncompleteResolution unless every summed family in the (K, d, d) stack is the identity."""
    defect = np.linalg.norm(totals - np.eye(totals.shape[-1]), ord=2, axis=(-2, -1)).max()
    if defect > 1e-9:
        raise IncompleteResolution("projectors do not resolve the identity")


def nonselective_step(rho: np.ndarray, projectors) -> np.ndarray:
    """Dephasing channel rho -> sum_n P_n rho P_n for a complete projector family."""
    mats = [np.asarray(p, dtype=complex) for p in projectors]
    _check_resolution(sum(mats)[None])
    return _dephase(rho, mats)


def nonselective_zeno_evolution(h0_of_t, frames: FramePath, N: int, rho0) -> np.ndarray:
    """Density-matrix evolution under N unread measurements along the frame.

    Interleaves bare propagation (`h0_of_t` sampled once) with dephasing over all levels;
    trace is preserved exactly and coherence across subspaces is removed.
    Every one of the N + 1 transported projector families must resolve the
    identity (IncompleteResolution otherwise).
    """
    rho = np.asarray(rho0, dtype=complex)
    idx = _measurement_indices(frames.times, N)
    wm = frames.frames[idx]
    projs = np.einsum("kij,njl,kml->knim", wm, frames.projectors0, wm.conj())  # (N + 1, nlevels, d, d)
    _check_resolution(projs.sum(axis=1))
    u0 = None if h0_of_t is None else _midpoint_propagators(h0_of_t, frames.times[idx])
    rho = _dephase(rho, projs[0])
    for k in range(N):
        if u0 is not None:
            rho = u0[k] @ rho @ u0[k].conj().T
        rho = _dephase(rho, projs[k + 1])
        rho = rho / float(np.trace(rho).real)  # counter float drift of the exact trace preservation
    return rho
