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

Both run in the frame rotating with W, where the measured projectors are the
constant P_n(0) and each interval is one factor F_k = W(t_{k+1})^dag U_0 W(t_k):
`_interval_factors` (or `_RotationRun.factors`, from rotation angles) feeds the
shared tails `_selective` and `_nonselective`, which take one matrix power
instead when every F_k is the same.  `_fold`, the density-matrix tail, also ends
every dissipative run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adiabatic import _midpoint_propagators, _ordered_exp, _subspace_generator, ordered_exp_from_samples, ordered_product
from .errors import GridMismatch, IncompleteResolution, InsufficientSamples, NotASubspaceRotation, ZeroSurvival
from .linalg import _compress, _entry_major_matmul, _range_basis, expm_hermitian_stack, spectral_norm
from .spectral import (_FRAME_GENERATOR, _FRAME_ROTATIONS, ClosedFormHamiltonian, FramePath, OperatorPath, ParameterPath,
                       _prefix_products, _rotations, _RotationFramePath)

# Matrix entries per batch of d^2 x d^2 step maps in `_fold`: 256 of a three-level system.
_CHUNK_ENTRIES = 256 * 3**4


@dataclass(frozen=True)
class ZenoRun:
    """Outcome of a conditioned measurement sequence."""

    final_operator: np.ndarray
    survival_probability: float
    conditional_state: np.ndarray


@dataclass(frozen=True)
class MasterResult:
    """Endpoint of a density-matrix evolution and its |tr - 1| before renormalizing (`_fold`: once; RK4: summed)."""

    final: np.ndarray
    trace_drift: float


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
    """Materialize a control config as a ClosedFormHamiltonian (H_0 stack or one constant matrix), or None.

    alpha_frame H_0 = alpha dtheta/dt G turns by alpha (theta(t_b) - theta(t_a)) over an interval, theta linear
    between path samples; a constant H_0 propagates by `spectral._rotations` of H_0 (NonHermitianInput otherwise).
    """
    if config.mode == "none":
        return None
    if config.mode == "alpha_frame":
        if path is None:
            raise ValueError("alpha_frame control needs the parameter path for its angular speed")
        if path.times.size < 3:
            raise InsufficientSamples("alpha_frame angular speed needs at least 3 path samples")
        theta, times = path.theta(), path.times
        thdot = np.gradient(theta, times, edge_order=2)
        g, rotations = _FRAME_GENERATOR, _FRAME_ROTATIONS

        def turns(t, dts):
            return config.alpha * (np.interp(t + 0.5 * dts, times, theta) - np.interp(t - 0.5 * dts, times, theta))

        return ClosedFormHamiltonian(lambda t: config.alpha * np.interp(t, times, thdot)[..., None, None] * g,
                                     lambda t, dts: rotations(turns(t, dts)))
    h = np.asarray(config.hamiltonian, dtype=complex)
    rotations = _rotations(h)
    return ClosedFormHamiltonian(lambda t: h, lambda t, dts: rotations(dts))


def wagon_wheel_frames(h0, times, projectors0) -> FramePath:
    """Frame family W(t) = exp(-2 i H_0 t), the rotation by phi = 2t about H_0 (stack built when first read).

    The measurement basis outruns the drive: in the Zeno limit the conditioned
    dynamics runs time-reversed relative to H_0 on each measured subspace.
    """
    times = np.asarray(times, dtype=float)
    return _RotationFramePath(times, 2.0 * times, h0, projectors0)


def _measurement_indices(times: np.ndarray, n: int) -> np.ndarray:
    """Indices of the uniform measurement grid k*T/N inside the frame grid."""
    span = times.size - 1
    if span < n or span % n != 0:
        raise GridMismatch(f"frame grid with {span} intervals cannot host {n} uniform measurement intervals")
    idx = np.arange(0, times.size, span // n)
    target = times[0] + (times[-1] - times[0]) * np.arange(n + 1) / n
    if not np.allclose(times[idx], target, rtol=0.0, atol=1e-9 * max(1.0, abs(times[-1]))):
        raise GridMismatch("frame grid is not uniform over the measurement times")
    return idx


def _interval_factors(h0_of_t, frames: FramePath, N: int, q: np.ndarray) -> np.ndarray:
    """The (N, r, r) blocks Q^dag F_k Q of F_k = W(t_{k+1})^dag U_0 W(t_k), Q a (d, r) basis, at times k*T/N.

    `h0_of_t` (None for no bare dynamics) is called once on all midpoint times: one midpoint factor per interval.
    The blocks are the view of an entry-major (r, r, N) array, which `adiabatic.ordered_product` takes as it is.
    """
    idx = _measurement_indices(frames.times, N)
    wq = (frames.frames[idx].reshape(-1, frames.dim) @ q).reshape(idx.size, frames.dim, -1)  # W Q, one BLAS call
    wq = np.ascontiguousarray(wq.transpose(1, 2, 0))  # entry-major (d, r, N + 1)
    u0_dag = None if h0_of_t is None else _midpoint_propagators(h0_of_t, frames.times[idx]).conj().transpose(2, 1, 0)
    ahead = wq[..., 1:] if u0_dag is None else _entry_major_matmul(u0_dag, wq[..., 1:])  # U_0^dag W(t_{k+1}) Q
    return _entry_major_matmul(ahead.conj().swapaxes(0, 1), wq[..., :-1]).transpose(2, 0, 1)


def projected_evolution(h0_of_t, frames: FramePath, level: int, N: int, initial) -> ZenoRun:
    """Conditioned evolution under N projective measurements along the frame.

    The measurement times k*T/N must be grid points of `frames`; between them the bare Hamiltonian
    `h0_of_t` (None for none) propagates, and the factors multiply as r x r blocks Q^dag W^dag U_0 W Q.
    """
    q = _range_basis(frames.projectors0[level])
    return _selective(frames, q, _interval_factors(h0_of_t, frames, N, q), initial)


def _selective(frames: FramePath, q: np.ndarray, factors: np.ndarray, initial, repeats=None) -> ZenoRun:
    """The ZenoRun of V_N = W(T) Q prod_k (Q^dag F_k Q) Q^dag on `initial`; ZeroSurvival when nothing survives.

    With `repeats` = N the (1, r, r) `factors` hold one block taken N times: the product is one matrix power.
    """
    product = ordered_product(factors) if repeats is None else np.linalg.matrix_power(factors[0], repeats)
    v = frames.final @ q @ product @ q.conj().T
    amp = v @ np.asarray(initial, dtype=complex)
    p = float(np.linalg.norm(amp) ** 2)
    if p < 1e-15:
        raise ZeroSurvival("survival probability vanished; conditioning is undefined")
    return ZenoRun(final_operator=v, survival_probability=p, conditional_state=amp / np.sqrt(p))


@dataclass(frozen=True)
class _RotationRun:
    """A run in rotation-angle form: frames W = exp(-i G phi) about one fixed Hermitian G under H_0 = alpha dphi/dt G.

    Built-in three-level runs with analytic frames have G = g, phi = theta - theta_0 and alpha the control's (0
    without control); wagon-wheel frames have G = H_0, phi = 2t and alpha = 1/2.  In the frame rotating with W the
    generator is K = (alpha - 1) dphi/dt G, so every rotation the run needs is (alpha - 1) times a difference of
    phi: a property of the path, not of the grid it is sampled on.
    """

    frames: _RotationFramePath
    alpha: float

    def rotating_generator(self) -> np.ndarray:
        """K = (alpha - 1) dphi/dt G on the frame grid: one central difference, exact where phi is linear in t."""
        dphi = np.gradient(self.frames.phi, self.frames.times, edge_order=2)
        return (self.alpha - 1.0) * dphi[:, None, None] * self.frames.generator

    def gate(self, level: int) -> np.ndarray:
        """`_SampledRun.gate` in closed form: exp(-i (alpha - 1) phi(T) Q^dag G Q) on P_n(0), the identity off it."""
        p0 = self.frames.projectors0[level]
        q = _range_basis(p0)
        angle = (self.alpha - 1.0) * self.frames.phi[-1]
        u = expm_hermitian_stack(_compress(q, self.frames.generator[None]), -1j * angle)[0]
        return q @ u @ q.conj().T + (np.eye(self.frames.dim) - p0)

    def factors(self, N: int, q: np.ndarray) -> np.ndarray:
        """:func:`_interval_factors` by angle: Q^dag exp(-i G psi_k) Q, psi_k = (alpha - 1)(phi_{k+1} - phi_k)."""
        psi = (self.alpha - 1.0) * np.diff(self.frames.phi[_measurement_indices(self.frames.times, N)])
        return self.frames.rotations(psi, q)


@dataclass(frozen=True)
class _SampledRun:
    """The general route, the tests' reference for `_RotationRun`: K = `adiabatic.rotating_generator(h0, frames)`."""

    h0: object  # the control's H_0 callable, None for none
    frames: FramePath
    k: np.ndarray

    def rotating_generator(self) -> np.ndarray:
        return self.k

    def gate(self, level: int) -> np.ndarray:
        """Gate Q U Q^dag + 1 - P_n(0) of P_n(0) K P_n(0), U the r x r ordered exponential of Q^dag K Q (Q: P_n(0))."""
        p0 = self.frames.projectors0[level]
        q = _range_basis(p0)
        u = _ordered_exp(self.frames.times, _compress(q, self.k))
        return q @ u @ q.conj().T + (np.eye(self.frames.dim) - p0)

    def factors(self, N: int, q: np.ndarray) -> np.ndarray:
        return _interval_factors(self.h0, self.frames, N, q)


def zeno_hamiltonian(h0_of_t, frames: FramePath, level: int) -> OperatorPath:
    """Emergent Zeno Hamiltonian H_Z[n] = P_n(0) W^dag H_0 W P_n(0) + H_G[n], sampled on the frame grid."""
    return _subspace_generator(h0_of_t, frames, level)


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
    u = np.concatenate([np.eye(frames.dim, dtype=complex)[..., None], _prefix_products(factors.transpose(1, 2, 0))],
                       axis=-1)
    weff = np.matmul(u.conj().transpose(2, 1, 0), frames.frames)
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
    """Raise IncompleteResolution unless every matrix of the (K, d, d) stack is the identity (Frobenius norm)."""
    if np.linalg.norm(totals - np.eye(totals.shape[-1]), axis=(-2, -1)).max() > 1e-9:
        raise IncompleteResolution("projectors do not resolve the identity")


def nonselective_step(rho: np.ndarray, projectors) -> np.ndarray:
    """Dephasing channel rho -> sum_n P_n rho P_n for a complete projector family."""
    mats = [np.asarray(p, dtype=complex) for p in projectors]
    _check_resolution(sum(mats)[None])
    return _dephase(rho, mats)


def _fold(frames: FramePath, x, steps: int, maps, lift) -> MasterResult:
    """rho(T) = W(T) rho~(T) W(T)^dag with rho~(T) = lift(M_{steps-1} ... M_0 x), x the vector of rho~(0).

    `lift` takes the (n,) vectors the maps act on to d x d matrices: nonselective runs pass the complex row-major
    vec(rho~) and a reshape, dissipative runs real Hermitian coordinates and `linalg._hermitian_lift`.
    `maps(start, stop)` builds the (stop - start, n, n) step maps M_k; they are built and applied in fixed-size
    batches.  W(0) = 1, so no start conjugation.  The result is re-Hermitized and divided by its trace once;
    `trace_drift` is |tr rho(T) - 1| read before that division.
    """
    chunk = max(1, _CHUNK_ENTRIES // x.size**2)
    for start in range(0, steps, chunk):
        x = ordered_product(maps(start, min(start + chunk, steps))) @ x
    wt = frames.final
    rho = wt @ lift(x) @ wt.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    return MasterResult(final=rho / tr, trace_drift=abs(tr - 1.0))


def _nonselective(frames: FramePath, factors: np.ndarray, rho0, repeats=None) -> MasterResult:
    """`_fold` of rho0 under unread measurements around the (N, d, d) interval factors F_k (Q = 1).

    rho~ starts as the dephased rho0; step k acts on vec(rho~) as sum_n (P_n(0) F_k) x conj(P_n(0) F_k).  With
    `repeats` = N the (1, d, d) `factors` hold one F taken N times: `_fold` gets one step, that map's N-th power.
    IncompleteResolution unless the P_n(0) sum to 1 and the unitaries the run uses, W(T) and every F_k, are
    unitary: W(0) = 1, so a non-unitary W(t_k) shows in F_{k-1} or F_k.
    """
    dim = frames.dim
    f = factors.transpose(1, 2, 0)  # entry-major (d, d, N)
    w = np.concatenate([frames.final[..., None], f], axis=-1)
    _check_resolution(_entry_major_matmul(w, w.conj().swapaxes(0, 1)).transpose(2, 0, 1))
    p0 = frames.projectors0.transpose(1, 2, 0)[..., None]  # (d, d, levels, 1)

    def maps(start, stop):
        m = _entry_major_matmul(p0, f[:, :, None, start:stop])  # P_n(0) F_k, (d, d, levels, k)
        m = np.einsum("ilnk,jmnk->kijlm", m, m.conj()).reshape(-1, dim * dim, dim * dim)
        return m if repeats is None else np.linalg.matrix_power(m[0], repeats)[None]

    return _fold(frames, nonselective_step(rho0, frames.projectors0).reshape(-1), len(factors), maps,
                 lambda x: x.reshape(dim, dim))


def nonselective_zeno_evolution(h0_of_t, frames: FramePath, N: int, rho0) -> np.ndarray:
    """Density-matrix evolution under N unread measurements along the frame, run in the frame rotating with W.

    Interleaves bare propagation (`h0_of_t` sampled once) with dephasing over the constant P_n(0); trace is
    preserved exactly and coherence across subspaces is removed.  IncompleteResolution unless the P_n(0)
    resolve the identity and W is unitary at every measurement time.
    """
    return _nonselective(frames, _interval_factors(h0_of_t, frames, N, np.eye(frames.dim)), rho0).final
