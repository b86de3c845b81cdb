"""Time-dependent Hamiltonians, instantaneous spectra, and transport frames.

The central objects are the instantaneous spectral decomposition of a
Hermitian H(t) and the continuous unitary family W(t) that carries the
initial eigenprojectors onto the instantaneous ones,

    P_n(t) = W(t) P_n(0) W(t)^dag,   W(0) = 1.

W is fixed only up to a block gauge; the numerical construction here uses
maximal-overlap (polar-factor) continuity within each tracked eigenspace,
and downstream quantities compared in tests are gauge invariant.

The built-in three-level family depends on two real controls (a, b) and has
a twofold-degenerate zero eigenvalue plus a single level at twice the
control radius; its frames have the closed form implemented in
:func:`frame_path_analytic_three_level`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CriticalPoint,
    InsufficientSamples,
    OpenPath,
    SubspaceTrackingFailure,
)
from .linalg import CLUSTER_TOL, _eigh_stack

CRITICAL_RADIUS_SQ = 1e-24
MIN_TRACKING_OVERLAP = 0.5


@dataclass(frozen=True)
class ParameterPath:
    """Discretized control path (a(t), b(t)), piecewise linear between samples."""

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if not (t.shape == a.shape == b.shape) or t.ndim != 1 or t.size < 2:
            raise ValueError("times, a, b must be equal-length 1-d arrays with >= 2 samples")
        for name, x in (("times", t), ("a", a), ("b", b)):
            if not np.isfinite(x).all():
                raise ValueError(f"{name} must be finite")
        if abs(t[0]) > 0.0:
            raise ValueError("path must start at time 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(a * a + b * b < CRITICAL_RADIUS_SQ):
            raise CriticalPoint("path touches the critical point (a, b) = (0, 0)")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    @property
    def closed(self) -> bool:
        return (
            abs(self.a[-1] - self.a[0]) <= 1e-12 and abs(self.b[-1] - self.b[0]) <= 1e-12
        )

    def radius(self) -> np.ndarray:
        return np.hypot(self.a, self.b)

    def theta(self) -> np.ndarray:
        """Polar angle along the path, unwrapped assuming |dtheta| < pi per step."""
        return np.unwrap(np.arctan2(self.b, self.a))


def circle_path(
    center=(0.0, 0.0),
    radius: float = 1.0,
    windings: int = 1,
    duration: float = 1.0,
    samples: int = 1025,
) -> ParameterPath:
    """Circular control loop traversed uniformly in time.

    `windings` counts signed loops around the origin: a circle enclosing the
    origin is traversed `windings` times (negative = clockwise), while a
    non-enclosing circle must declare ``windings=0`` and is traversed once.
    """
    ca, cb = float(center[0]), float(center[1])
    encloses = np.hypot(ca, cb) < radius
    if encloses and windings == 0:
        raise ValueError("circle encloses the origin; windings must be nonzero")
    if not encloses and windings != 0:
        raise ValueError("circle does not enclose the origin; windings must be 0")
    turns = windings if encloses else 1
    s = np.linspace(0.0, 1.0, samples)
    phi = 2 * np.pi * turns * s
    t = duration * s
    return ParameterPath(times=t, a=ca + radius * np.cos(phi), b=cb + radius * np.sin(phi))


def polyline_path(points, duration: float = 1.0, samples: int = 1025) -> ParameterPath:
    """Path linearly interpolating the given (a, b) corner points, uniform speed in index."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("polyline needs >= 2 points of shape (n, 2)")
    u = np.linspace(0.0, pts.shape[0] - 1.0, samples)
    a = np.interp(u, np.arange(pts.shape[0]), pts[:, 0])
    b = np.interp(u, np.arange(pts.shape[0]), pts[:, 1])
    return ParameterPath(times=duration * np.linspace(0.0, 1.0, samples), a=a, b=b)


def winding_number(path: ParameterPath) -> int:
    """Signed number of loops of a closed path around the origin.

    Total unwrapped angle divided by 2*pi; anti-clockwise counts positive.
    """
    if not path.closed:
        raise OpenPath("winding number requires a closed path")
    theta = path.theta()
    turns = (theta[-1] - theta[0]) / (2 * np.pi)
    if abs(turns - round(turns)) > 1e-6:
        raise ValueError(
            f"accumulated angle {turns:.8f} turns is not an integer; path is undersampled"
        )
    return int(round(turns))


@dataclass(frozen=True)
class SpectrumStack:
    """Instantaneous spectra of K samples, levels in energy order within each sample.

    Level n of sample k has energy ``energies[k, n]`` and rank ``ranks[k, n]``;
    its orthonormal basis is the next ``ranks[k, n]`` columns of
    ``vectors[k]`` after those of the levels below it.  A sample with fewer
    levels than the widest one is padded with NaN energies and rank 0, and
    with zero columns where its ranks sum to less than the widest one's.
    """

    energies: np.ndarray  # (K, L)
    ranks: np.ndarray  # (K, L) int
    vectors: np.ndarray  # (K, d, largest rank sum)

    @property
    def nlevels(self) -> np.ndarray:
        """Level count of every sample."""
        return np.count_nonzero(self.ranks, axis=1)

    def offsets(self) -> np.ndarray:
        """(K, L) index of each level's first column in `vectors`."""
        return np.cumsum(self.ranks, axis=1) - self.ranks

    def members(self) -> np.ndarray:
        """(K, L, columns) mask: column c of ``vectors[k]`` belongs to level l."""
        columns, start = np.arange(self.vectors.shape[2]), self.offsets()[..., None]
        return (columns >= start) & (columns < start + self.ranks[..., None])

    def projectors(self) -> np.ndarray:
        """(K, L, d, d) eigenprojectors: the symmetrized sum of v v^dag over each level's basis."""
        p = np.einsum("kac,klc,kbc->klab", self.vectors, self.members(), self.vectors.conj())
        return 0.5 * (p + p.conj().swapaxes(-1, -2))


def instantaneous_spectra(hs, cluster_tol: float = CLUSTER_TOL) -> SpectrumStack:
    """Spectral decompositions of a (K, d, d) stack of Hermitian matrices, with eigenvalue clustering.

    Within each sample, an eigenvalue within ``cluster_tol * max(1, max|w|)``
    of the one below it joins that one's level; a level's energy is the mean
    of its eigenvalues and its basis their eigenvectors.  One checked
    eigendecomposition serves the whole stack.
    """
    w, v = _eigh_stack(hs)
    tol = cluster_tol * np.maximum(1.0, np.abs(w).max(axis=1, initial=0.0))
    labels = np.zeros(w.shape, dtype=int)
    labels[:, 1:] = np.cumsum(np.diff(w, axis=1) > tol[:, None], axis=1)
    members = labels[:, None, :] == np.arange(labels.max(initial=0) + 1)[:, None]  # (K, L, d)
    ranks = members.sum(axis=2)
    energies = np.where(ranks > 0, (members * w[:, None, :]).sum(axis=2) / np.maximum(ranks, 1), np.nan)
    return SpectrumStack(energies=energies, ranks=ranks, vectors=v)


def instantaneous_spectrum(h, cluster_tol: float = CLUSTER_TOL) -> SpectrumStack:
    """Spectral decomposition of one Hermitian matrix: the K = 1 case of :func:`instantaneous_spectra`."""
    return instantaneous_spectra(np.asarray(h)[None], cluster_tol)


@dataclass(frozen=True)
class FramePath:
    """Sampled unitary family W(t_k) with the initial projectors it transports.

    frames[k] maps the range of projectors0[n] onto the instantaneous n-th
    eigenspace at times[k]; frames[0] is the identity.  `projectors0` is an
    (nlevels, d, d) stack of projector matrices.
    """

    times: np.ndarray
    frames: np.ndarray
    projectors0: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.frames, dtype=complex)
        p = np.asarray(self.projectors0, dtype=complex)
        if f.ndim != 3 or f.shape[0] != t.size:
            raise ValueError("frames must be a (len(times), d, d) stack")
        if p.ndim != 3 or p.shape[1:] != f.shape[1:]:
            raise ValueError("projectors0 must be an (nlevels, d, d) stack matching the frames")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "frames", f)
        object.__setattr__(self, "projectors0", p)

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    @property
    def nlevels(self) -> int:
        return self.projectors0.shape[0]

    def projector_path(self, level: int) -> np.ndarray:
        """Stack of transported projectors W(t_k) P_n(0) W(t_k)^dag."""
        return np.einsum("kij,jl,kml->kim", self.frames, self.projectors0[level], self.frames.conj())


@dataclass(frozen=True)
class OperatorPath:
    """Sampled time-dependent operator on a grid (generators, Hamiltonians)."""

    times: np.ndarray
    operators: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim != 3 or ops.shape[0] != t.size:
            raise ValueError("operators must be a (len(times), d, d) stack")
        if t.size < 1:
            raise InsufficientSamples("need at least one sample")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "operators", ops)

    def at(self, t) -> np.ndarray:
        """Operators at the time(s) `t`: piecewise linear between samples, constant outside the grid."""
        t, times, ops = np.asarray(t, dtype=float), self.times, self.operators
        if times.size == 1:
            return np.broadcast_to(ops[0], t.shape + ops.shape[1:])
        k = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2)
        s = np.clip((t - times[k]) / (times[k + 1] - times[k]), 0.0, 1.0)[..., None, None]
        return (1.0 - s) * ops[k] + s * ops[k + 1]


def _sample_stack(op_of_t, times: np.ndarray) -> np.ndarray:
    """op_of_t evaluated once on the whole 1-d grid, as a (K, d, d) complex stack (a constant is broadcast)."""
    ops = np.asarray(op_of_t(times), dtype=complex)
    return np.broadcast_to(ops, (times.size,) + ops.shape[-2:])


def _level_bases(vectors: np.ndarray, offsets: np.ndarray, levels: np.ndarray, width: int) -> np.ndarray:
    """(K, d, width) first `width` basis columns of level levels[k] of every sample k."""
    start = np.take_along_axis(offsets, levels[:, None], axis=1)
    return np.take_along_axis(vectors, (start + np.arange(width))[:, None, :], axis=2)


def _overlaps(spectra: SpectrumStack) -> np.ndarray:
    """overlaps[k - 1, i, j] = |P_j(k) P_i(k - 1)|_2 for every pair of consecutive samples.

    This is the top singular value of the block Q_j(k)^dag Q_i(k - 1) of
    V(k)^dag V(k - 1): its Frobenius norm when either level has rank one,
    else taken from :func:`_polar` (indices past a level's rank are clamped,
    then masked out).
    """
    v, ranks, offsets = spectra.vectors, spectra.ranks, spectra.offsets()
    m = v[1:].conj().swapaxes(-1, -2) @ v[:-1]
    members = spectra.members().astype(float)
    top = _small_matmul(_small_matmul(members[:-1], np.abs(m).swapaxes(-1, -2) ** 2), members[1:].swapaxes(-1, -2))
    k, i, j = np.nonzero((ranks[:-1, :, None] > 1) & (ranks[1:, None, :] > 1))
    if k.size:
        width = np.arange(ranks.max())
        rows, cols = offsets[k + 1, j][:, None] + width, offsets[k, i][:, None] + width
        keep = (width < ranks[k + 1, j][:, None])[:, :, None] & (width < ranks[k, i][:, None])[:, None, :]
        last = v.shape[2] - 1
        block = np.where(keep, m[k[:, None, None], np.minimum(rows, last)[:, :, None],
                                 np.minimum(cols, last)[:, None, :]], 0.0)
        top[k, i, j] = _polar(block)[0][:, 0] ** 2
    return np.sqrt(np.maximum(top, 0.0))


def _match_levels(spectra: SpectrumStack, overlaps: np.ndarray):
    """Greedy overlap matching of levels between consecutive samples, in level order.

    At each sample, tracked level n = 0, 1, ... takes the still unclaimed
    level of largest overlap with its level at the previous sample (the
    lower index on a tie).  The loop runs over Python integers and floats.

    Returns ``(order, failure)``: tracked level n is level ``order[k, n]`` of
    sample k, for every sample before the first failing one; `failure` is
    None or ``(k, message)`` for the first sample whose level count, overlap
    or rank rules the match out.
    """
    nlevels, ranks, overlaps = spectra.nlevels.tolist(), spectra.ranks.tolist(), overlaps.tolist()
    levels = range(nlevels[0])
    order = [list(levels)]
    for k in range(1, len(nlevels)):
        if nlevels[k] != len(levels):
            return np.array(order), (k, f"level count changed from {len(levels)} to {nlevels[k]} at sample {k}")
        rows, cur, free = overlaps[k - 1], [], list(levels)
        for n, i in enumerate(order[-1]):
            row = rows[i]
            j = max(free, key=row.__getitem__)  # the first, so the lowest, of equal overlaps
            if row[j] <= MIN_TRACKING_OVERLAP:
                message = f"projector overlap {row[j]:.3f} <= {MIN_TRACKING_OVERLAP}"
                return np.array(order), (k, f"{message} for level {n} at sample {k}")
            if ranks[k][j] != ranks[0][n]:
                message = f"rank changed from {ranks[0][n]} to {ranks[k][j]}"
                return np.array(order), (k, f"{message} for level {n} at sample {k}")
            free.remove(j)
            cur.append(j)
        order.append(cur)
    return np.array(order), None


def _small_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over stacks with a small inner dimension, as that many elementwise products.

    np.matmul pays a fixed cost per matrix, which dominates for r x r blocks.
    """
    return sum(a[..., :, i, None] * b[..., None, i, :] for i in range(a.shape[-1]))


def _prefix_products(stack: np.ndarray) -> np.ndarray:
    """out[k] = stack[k] @ ... @ stack[0], in log2(K) batched doubling steps."""
    out = stack.copy()
    shift = 1
    while shift < out.shape[0]:
        out[shift:] = _small_matmul(out[shift:], out[:-shift])
        shift *= 2
    return out


def _polar(a: np.ndarray):
    """(descending singular values, unitary polar factors) of a (K, r, r) stack.

    Ranks 1 and 2 take closed forms instead of one LAPACK call per matrix:
    a 1 x 1 block is its modulus times its phase, and a 2 x 2 block
    a = U diag(s_1, s_2) V^dag has a +- e^{i arg det a} adj(a)^dag =
    (s_1 +- s_2) U diag(1, +-1) V^dag, so both s_1 + s_2 and s_1 - s_2 come
    from a Frobenius norm, without cancellation.
    """
    r = a.shape[-1]
    if r > 2:
        u, s, vh = np.linalg.svd(a)
        return s, u @ vh
    det = a[..., 0, 0] if r == 1 else a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    phase = (det / np.where(det != 0, np.abs(det), 1.0))[..., None, None]
    if r == 1:
        return np.abs(det)[..., None], phase
    adj_h = np.stack([a[..., 1, 1], -a[..., 1, 0], -a[..., 0, 1], a[..., 0, 0]], axis=-1).reshape(a.shape).conj()
    z = a + phase * adj_h
    total = np.sqrt(0.5 * (np.abs(z) ** 2).sum(axis=(-1, -2)))  # s_1 + s_2
    diff = np.sqrt(0.5 * (np.abs(a - phase * adj_h) ** 2).sum(axis=(-1, -2)))  # s_1 - s_2
    top = 0.5 * (total + diff)
    bottom = np.abs(det) / np.where(top > 0, top, 1.0)
    return np.stack([top, bottom], axis=-1), z / np.where(total > 0, total, 1.0)[..., None, None]


def track_levels(times, spectra: SpectrumStack):
    """Build W(t_k) from instantaneous spectra by subspace tracking.

    Levels are matched between consecutive samples by projector overlap (not
    by energy order), and within each matched eigenspace the incremental
    rotation is the polar factor of the projected, frame-transported basis:
    maximal-overlap continuity.  With Q_n(k) the level's orthonormal basis,
    the transported basis is Q_n(k) U_n(k), where U_n(k) =
    polar(Q_n(k)^dag Q_n(k-1)) U_n(k-1) is a prefix product of r x r factors.
    Raises SubspaceTrackingFailure, naming the first failing sample, when
    level counts/ranks change, the overlap drops to 1/2 or below (level
    crossing or too-coarse sampling) or a transported basis loses rank.

    Returns ``(frames, order)``: tracked level n is level ``order[k, n]``
    (energy order) of sample k.
    """
    times = np.asarray(times, dtype=float)
    if times.size != spectra.ranks.shape[0] or times.size < 1:
        raise ValueError("need one spectrum per time sample")
    order, failure = _match_levels(spectra, _overlaps(spectra))
    tracked = times.size if failure is None else failure[0]
    vectors, offsets = spectra.vectors[:tracked], spectra.offsets()[:tracked]
    ranks = spectra.ranks[0, : order.shape[1]]
    bases = [_level_bases(vectors, offsets, order[:tracked, n], rank) for n, rank in enumerate(ranks)]
    steps = [_polar(_small_matmul(q[1:].conj().swapaxes(-1, -2), q[:-1])) for q in bases]
    lost = [(int(k) + 1, n) for n, (s, _) in enumerate(steps) for k in np.flatnonzero(s[:, -1] <= 1e-12)[:1]]
    if lost:
        k, n = min(lost)
        raise SubspaceTrackingFailure(f"transported basis lost rank for level {n} at sample {k}")
    if failure is not None:
        raise SubspaceTrackingFailure(failure[1])

    dim = spectra.vectors.shape[1]
    frames = np.zeros((times.size, dim, dim), dtype=complex)
    for q, (_, factors) in zip(bases, steps):
        rot = np.concatenate([np.eye(q.shape[2])[None], _prefix_products(factors)])
        # Each polar factor is unitary only to rounding, and products accumulate
        # the defect: one Newton-Schulz step takes it back to rounding.
        rot = 1.5 * rot - 0.5 * _small_matmul(rot, _small_matmul(rot.conj().swapaxes(-1, -2), rot))
        frames += _small_matmul(_small_matmul(q, rot), q[0].conj().T)
    frames[0] = np.eye(dim)
    first = SpectrumStack(energies=spectra.energies[:1], ranks=spectra.ranks[:1], vectors=spectra.vectors[:1])
    return FramePath(times=times, frames=frames, projectors0=first.projectors()[0, : ranks.size]), order


def frame_path_from_spectra(times, spectra: SpectrumStack) -> FramePath:
    """Tracked frames from the spectra of every time sample (see :func:`track_levels`)."""
    return track_levels(times, spectra)[0]


# ---------------------------------------------------------------------------
# Built-in three-level family
# ---------------------------------------------------------------------------

def three_level_hamiltonian(a, b) -> np.ndarray:
    """Real symmetric 3x3 Hamiltonian of the two-control family ((K, 3, 3) for arrays of controls).

    Eigenvalues are 0 (twofold) and 2*sqrt(a^2 + b^2); the gap closes at the
    critical point (a, b) = (0, 0), which is rejected.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rsq = a * a + b * b
    if np.any(rsq < CRITICAL_RADIUS_SQ):
        raise CriticalPoint("three-level Hamiltonian is undefined at (a, b) = (0, 0)")
    r = np.sqrt(rsq)
    h = np.array(
        [
            [r, a, b],
            [a, a * a / r, a * b / r],
            [b, a * b / r, b * b / r],
        ],
        dtype=complex,
    )
    return np.moveaxis(h, (0, 1), (-2, -1))


def three_level_eigenbasis(theta):
    """Instantaneous eigenvectors (E_plus, E_minus, E_zero) at polar angle(s) `theta`."""
    c, s = np.cos(theta), np.sin(theta)
    one, zero = np.ones_like(c), np.zeros_like(c)
    e_plus = np.stack([one, c, s], axis=-1).astype(complex) / np.sqrt(2.0)
    e_minus = np.stack([one, -c, -s], axis=-1).astype(complex) / np.sqrt(2.0)
    e_zero = np.stack([zero, -s, c], axis=-1).astype(complex)
    return e_plus, e_minus, e_zero


@dataclass(frozen=True)
class ThreeLevelGenerators:
    """Rotation generators of the three-level family.

    `frame_generator` rotates the (|2>, |3>) plane and generates the
    transport frame; `subspace_generator` rotates the degenerate eigenspace
    at the reference angle and generates the subspace gate.  Both are
    Hermitian with cube equal to themselves.
    """

    frame_generator: np.ndarray
    subspace_generator: np.ndarray
    theta0: float


def three_level_generators(theta0: float = 0.0) -> ThreeLevelGenerators:
    g = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
    _, e_minus, e_zero = three_level_eigenbasis(theta0)
    g0 = -1j * np.outer(e_zero, e_minus.conj()) + 1j * np.outer(e_minus, e_zero.conj())
    return ThreeLevelGenerators(frame_generator=g, subspace_generator=g0, theta0=theta0)


def three_level_projectors(theta):
    """(rank-2 degenerate projector, rank-1 excited projector) matrices at angle theta; they stack over an array."""
    p_plus, p_minus, p_zero = (e[..., :, None] * e[..., None, :].conj() for e in three_level_eigenbasis(theta))
    return p_minus + p_zero, p_plus


def _plane_rotation_stack(generator: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """exp(-i * generator * phi) for a stack of angles, generator^3 = generator."""
    g2 = generator @ generator
    eye = np.eye(generator.shape[0], dtype=complex)
    c = np.cos(phis)[:, None, None]
    s = np.sin(phis)[:, None, None]
    return eye + (c - 1.0) * g2 - 1j * s * generator


def frame_path_analytic_three_level(path: ParameterPath) -> FramePath:
    """Closed-form transport frames exp(-i G (theta(t) - theta_0)) for the three-level family."""
    theta = path.theta()
    gens = three_level_generators(theta[0])
    frames = _plane_rotation_stack(gens.frame_generator, theta - theta[0])
    return FramePath(times=path.times, frames=frames, projectors0=three_level_projectors(theta[0]))
