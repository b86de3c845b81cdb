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

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import CriticalPoint, InsufficientSamples, OpenPath, SubspaceTrackingFailure
from .linalg import CLUSTER_TOL, _checked_hermitian_stack, _compress

CRITICAL_RADIUS_SQ = 1e-24
MIN_TRACKING_OVERLAP = 0.5


@dataclass(frozen=True)
class ParameterPath:
    """Discretized control path (a(t), b(t)), piecewise linear between samples (read-only; theta fixed once)."""

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray
    _theta: np.ndarray = field(init=False, repr=False, compare=False)
    _near: InitVar[np.ndarray | None] = None

    def __post_init__(self, _near):
        t, a, b = (np.array(x, dtype=float) for x in (self.times, self.a, self.b))
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
        raw = np.arctan2(b, a)
        turns = None if _near is None else np.round((_near - raw) / (2 * np.pi))
        theta = _unwrap(raw) if turns is None else raw + 2 * np.pi * (turns - turns[0])
        for name, x in (("times", t), ("a", a), ("b", b), ("_theta", theta)):
            x.flags.writeable = False
            object.__setattr__(self, name, x)

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    @property
    def closed(self) -> bool:
        return abs(self.a[-1] - self.a[0]) <= 1e-12 and abs(self.b[-1] - self.b[0]) <= 1e-12

    def radius(self) -> np.ndarray:
        return np.hypot(self.a, self.b)

    def theta(self) -> np.ndarray:
        """Polar angle (read-only): arctan2 on the turn of `_near`, an angle a builder knows to within pi/2, shifted
        to start at arctan2; unwrapped assuming |dtheta| < pi per step on a path built without one."""
        return self._theta


def _unwrap(theta: np.ndarray) -> np.ndarray:
    """np.unwrap(theta) bit for bit, with its modulo taken only at the steps that reach pi (few on a sampled loop)."""
    dd = np.diff(theta)
    jumps = np.flatnonzero(np.abs(dd) >= np.pi)
    ddmod = np.mod(dd[jumps] + np.pi, 2 * np.pi) - np.pi
    ddmod[(ddmod == -np.pi) & (dd[jumps] > 0)] = np.pi
    correction = np.zeros_like(dd)
    correction[jumps] = ddmod - dd[jumps]
    out = theta.copy()
    out[1:] += correction.cumsum()
    return out


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
    Its angle lies within pi/2 of phi = 2 pi windings s around the origin, of arg(center) off it.
    """
    s = np.linspace(0.0, 1.0, samples)
    a, b = _circle_controls(center, radius, windings)(s)
    near = 2 * np.pi * windings * s if windings else np.arctan2(center[1], center[0])
    return ParameterPath(times=duration * s, a=a, b=b, _near=near)


def _circle_controls(center, radius: float, windings: int) -> Callable:
    """s -> (a, b) on the loop of :func:`circle_path` after the fraction `s` of its duration (any array of s).

    The loop is center + radius (cos phi, sin phi) with phi = 2 pi turns s,
    turns = `windings` around the origin or one for a non-enclosing circle
    (ValueError when `windings` says otherwise or the controls overflow; CriticalPoint when it meets the origin).
    """
    ca, cb = float(center[0]), float(center[1])
    if not np.isfinite(abs(ca) + abs(cb) + radius):  # Python floats: an overflow is inf, not a warning
        raise ValueError("circle controls overflow: |center a| + |center b| + radius must be finite")
    gap = float(np.hypot(ca, cb)) - radius  # the loop's signed distance from the origin
    if gap * gap < CRITICAL_RADIUS_SQ:
        raise CriticalPoint("circle passes through the critical point (a, b) = (0, 0)")
    if gap < 0 and windings == 0:
        raise ValueError("circle encloses the origin; windings must be nonzero")
    if gap > 0 and windings != 0:
        raise ValueError("circle does not enclose the origin; windings must be 0")
    turns = windings if gap < 0 else 1

    def controls(s):
        phi = 2 * np.pi * turns * s
        return ca + radius * np.cos(phi), cb + radius * np.sin(phi)

    return controls


def polyline_path(points, duration: float = 1.0, samples: int = 1025) -> ParameterPath:
    """Path linearly interpolating the given (a, b) corner points, uniform speed in index (CriticalPoint where a side
    meets (0, 0))."""
    return _resampled(_polyline_knots(points), samples, duration)


def _polyline_knots(points) -> ParameterPath:
    """The corners of a polyline as :func:`_knot_path` at times 0, 1, ..., n - 1."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("polyline needs >= 2 points of shape (n, 2)")
    return _knot_path(np.arange(pts.shape[0], dtype=float), pts[:, 0], pts[:, 1])


def _knot_path(times, a, b) -> ParameterPath:
    """Knots of a path linear between them; CriticalPoint where a segment meets (0, 0), so each subtends under pi."""
    knots = ParameterPath(times=times, a=a, b=b)
    a, b, da, db = knots.a[:-1], knots.b[:-1], np.diff(knots.a), np.diff(knots.b)
    s = np.clip(-(a * da + b * db) / np.maximum(da * da + db * db, np.finfo(float).tiny), 0.0, 1.0)  # nearest point
    if np.any((a + s * da) ** 2 + (b + s * db) ** 2 < CRITICAL_RADIUS_SQ):
        raise CriticalPoint("a segment between knots passes through the critical point (a, b) = (0, 0)")
    return knots


def _knot_controls(knots: ParameterPath, duration: float) -> Callable:
    """t -> (a, b) on the path linear between `knots`, their times rescaled to `duration` (any array of t)."""
    times = knots.times * (duration / knots.duration)
    return lambda t: (np.interp(t, times, knots.a), np.interp(t, times, knots.b))


def _resampled(knots: ParameterPath, samples: int, duration: float) -> ParameterPath:
    """The path linear between `knots` on `samples` uniform times over `duration`, on its segments' mid-angle turns."""
    u = np.linspace(0.0, 1.0, samples)
    k = np.clip(np.searchsorted(knots.times, knots.duration * u, side="right") - 1, 0, knots.times.size - 2)
    mid = 0.5 * (knots.theta()[:-1] + knots.theta()[1:])
    return ParameterPath(duration * u, *_knot_controls(knots, duration)(duration * u), _near=mid[k])


def winding_number(path: ParameterPath) -> int:
    """Signed number of loops of a closed path around the origin.

    Total unwrapped angle divided by 2*pi; anti-clockwise counts positive.
    """
    if not path.closed:
        raise OpenPath("winding number requires a closed path")
    theta = path.theta()
    turns = (theta[-1] - theta[0]) / (2 * np.pi)
    if abs(turns - round(turns)) > 1e-6:
        raise ValueError(f"accumulated angle {turns:.8f} turns is not an integer; path is undersampled")
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

    def select(self, index) -> "SpectrumStack":
        """The spectra of the samples `index` (a slice or an index array)."""
        return SpectrumStack(energies=self.energies[index], ranks=self.ranks[index], vectors=self.vectors[index])

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
    w, v = np.linalg.eigh(_checked_hermitian_stack(hs))
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
    eigenspace at times[k]; frames[0] must be the identity (ValueError
    otherwise), which every engine assumes.  `projectors0` is an
    (nlevels, d, d) stack of projector matrices.
    """

    times: np.ndarray
    frames: np.ndarray
    projectors0: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=complex)
        self._set_times_and_projectors(f.shape, lambda: f[:1])
        object.__setattr__(self, "frames", f)

    def _set_times_and_projectors(self, frames_shape, first):
        """Store `times` and `projectors0` as arrays, checked against the frames' shape and first() = W(t_0) = 1."""
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.projectors0, dtype=complex)
        if len(frames_shape) != 3 or frames_shape[0] != t.size:
            raise ValueError("frames must be a (len(times), d, d) stack")
        if p.ndim != 3 or p.shape[1:] != frames_shape[1:]:
            raise ValueError("projectors0 must be an (nlevels, d, d) stack matching the frames")
        if np.abs(first() - np.eye(p.shape[-1])).max(initial=0.0) > 1e-12:
            raise ValueError("the first frame must be the identity: W(t_0) = 1")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "projectors0", p)

    @property
    def dim(self) -> int:
        return self.projectors0.shape[-1]

    @property
    def nlevels(self) -> int:
        return self.projectors0.shape[0]

    @property
    def final(self) -> np.ndarray:
        """W(T), the last frame."""
        return self.frames[-1]

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


@dataclass(frozen=True)
class ClosedFormHamiltonian:
    """Grid callable H(t) = `matrices(t)` whose `propagators(t, dts)` give exp(-i H(t[k]) dts[k]) in closed form."""

    matrices: Callable
    propagators: Callable

    def __call__(self, t):
        return self.matrices(t)


def _sample_stack(op_of_t, times: np.ndarray) -> np.ndarray:
    """op_of_t evaluated once on the whole 1-d grid, as a (K, d, d) complex stack (a constant is broadcast)."""
    ops = np.asarray(op_of_t(times), dtype=complex)
    return np.broadcast_to(ops, (times.size,) + ops.shape[-2:])


def _entry_major_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over entry-major stacks: a (r, s, ...) and b (s, t, ...) hold entry [i, j] of every matrix in a[i, j].

    The s broadcast products a[:, l] b[l] are summed in ascending l, so numpy's inner loops run over the stack
    (the trailing axes), not over the few entries of each matrix.  b[None, l], not b[l]: for s = 1 and one matrix
    the shapes then match, and numpy keeps the vector complex multiply of larger stacks (its scalar loop rounds
    differently).
    """
    out = a[:, 0, None] * b[None, 0]
    for l in range(1, a.shape[1]):
        out += a[:, l, None] * b[None, l]
    return out


def _overlaps(spectra: SpectrumStack, m: np.ndarray) -> np.ndarray:
    """overlaps[k - 1, i, j] = |P_j(k) P_i(k - 1)|_2 of consecutive samples, from m[..., k - 1] = V(k)^dag V(k - 1).

    This is the top singular value of the block Q_j(k)^dag Q_i(k - 1) of
    V(k)^dag V(k - 1): its Frobenius norm when either level has rank one,
    else taken from :func:`_polar` (indices past a level's rank are clamped,
    then masked out).
    """
    ranks, offsets = spectra.ranks, spectra.offsets()
    members = np.ascontiguousarray(spectra.members().transpose(1, 2, 0), dtype=float)  # (L, c, K)
    top = _entry_major_matmul(_entry_major_matmul(members[..., :-1], (np.abs(m) ** 2).swapaxes(0, 1)),
                              members[..., 1:].swapaxes(0, 1))
    k, i, j = np.nonzero((ranks[:-1, :, None] > 1) & (ranks[1:, None, :] > 1))
    if k.size:
        width = np.arange(ranks.max())[:, None]
        rows, cols = offsets[k + 1, j] + width, offsets[k, i] + width  # (width, pairs)
        keep = (width < ranks[k + 1, j])[:, None] & (width < ranks[k, i])[None]
        last = m.shape[0] - 1
        block = np.where(keep, m[np.minimum(rows, last)[:, None], np.minimum(cols, last)[None], k], 0.0)
        top[i, j, k] = _polar(block)[0][0] ** 2
    return np.sqrt(np.maximum(top, 0.0)).transpose(2, 0, 1)


def _match_levels(spectra: SpectrumStack, overlaps: np.ndarray):
    """Greedy overlap matching of levels between consecutive samples, in level order.

    At each sample, tracked level n = 0, 1, ... takes the still unclaimed
    level of largest overlap with its level at the previous sample (the
    lower index on a tie).  Most samples are a plain stay, found for the
    whole stack at once: ranks (so also the level count) unchanged, and
    every level overlapping itself above MIN_TRACKING_OVERLAP and most of
    all (lowest index on a tie).  The argmaxes are then distinct, so the
    greedy pick is each level itself and the order carries over.  The
    greedy step runs, over Python integers and floats, only at the other
    samples (crossings, contention, failures).

    Returns ``(order, failure)``: tracked level n is level ``order[k, n]`` of
    sample k, for every sample before the first failing one; `failure` is
    None or ``(k, message)`` for the first sample whose level count, overlap
    or rank rules the match out.
    """
    nlevels, ranks = spectra.nlevels, spectra.ranks
    levels = range(nlevels[0])
    square = overlaps[:, : len(levels), : len(levels)]
    stay = (square.argmax(axis=2) == levels).all(axis=1) & (ranks[1:] == ranks[:-1]).all(axis=1)
    stay &= (square.diagonal(axis1=1, axis2=2) > MIN_TRACKING_OVERLAP).all(axis=1)
    order, last, start = np.empty((nlevels.size, len(levels)), dtype=int), list(levels), 0
    for k in (np.flatnonzero(~stay) + 1).tolist():
        order[start:k] = last
        if nlevels[k] != len(levels):
            return order[:k], (k, f"level count changed from {len(levels)} to {nlevels[k]} at sample {k}")
        rows, cur, free = overlaps[k - 1].tolist(), [], list(levels)
        for n, i in enumerate(last):
            row = rows[i]
            j = max(free, key=row.__getitem__)  # the first, so the lowest, of equal overlaps
            if row[j] <= MIN_TRACKING_OVERLAP:
                message = f"projector overlap {row[j]:.3f} <= {MIN_TRACKING_OVERLAP}"
                return order[:k], (k, f"{message} for level {n} at sample {k}")
            if ranks[k, j] != ranks[0, n]:
                message = f"rank changed from {ranks[0, n]} to {ranks[k, j]}"
                return order[:k], (k, f"{message} for level {n} at sample {k}")
            free.remove(j)
            cur.append(j)
        last, start = cur, k
    order[start:] = last
    return order, None


def _prefix_products(stack: np.ndarray) -> np.ndarray:
    """out[..., k] = stack[..., k] @ ... @ stack[..., 0] of an entry-major (r, r, K) stack, in log2(K) doublings."""
    out = stack.copy()
    shift = 1
    while shift < out.shape[-1]:
        out[..., shift:] = _entry_major_matmul(out[..., shift:], out[..., :-shift])
        shift *= 2
    return out


def _polar(a: np.ndarray):
    """(descending singular values, unitary polar factors) of an entry-major (r, r, K) stack, as (r, K) and (r, r, K).

    Ranks 1 and 2 take closed forms instead of one LAPACK call per matrix:
    a 1 x 1 block is its modulus times its phase, and a 2 x 2 block
    a = U diag(s_1, s_2) V^dag has a +- e^{i arg det a} adj(a)^dag =
    (s_1 +- s_2) U diag(1, +-1) V^dag, so both s_1 + s_2 and s_1 - s_2 come
    from a Frobenius norm, without cancellation.
    """
    r = a.shape[0]
    if r > 2:
        u, s, vh = np.linalg.svd(np.moveaxis(a, -1, 0))
        return np.ascontiguousarray(s.T), np.ascontiguousarray(np.moveaxis(u @ vh, 0, -1))
    det = a[0, 0] if r == 1 else a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    phase = det / np.where(det != 0, np.abs(det), 1.0)
    if r == 1:
        return np.abs(det)[None], phase[None, None]
    adj_h = np.stack([a[1, 1], -a[1, 0], -a[0, 1], a[0, 0]]).reshape(a.shape).conj()
    z = a + phase * adj_h
    total = np.sqrt(0.5 * (np.abs(z) ** 2).sum(axis=(0, 1)))  # s_1 + s_2
    diff = np.sqrt(0.5 * (np.abs(a - phase * adj_h) ** 2).sum(axis=(0, 1)))  # s_1 - s_2
    top = 0.5 * (total + diff)
    bottom = np.abs(det) / np.where(top > 0, top, 1.0)
    return np.stack([top, bottom]), z / np.where(total > 0, total, 1.0)


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
    V(k)^dag V(k-1) is formed once; the overlaps and every level's blocks
    Q_n(k)^dag Q_n(k-1) are read from it, and all products run entry-major,
    on (r, r, K) arrays; the frames are the (K, d, d) view of a (d, d, K) one.

    Returns ``(frames, order)``: tracked level n is level ``order[k, n]``
    (energy order) of sample k.
    """
    times = np.asarray(times, dtype=float)
    if times.size != spectra.ranks.shape[0] or times.size < 1:
        raise ValueError("need one spectrum per time sample")
    vectors = np.ascontiguousarray(spectra.vectors.transpose(1, 2, 0))  # (d, c, K)
    m = _entry_major_matmul(vectors[:, :, 1:].conj().swapaxes(0, 1), vectors[:, :, :-1])  # V(k)^dag V(k - 1)
    order, failure = _match_levels(spectra, _overlaps(spectra, m))
    tracked = order.shape[0]
    ranks = spectra.ranks[0, : order.shape[1]]
    starts = np.take_along_axis(spectra.offsets()[:tracked], order, axis=1).T  # (levels, tracked) first columns
    span, steps = np.arange(tracked - 1), []
    for start, r in zip(starts, ranks):  # polar factors of the level's blocks Q_n(k)^dag Q_n(k-1), read off m
        width = np.arange(r)[:, None]
        steps.append(_polar(m[(start[1:] + width)[:, None], (start[:-1] + width)[None], span]))
    lost = [(int(k) + 1, n) for n, (s, _) in enumerate(steps) for k in np.flatnonzero(s[-1] <= 1e-12)[:1]]
    if lost:
        k, n = min(lost)
        raise SubspaceTrackingFailure(f"transported basis lost rank for level {n} at sample {k}")
    if failure is not None:
        raise SubspaceTrackingFailure(failure[1])

    dim = spectra.vectors.shape[1]
    frames = np.zeros((dim, dim, times.size), dtype=complex)
    for start, r, (_, factors) in zip(starts, ranks, steps):
        q = np.take_along_axis(vectors, start + np.arange(r)[None, :, None], axis=1)  # (d, r, K) level basis
        rot = np.concatenate([np.eye(r)[..., None], _prefix_products(factors)], axis=-1)
        # Each polar factor is unitary only to rounding, and products accumulate
        # the defect: one Newton-Schulz step takes it back to rounding.
        rot = 1.5 * rot - 0.5 * _entry_major_matmul(rot, _entry_major_matmul(rot.conj().swapaxes(0, 1), rot))
        frames += _entry_major_matmul(_entry_major_matmul(q, rot), q[..., :1].conj().swapaxes(0, 1))
    frames[..., 0] = np.eye(dim)
    projectors0 = spectra.select(slice(0, 1)).projectors()[0, : ranks.size]
    return FramePath(times=times, frames=np.moveaxis(frames, -1, 0), projectors0=projectors0), order


def frame_path_from_spectra(times, spectra: SpectrumStack) -> FramePath:
    """Tracked frames from the spectra of every time sample (see :func:`track_levels`)."""
    return track_levels(times, spectra)[0]


# ---------------------------------------------------------------------------
# Built-in three-level family
# ---------------------------------------------------------------------------

def _control_radius(a, b):
    """(a, b, r) as float arrays with r = sqrt(a^2 + b^2); CriticalPoint where the gap closes at (0, 0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rsq = a * a + b * b
    if np.any(rsq < CRITICAL_RADIUS_SQ):
        raise CriticalPoint("three-level Hamiltonian is undefined at (a, b) = (0, 0)")
    return a, b, np.sqrt(rsq)


def three_level_hamiltonian(a, b) -> np.ndarray:
    """Real symmetric 3x3 Hamiltonian of the two-control family ((K, 3, 3) for arrays of controls).

    Eigenvalues are 0 (twofold) and 2*sqrt(a^2 + b^2); the gap closes at the
    critical point (a, b) = (0, 0), which is rejected.
    """
    a, b, r = _control_radius(a, b)
    h = np.array(
        [
            [r, a, b],
            [a, a * a / r, a * b / r],
            [b, a * b / r, b * b / r],
        ],
        dtype=complex,
    )
    return np.moveaxis(h, (0, 1), (-2, -1))


def three_level_propagators(a, b, dts) -> np.ndarray:
    """exp(-i H dts) for the three-level H = 2 r P_+(theta) = r u u^T of rank one, u = (1, a/r, b/r).

    Built from u directly, without the Hamiltonian stack:
    exp(-i H dts) = 1 + (e^{-2 i r dts} - 1) u u^T / 2.  CriticalPoint at (a, b) = (0, 0).
    Each entry is one vector over the controls, (half u_i) u_j, stored
    entry-major: the (..., 3, 3) result is a view of a contiguous (3, 3, ...)
    array, which `adiabatic.ordered_product` multiplies without a copy.
    """
    a, b, r = _control_radius(a, b)
    u = (np.ones_like(r), a / r, b / r)
    half = 0.5 * (np.exp(-2j * r * dts) - 1.0)
    hu = [half * ui for ui in u]
    out = np.empty((3, 3) + np.shape(half), dtype=complex)
    for i in range(3):
        for j in range(3):
            np.multiply(hu[i], u[j], out=out[i, j, ...])
        out[i, i] += 1.0
    return np.moveaxis(out, (0, 1), (-2, -1))


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


def three_level_generators(theta0: float = 0.0) -> ThreeLevelGenerators:
    g = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
    _, e_minus, e_zero = three_level_eigenbasis(theta0)
    g0 = -1j * np.outer(e_zero, e_minus.conj()) + 1j * np.outer(e_minus, e_zero.conj())
    return ThreeLevelGenerators(frame_generator=g, subspace_generator=g0)


def three_level_projectors(theta):
    """(rank-2 degenerate projector, rank-1 excited projector) matrices at angle theta; they stack over an array."""
    p_plus, p_minus, p_zero = (e[..., :, None] * e[..., None, :].conj() for e in three_level_eigenbasis(theta))
    return p_minus + p_zero, p_plus


def _rotations(generator):
    """(phis, basis=None) -> exp(-i G phi_k) about one fixed Hermitian G, or Q^dag exp(-i G phi_k) Q on a (d, r) basis.

    G^3 = G (a plane rotation) takes the closed form 1 + (cos phi - 1) G^2 - i sin phi G, written entry-major: the
    (K, r, r) result is a view of a contiguous (r, r, K) array, which `adiabatic.ordered_product` multiplies without
    a copy.  Any other G takes one eigh of the (d, d) matrix.  ValueError unless G is square and finite,
    NonHermitianInput unless it is Hermitian.
    """
    g = _checked_hermitian_stack(np.asarray(generator)[None], what="rotation generator")[0]
    scale = np.abs(g).max()  # G^3 = G has eigenvalues 0, +-1, so no entry above 1: a larger G is not squared
    if scale <= 1.0 + 1e-12 and np.abs((g2 := g @ g) @ g - g).max() <= 1e-14 * scale:  # eigenvalues 0, +-1
        def rotations(phis, basis=None):
            g1, sq = (g, g2) if basis is None else _compress(basis, np.stack([g, g2]))
            out = np.multiply.outer(sq, np.cos(phis) - 1.0)
            out += np.eye(sq.shape[-1])[..., None]
            out -= np.multiply.outer(g1, 1j * np.sin(phis))
            return np.moveaxis(out, -1, 0)
        return rotations
    w, v = np.linalg.eigh(g)

    def rotations(phis, basis=None):
        vq = v.conj().T if basis is None else v.conj().T @ basis  # V^dag Q
        return (vq.conj().T * np.exp(-1j * np.multiply.outer(phis, w))[:, None, :]) @ vq
    return rotations


# The three-level frame generator (it does not depend on theta_0), checked and closed over once.
_FRAME_GENERATOR = three_level_generators().frame_generator
_FRAME_GENERATOR.flags.writeable = False
_FRAME_ROTATIONS = _rotations(_FRAME_GENERATOR)


class _RotationFramePath(FramePath):
    """Frames exp(-i G phi_k) about one fixed Hermitian G (:func:`_rotations`): the stack is built on its first read.

    `final` comes from the last angle alone, equal bit for bit to the stack's
    end.  Times, projectors and W(t_0) = 1 are checked at once.  `rotations`
    is `_rotations(generator)`, built here unless the caller has it already.
    """

    def __init__(self, times, phi, generator, projectors0, rotations=None):
        g = np.asarray(generator, dtype=complex)
        object.__setattr__(self, "rotations", _rotations(g) if rotations is None else rotations)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "projectors0", projectors0)
        self._set_times_and_projectors(np.shape(phi) + g.shape, lambda: self.rotations(phi[:1]))
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "generator", g)

    @cached_property
    def frames(self) -> np.ndarray:
        return self.rotations(self.phi)

    @property
    def final(self) -> np.ndarray:
        return self.rotations(self.phi[-1:])[0]


def frame_path_analytic_three_level(path: ParameterPath) -> FramePath:
    """Closed-form transport frames exp(-i G (theta(t) - theta_0)) for the three-level family.

    The (K, 3, 3) stack `frames` is built only when it is read; W(T)
    (`final`) comes from theta alone.
    """
    theta = path.theta()
    return _RotationFramePath(path.times, theta - theta[0], _FRAME_GENERATOR, three_level_projectors(theta[0]),
                              _FRAME_ROTATIONS)
