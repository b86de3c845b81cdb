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

from . import linalg
from .errors import (
    CriticalPoint,
    InsufficientSamples,
    OpenPath,
    SubspaceTrackingFailure,
)
from .linalg import CLUSTER_TOL, Projector, spectral_norm

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
class SpectralDecomposition:
    """Instantaneous energies and eigenprojectors, ordered by energy."""

    energies: tuple
    projectors: tuple

    @property
    def nlevels(self) -> int:
        return len(self.energies)

    @property
    def dim(self) -> int:
        return self.projectors[0].dim

    def defects(self) -> dict:
        """Deviation from completeness and mutual orthogonality."""
        total = sum(p.matrix for p in self.projectors)
        completeness = spectral_norm(total - np.eye(self.dim))
        ortho = 0.0
        for i in range(self.nlevels):
            for j in range(i + 1, self.nlevels):
                ortho = max(ortho, spectral_norm(self.projectors[i].matrix @ self.projectors[j].matrix))
        return {"completeness": completeness, "orthogonality": ortho}


def instantaneous_spectrum(h, cluster_tol: float = CLUSTER_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix with eigenvalue clustering.

    Eigenvalues closer than ``cluster_tol * max(1, |H|)`` are merged into a
    single degenerate level and share one projector.
    """
    w, v = linalg._eigh(h)
    tol = cluster_tol * max(1.0, float(np.abs(w).max(initial=0.0)))
    energies = []
    projectors = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol:
            block = v[:, start:i]
            p = block @ block.conj().T
            p = 0.5 * (p + p.conj().T)
            energies.append(float(w[start:i].mean()))
            projectors.append(Projector(matrix=p, rank=i - start))
            start = i
    return SpectralDecomposition(energies=tuple(energies), projectors=tuple(projectors))


@dataclass(frozen=True)
class FramePath:
    """Sampled unitary family W(t_k) with the initial projectors it transports.

    frames[k] maps the range of projectors0[n] onto the instantaneous n-th
    eigenspace at times[k]; frames[0] is the identity.
    """

    times: np.ndarray
    frames: np.ndarray
    projectors0: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.frames, dtype=complex)
        if f.ndim != 3 or f.shape[0] != t.size:
            raise ValueError("frames must be a (len(times), d, d) stack")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "frames", f)

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    @property
    def nlevels(self) -> int:
        return len(self.projectors0)

    def projector_path(self, level: int) -> np.ndarray:
        """Stack of transported projectors W(t_k) P_n(0) W(t_k)^dag."""
        p0 = self.projectors0[level].matrix
        return np.einsum("kij,jl,kml->kim", self.frames, p0, self.frames.conj())


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


def frame_path_from_spectra(times, spectra) -> FramePath:
    """Build W(t_k) from instantaneous spectral decompositions by subspace tracking.

    Levels are matched between consecutive samples by projector overlap (not
    by energy order), and within each matched eigenspace the incremental
    rotation is the polar factor of the projected, frame-transported basis:
    maximal-overlap continuity.  Raises SubspaceTrackingFailure when level
    counts/ranks change or the overlap drops to 1/2 or below (level crossing
    or too-coarse sampling).
    """
    times = np.asarray(times, dtype=float)
    spectra = list(spectra)
    if times.size != len(spectra) or times.size < 1:
        raise ValueError("need one spectral decomposition per time sample")
    first = spectra[0]
    dim = first.dim
    nlev = first.nlevels
    ranks = [p.rank for p in first.projectors]

    # Orthonormal bases of the initial eigenspaces; transported in step.
    bases = []
    for p in first.projectors:
        w, v = np.linalg.eigh(p.matrix)
        bases.append(v[:, w > 0.5].copy())
    bases0 = [b.copy() for b in bases]

    frames = np.empty((times.size, dim, dim), dtype=complex)
    frames[0] = np.eye(dim)
    prev_projs = [p.matrix for p in first.projectors]

    for k in range(1, times.size):
        spec = spectra[k]
        if spec.nlevels != nlev:
            raise SubspaceTrackingFailure(
                f"level count changed from {nlev} to {spec.nlevels} at sample {k}"
            )
        cand = [p.matrix for p in spec.projectors]
        cand_ranks = [p.rank for p in spec.projectors]
        used = set()
        new_projs = [None] * nlev
        for n in range(nlev):
            overlaps = [
                -1.0 if j in used else spectral_norm(cand[j] @ prev_projs[n])
                for j in range(nlev)
            ]
            j = int(np.argmax(overlaps))
            if overlaps[j] <= MIN_TRACKING_OVERLAP:
                raise SubspaceTrackingFailure(
                    f"projector overlap {overlaps[j]:.3f} <= {MIN_TRACKING_OVERLAP} "
                    f"for level {n} at sample {k}"
                )
            if cand_ranks[j] != ranks[n]:
                raise SubspaceTrackingFailure(
                    f"rank changed from {ranks[n]} to {cand_ranks[j]} for level {n} at sample {k}"
                )
            used.add(j)
            new_projs[n] = cand[j]

        w = np.zeros((dim, dim), dtype=complex)
        for n in range(nlev):
            m = new_projs[n] @ bases[n]
            u, s, vh = np.linalg.svd(m, full_matrices=False)
            if s[-1] <= 1e-12:
                raise SubspaceTrackingFailure(
                    f"transported basis lost rank for level {n} at sample {k}"
                )
            bases[n] = u @ vh
            w += bases[n] @ bases0[n].conj().T
        frames[k] = w
        prev_projs = new_projs

    return FramePath(times=times, frames=frames, projectors0=first.projectors)


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


def three_level_eigenbasis(theta, theta0: float = 0.0):
    """Instantaneous eigenvectors (E_plus, E_minus, E_zero) at polar angle(s) `theta`.

    The vectors depend only on `theta`; they equal the `theta0` vectors
    transported by the analytic frame, which is what `theta0` records.
    """
    del theta0  # transported and direct forms coincide identically
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
    """(rank-2 degenerate projector, rank-1 excited projector) at angle theta; matrices stack over an array."""
    p_plus, p_minus, p_zero = (e[..., :, None] * e[..., None, :].conj() for e in three_level_eigenbasis(theta))
    return Projector(matrix=p_minus + p_zero, rank=2), Projector(matrix=p_plus, rank=1)


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
    p0, p1 = three_level_projectors(theta[0])
    return FramePath(times=path.times, frames=frames, projectors0=(p0, p1))


def three_level_spectra_along(path: ParameterPath, cluster_tol: float = CLUSTER_TOL):
    """Instantaneous spectra of the three-level Hamiltonian at every path sample."""
    return [instantaneous_spectrum(h, cluster_tol) for h in three_level_hamiltonian(path.a, path.b)]
