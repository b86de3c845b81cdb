"""Dense complex linear algebra kernel for small Hermitian problems.

All operations work on plain ``numpy`` arrays (``complex128``) and are sized
for dimensions up to a few tens.  Exponentials of Hermitian matrices take a
closed form for d <= 2 (a phase, or the SU(2) formula) and go through the
eigendecomposition otherwise; both keep purely-imaginary-scale results
unitary up to rounding.  `expm_stack` exponentiates general (non-normal)
matrices by scaling and squaring.  Every function is pure;
returned arrays are fresh and safe to share across threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateBasis, NonHermitianInput

# Default tolerances; callers may override per call.
HERMITICITY_TOL = 1e-10
CLUSTER_TOL = 1e-8          # eigenvalue clustering, relative to max(1, |H|)
GRAM_CONDITION_LIMIT = 1e12


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation |m - m^dag| (of any matrix, for a (K, d, d) stack)."""
    return float(np.abs(m - np.swapaxes(m, -1, -2).conj()).max())


def assert_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL, what: str = "matrix"):
    defect = hermiticity_defect(m)
    if defect > tol:
        raise NonHermitianInput(f"{what} is not Hermitian: defect {defect:.3e} > {tol:.1e}")


def _checked_hermitian_stack(ms, herm_tol: float = HERMITICITY_TOL, what: str = "matrix") -> np.ndarray:
    """`ms` as a complex (K, d, d) stack, checked to be square, finite (ValueError) and Hermitian to `herm_tol`."""
    ms = np.asarray(ms, dtype=complex)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ValueError(f"expected a (K, d, d) stack of square matrices, got shape {ms.shape}")
    if not np.isfinite(ms).all():
        raise ValueError(f"{what} has non-finite entries")
    assert_hermitian(ms, herm_tol, what)
    return ms


def hermitian_eigendecomposition(m, herm_tol: float = HERMITICITY_TOL):
    """Checked eigendecomposition ``(w, v)`` of one Hermitian matrix.

    `w` holds the eigenvalues in ascending order and the columns of `v` the
    orthonormal eigenvectors.  Raises NonHermitianInput when the Hermiticity
    defect exceeds `herm_tol`.
    """
    w, v = np.linalg.eigh(_checked_hermitian_stack(np.asarray(m)[None], herm_tol))
    return w[0], v[0]


def expm_hermitian(h, scale: complex, herm_tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Checked exp(scale * h) for one Hermitian h; unitary up to rounding for purely imaginary ``scale``."""
    return expm_hermitian_stack(_checked_hermitian_stack(np.asarray(h)[None], herm_tol), scale)[0]


def expm_hermitian_stack(hs: np.ndarray, scale) -> np.ndarray:
    """Batched exp(scale * h) over a stack of Hermitian matrices (K, d, d).

    `scale` is a scalar or a length-K array (one scale per matrix).
    Unchecked fast path used by the propagators; callers guarantee
    Hermiticity (symmetrized inputs).  d = 1 is a phase; d = 2 is
    e^{s c} (cosh(s n) 1 + sinh(s n) / n (h - c 1)), c = tr(h) / 2 and
    n = |h - c 1|_F / sqrt(2); larger d goes through the eigendecomposition.
    """
    s = np.asarray(scale)
    if hs.shape[-1] > 2:
        w, v = np.linalg.eigh(hs)
        phases = np.exp(s * w) if s.ndim == 0 else np.exp(s[:, None] * w)
        return (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)
    s = s if s.ndim == 0 else s[:, None, None]
    if hs.shape[-1] == 1:
        return np.exp(s * hs.real, dtype=complex)
    c = 0.5 * np.trace(hs, axis1=-2, axis2=-1).real[:, None, None]
    traceless = hs - c * np.eye(2)
    z = s * np.sqrt(0.5 * (np.abs(traceless) ** 2).sum(axis=(-2, -1)))[:, None, None]
    return np.exp(s * c) * (np.cosh(z) * np.eye(2) + s * np.sinc(1j * z / np.pi) * traceless)


# Diagonal Pade degrees m with the largest 1-norm theta_m at which the
# degree-m approximant of exp reaches double-precision unit roundoff
# (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3).
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1), (7, 9.504178996162932e-1),
               (9, 2.097847961257068e0), (13, 5.371920351148152e0))


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """Degree-m diagonal Pade approximant of exp over a (K, n, n) stack: (V - U)^-1 (V + U).

    U = a * sum_j b_{2j+1} a^{2j} and V = sum_j b_{2j} a^{2j} with the
    coefficients b_j = (2m - j)! m! / ((2m)! j! (m - j)!).
    """
    f = math.factorial
    b = [f(2 * m - j) * f(m) / (f(2 * m) * f(j) * f(m - j)) for j in range(m + 1)]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    power, u, v = a2, b[1] * eye + b[3] * a2, b[0] * eye + b[2] * a2
    for j in range(2, m // 2 + 1):
        power = power @ a2
        u = u + b[2 * j + 1] * power
        v = v + b[2 * j] * power
    u = a @ u
    return np.linalg.solve(v - u, v + u)


def expm_stack(a: np.ndarray) -> np.ndarray:
    """Batched exp(a) over a (K, n, n) stack of arbitrary (also non-normal) complex matrices.

    Scaling and squaring with a diagonal Pade approximant (Higham 2005).
    One degree and one number of squarings serve the whole stack; both are
    chosen from its largest 1-norm, so a stack should hold matrices of
    similar size.  Numpy only; raises ValueError on non-finite entries.
    """
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not np.isfinite(norm):
        raise ValueError("matrix has non-finite entries")
    for m, theta in _PADE_THETA[:-1]:
        if norm <= theta:
            return _pade(a, m)
    squarings = max(0, int(np.ceil(np.log2(norm / _PADE_THETA[-1][1]))))
    x = _pade(a / 2.0**squarings, 13)
    for _ in range(squarings):
        x = x @ x
    return x


def _spectral_norms(ms) -> np.ndarray:
    """Largest singular value of every matrix of a (..., m, n) stack, as sqrt of the top eigenvalue of m^dag m."""
    ms = np.asarray(ms, dtype=complex)
    if ms.size == 0:
        return np.zeros(ms.shape[:-2])
    top = np.linalg.eigvalsh(ms.conj().swapaxes(-1, -2) @ ms)[..., -1]
    return np.sqrt(np.maximum(top, 0.0))


def spectral_norm(m) -> float:
    """Largest singular value, as sqrt of the top eigenvalue of m^dag m."""
    return float(_spectral_norms(m))


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).sum())


def trace_distance(a, b) -> float:
    """(1/2) trace norm of the difference; standard state distinguishability."""
    return 0.5 * trace_norm(np.asarray(a) - np.asarray(b))


def _compress(q: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Q^dag M Q for every M of a (K, d, d) stack, as two BLAS products (a batched matmul pays per matrix)."""
    mq = (ms.reshape(-1, ms.shape[-1]) @ q).reshape(ms.shape[0], -1, q.shape[1]).swapaxes(0, 1)
    return (q.conj().T @ mq.reshape(q.shape[0], -1)).reshape(q.shape[1], ms.shape[0], -1).swapaxes(0, 1)


def _range_basis(p: np.ndarray) -> np.ndarray:
    """(d, r) orthonormal basis of the range of the orthogonal projector `p` (its eigenvectors at eigenvalue 1)."""
    w, v = np.linalg.eigh(p)
    return v[:, w > 0.5]


def projector_from_basis(vectors, gram_condition_limit: float = GRAM_CONDITION_LIMIT) -> np.ndarray:
    """Orthogonal projector matrix onto the span of `vectors`.

    The vectors are orthonormalized internally, so they only need to be
    linearly independent; the result is Hermitian and idempotent to
    rounding, with trace len(vectors).  Raises DegenerateBasis when the Gram
    matrix condition number exceeds `gram_condition_limit`.
    """
    cols = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    gram = cols.conj().T @ cols
    gw = np.linalg.eigvalsh(gram)
    if gw[0] <= 0 or gw[-1] / gw[0] > gram_condition_limit:
        raise DegenerateBasis(
            f"input vectors are numerically dependent (Gram condition {gw[-1] / max(gw[0], 1e-300):.3e})"
        )
    q, _ = np.linalg.qr(cols)
    p = q @ q.conj().T
    return 0.5 * (p + p.conj().T)


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Seeded dense Hermitian test matrix with O(`scale`) entries."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded Haar-ish random normalized state vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 of two density matrices."""
    w, v = hermitian_eigendecomposition(rho, herm_tol=1e-8)
    w = np.where(w > 1e-13 * max(1.0, w.max(initial=0.0)), w, 0.0)
    sq = (v * np.sqrt(w)) @ v.conj().T
    inner = sq @ sigma @ sq
    iw = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    iw = np.where(iw > 1e-13 * max(1.0, iw.max(initial=0.0)), iw, 0.0)
    return float(np.sqrt(iw).sum() ** 2)
