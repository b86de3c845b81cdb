"""Dense complex linear algebra kernel for small Hermitian problems.

All operations work on plain ``numpy`` arrays (``complex128``) and are sized
for dimensions up to a few tens.  Matrix exponentials go through the
Hermitian eigendecomposition, which keeps purely-imaginary-scale results
unitary up to eigensolver error.  Every function is pure; returned arrays
are fresh and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _eigh_stack(ms, herm_tol: float = HERMITICITY_TOL):
    """Checked Hermitian eigendecompositions of a (K, d, d) stack, ascending eigenvalues per matrix.

    The one place that checks matrices before eigh: square, finite entries,
    Hermitian to `herm_tol`.
    """
    ms = np.asarray(ms, dtype=complex)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ValueError(f"expected a (K, d, d) stack of square matrices, got shape {ms.shape}")
    if not np.isfinite(ms).all():
        raise ValueError("matrix has non-finite entries")
    assert_hermitian(ms, herm_tol)
    return np.linalg.eigh(ms)


def _eigh(m: np.ndarray, herm_tol: float = HERMITICITY_TOL):
    """Checked Hermitian eigendecomposition, ascending eigenvalues."""
    w, v = _eigh_stack(np.asarray(m)[None], herm_tol)
    return w[0], v[0]


def hermitian_eigendecomposition(m, herm_tol: float = HERMITICITY_TOL):
    """Eigendecompose a Hermitian matrix.

    Returns a list of ``(eigenvalue, eigenvector)`` pairs in ascending
    eigenvalue order with orthonormal eigenvectors.  Raises
    NonHermitianInput when the Hermiticity defect exceeds `herm_tol`.
    """
    w, v = _eigh(m, herm_tol)
    return [(float(w[i]), v[:, i].copy()) for i in range(len(w))]


def expm_hermitian(h, scale: complex, herm_tol: float = HERMITICITY_TOL) -> np.ndarray:
    """exp(scale * h) for Hermitian h, via eigendecomposition.

    For purely imaginary ``scale`` the result is unitary up to eigensolver
    error.
    """
    w, v = _eigh(h, herm_tol)
    return (v * np.exp(scale * w)) @ v.conj().T


def expm_hermitian_stack(hs: np.ndarray, scale) -> np.ndarray:
    """Batched exp(scale * h) over a stack of Hermitian matrices (K, d, d).

    `scale` is a scalar or a length-K array (one scale per matrix).
    Unchecked fast path used by the propagators; callers guarantee
    Hermiticity (symmetrized inputs).
    """
    w, v = np.linalg.eigh(hs)
    scale = np.asarray(scale)
    phases = np.exp(scale * w) if scale.ndim == 0 else np.exp(scale[:, None] * w)
    return np.einsum("kij,kj,klj->kil", v, phases, v.conj())


def spectral_norm(m) -> float:
    """Largest singular value, as sqrt of the top eigenvalue of m^dag m."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0.0
    top = np.linalg.eigvalsh(m.conj().T @ m)[-1]
    return float(np.sqrt(max(top, 0.0)))


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).sum())


def trace_distance(a, b) -> float:
    """(1/2) trace norm of the difference; standard state distinguishability."""
    return 0.5 * trace_norm(np.asarray(a) - np.asarray(b))


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector together with its rank.

    Invariants (validated by :func:`projector_from_basis` and checked in the
    invariant suite): P^2 = P to 1e-10, P = P^dag to 1e-12, trace(P) within
    1e-8 of `rank`.
    """

    matrix: np.ndarray
    rank: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def defects(self) -> dict:
        """Numerical deviation from the projector invariants."""
        p = self.matrix
        return {
            "idempotency": spectral_norm(p @ p - p),
            "hermiticity": hermiticity_defect(p),
            "trace": abs(float(np.trace(p).real) - self.rank),
        }


def projector_from_basis(vectors, gram_condition_limit: float = GRAM_CONDITION_LIMIT) -> Projector:
    """Orthogonal projector onto the span of `vectors`.

    The vectors are orthonormalized internally, so they only need to be
    linearly independent.  Raises DegenerateBasis when the Gram matrix
    condition number exceeds `gram_condition_limit`.
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
    p = 0.5 * (p + p.conj().T)
    return Projector(matrix=p, rank=cols.shape[1])


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
    w, v = _eigh(rho, herm_tol=1e-8)
    w = np.where(w > 1e-13 * max(1.0, w.max(initial=0.0)), w, 0.0)
    sq = (v * np.sqrt(w)) @ v.conj().T
    inner = sq @ sigma @ sq
    iw = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    iw = np.where(iw > 1e-13 * max(1.0, iw.max(initial=0.0)), iw, 0.0)
    return float(np.sqrt(iw).sum() ** 2)
