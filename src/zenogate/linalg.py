"""Dense complex linear algebra kernel for small Hermitian problems.

All operations work on plain ``numpy`` arrays (``complex128``) and are sized
for dimensions up to a few tens.  Exponentials of Hermitian matrices take a
closed form for d <= 2 (a phase, or the SU(2) formula) and go through the
eigendecomposition otherwise; both keep purely-imaginary-scale results
unitary up to rounding.  `expm_stack` exponentiates general (non-normal)
matrices by scaling and squaring, for n <= 3 on entry-major (n, n, K) arrays
through `_entry_major_matmul`, the package's one small-matrix product kernel;
a real stack stays real.  `_hermitian_coordinates` gives d x d Hermitian
matrices d^2 real orthonormal coordinates, in which a superoperator that keeps
matrices Hermitian is a real d^2 x d^2 matrix (`_real_superoperator`,
`_commutator_coordinates`); the dissipative engine runs in them.
Pure functions; returned arrays are fresh and safe to share across threads
(the coordinates' index tables are cached per d, shared and read-only).
"""

from __future__ import annotations

import functools
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


def _entry_major_solve(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """q^-1 p over entry-major (n, n, K) stacks with n <= 3, as adj(q) p / det(q) (Cramer's rule)."""
    n = q.shape[0]
    if n == 1:
        return p / q
    if n == 2:
        adj = np.stack([q[1, 1], -q[0, 1], -q[1, 0], q[0, 0]]).reshape(q.shape)
    else:  # cofactors: adj[i, j] = q[j+1, i+1] q[j+2, i+2] - q[j+1, i+2] q[j+2, i+1], indices mod 3
        c = (1, 2, 0, 1)  # c[i], c[i + 1] = i + 1, i + 2 (mod 3)
        adj = np.stack([q[c[j], c[i]] * q[c[j + 1], c[i + 1]] - q[c[j], c[i + 1]] * q[c[j + 1], c[i]]
                        for i in range(3) for j in range(3)]).reshape(q.shape)
    return _entry_major_matmul(adj, p) / (q[0] * adj[:, 0]).sum(axis=0)


# Diagonal Pade degrees m with the largest 1-norm theta_m at which the
# degree-m approximant of exp reaches double-precision unit roundoff
# (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3).
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1), (7, 9.504178996162932e-1),
               (9, 2.097847961257068e0), (13, 5.371920351148152e0))


def _pade(a: np.ndarray, m: int, mul, solve, eye) -> np.ndarray:
    """Degree-m diagonal Pade approximant of exp over a stack: (V - U)^-1 (V + U), by the stack's `mul` and `solve`.

    U = a * sum_j b_{2j+1} a^{2j} and V = sum_j b_{2j} a^{2j} with the
    coefficients b_j = (2m - j)! m! / ((2m)! j! (m - j)!).
    """
    f = math.factorial
    b = [f(2 * m - j) * f(m) / (f(2 * m) * f(j) * f(m - j)) for j in range(m + 1)]
    a2 = mul(a, a)
    power, u, v = a2, b[1] * eye + b[3] * a2, b[0] * eye + b[2] * a2
    for j in range(2, m // 2 + 1):
        power = mul(power, a2)
        u = u + b[2 * j + 1] * power
        v = v + b[2 * j] * power
    u = mul(a, u)
    return solve(v - u, v + u)


def expm_stack(a: np.ndarray) -> np.ndarray:
    """Batched exp(a) over a (K, n, n) stack of arbitrary (also non-normal) real or complex matrices.

    Scaling and squaring with a diagonal Pade approximant (Higham 2005).
    One degree and one number of squarings serve the whole stack; both are
    chosen from its largest 1-norm, so a stack should hold matrices of
    similar size.  Numpy only; raises ValueError on non-finite entries.
    A real stack stays real (float64 in, float64 out, as scipy.linalg.expm);
    anything complex runs in complex128.
    For n <= 3 the products, the solve (Cramer's rule) and the squarings run entry-major, on (n, n, K) arrays
    (np.matmul pays per matrix), and the result is the (K, n, n) view of one, as `adiabatic.ordered_product`
    takes it.  Without squarings, exp of a skew-Hermitian stack is unitary to rounding.
    """
    a = np.asarray(a)
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not np.isfinite(norm):
        raise ValueError("matrix has non-finite entries")
    n = a.shape[-1]
    if n <= 3:
        a = np.ascontiguousarray(a.transpose(1, 2, 0))
        kernel = (_entry_major_matmul, _entry_major_solve, np.eye(n)[..., None])
    else:
        kernel = (np.matmul, np.linalg.solve, np.eye(n))
    squarings = 0
    for m, theta in _PADE_THETA:
        if norm <= theta:
            break
    else:
        squarings = int(np.ceil(np.log2(norm / theta)))
    x = _pade(a / 2.0**squarings if squarings else a, m, *kernel)
    for _ in range(squarings):
        x = kernel[0](x, x)
    return x.transpose(2, 0, 1) if n <= 3 else x


@functools.lru_cache(maxsize=None)
def _hermitian_basis(dim: int) -> tuple:
    """The orthonormal Hermitian basis B_m of d x d matrices behind the real coordinates x_m = tr(B_m rho).

    x = (rho_ii; sqrt(2) Re rho_ij; sqrt(2) Im rho_ij for i < j), so tr rho is the sum of x[:d].  x = Re(T vec(rho))
    for the unitary (d^2, d^2) T with rows conj(vec(B_m)), vec row-major; each row has two slots, coef[m, s] at
    vec position pos[m, s] (a diagonal's second coefficient is 0).  Each vec position p lies in the two slots
    inv_m[p, u], whose conjugated coefficients inv_c[p, u] give rho = T^dag x there.
    """
    i, j = np.triu_indices(dim, 1)
    diag, upper, lower = np.arange(dim) * (dim + 1), i * dim + j, j * dim + i
    pos = np.stack([np.concatenate([diag, upper, upper]), np.concatenate([diag, lower, lower])], axis=1)
    r = np.full(i.size, math.sqrt(0.5))
    coef = np.stack([np.concatenate([np.ones(dim), r, -1j * r]), np.concatenate([np.zeros(dim), r, 1j * r])], axis=1)
    slots = np.argsort(pos.ravel(), kind="stable").reshape(-1, 2)  # every vec position is in exactly two slots
    return _frozen(pos, coef, slots // 2, coef.ravel()[slots].conj())


def _frozen(*arrays) -> tuple:
    """The arrays, read-only: the cached tables are shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _hermitian_coordinates(ms: np.ndarray) -> np.ndarray:
    """The real (..., d^2) coordinates of a (..., d, d) stack's Hermitian parts (`_hermitian_basis`)."""
    pos, coef, _, _ = _hermitian_basis(ms.shape[-1])
    v = ms.reshape(*ms.shape[:-2], -1)
    return (coef[:, 0] * v[..., pos[:, 0]] + coef[:, 1] * v[..., pos[:, 1]]).real


def _hermitian_lift(x: np.ndarray) -> np.ndarray:
    """The (..., d, d) Hermitian matrices of real coordinates x (..., d^2), inverse to `_hermitian_coordinates`."""
    dim = math.isqrt(x.shape[-1])
    _, _, inv_m, inv_c = _hermitian_basis(dim)
    return (inv_c[:, 0] * x[..., inv_m[:, 0]] + inv_c[:, 1] * x[..., inv_m[:, 1]]).reshape(*x.shape[:-1], dim, dim)


def _real_superoperator(s: np.ndarray) -> np.ndarray:
    """Re(T S T^dag) of a (..., d^2, d^2) superoperator S on row-major vec(rho): S in Hermitian coordinates.

    Where S keeps matrices Hermitian, T S T^dag is real and this is S exactly.  Two gathers of columns, then two
    of rows: O(d^4) per map.
    """
    pos, coef, _, _ = _hermitian_basis(math.isqrt(s.shape[-1]))
    cols = s[..., pos[:, 0]] * coef[:, 0].conj() + s[..., pos[:, 1]] * coef[:, 1].conj()  # S T^dag
    return (coef[:, 0, None] * cols[..., pos[:, 0], :] + coef[:, 1, None] * cols[..., pos[:, 1], :]).real


@functools.lru_cache(maxsize=None)
def _commutator_gathers(dim: int) -> tuple:
    """Index and weight arrays (2, d^2, d^2): -i ad(kappa) in Hermitian coordinates is w[0] x[idx[0]] + w[1] x[idx[1]].

    x are the coordinates of kappa.  Entry [k, l] is tr(kappa (-i)[B_l, B_k]) = sum_m x_m (coordinate m of
    -i[B_l, B_k]), and the commutator of two basis matrices spans at most two of them.  Formed one row k at a time
    from the (d^2, d, d) basis: memory O(d^4), no (d^2, d^4) table.
    """
    n = dim * dim
    idx, w = np.zeros((2, n, n), dtype=np.intp), np.zeros((2, n, n))
    basis = _hermitian_lift(np.eye(n))
    for k, b in enumerate(basis):
        row = _hermitian_coordinates(-1j * (basis @ b - b @ basis))  # [l, m]: coordinate m of -i[B_l, B_k]
        l, m = np.nonzero(np.abs(row) > 1e-12)
        slot = np.concatenate([[0], l[1:] == l[:-1]]).astype(np.intp)  # an entry's second coordinate: slot 1
        idx[slot, k, l], w[slot, k, l] = m, row[l, m]
    return _frozen(idx, w)


def _commutator_coordinates(x: np.ndarray) -> np.ndarray:
    """-i ad(kappa) as a real (..., d^2, d^2) map on Hermitian coordinates, for kappa of coordinates x (..., d^2)."""
    idx, w = _commutator_gathers(math.isqrt(x.shape[-1]))
    return w[0] * x[..., idx[0]] + w[1] * x[..., idx[1]]


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
