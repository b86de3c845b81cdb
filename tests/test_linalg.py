import numpy as np
import pytest

from zenogate.errors import DegenerateBasis, NonHermitianInput
from zenogate import linalg
from zenogate.linalg import (
    expm_hermitian,
    expm_hermitian_stack,
    expm_stack,
    hermitian_eigendecomposition,
    hermiticity_defect,
    projector_from_basis,
    random_hermitian,
    random_state,
    spectral_norm,
    state_fidelity,
    trace_distance,
    trace_norm,
)
from zenogate.spectral import three_level_eigenbasis, three_level_generators


# ---------------------------------------------------------------------------
# Independent oracles (kept deliberately dumb and separate from the kernel)
# ---------------------------------------------------------------------------

def expm_taylor(m, terms=120):
    """Plain power-series exponential; valid for moderate norms."""
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def power_iteration_norm(m, iters=2000, seed=0):
    """Largest singular value via power iteration on m^dag m."""
    rng = np.random.default_rng(seed)
    g = m.conj().T @ m
    v = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
    v = v / np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = g @ v
        lam = np.linalg.norm(w)
        if lam == 0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


class TestEigendecomposition:
    def test_diagonal(self):
        w, v = hermitian_eigendecomposition(np.diag([0.0, 0.0, 2.0]).astype(complex))
        assert w.tolist() == [0.0, 0.0, 2.0]
        # the degenerate pair spans the (e1, e2) plane; the top vector is e3
        assert np.allclose(np.abs(v[:, 2]), [0, 0, 1], atol=1e-12)

    def test_three_level_at_theta0(self):
        h = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=complex)
        w, _ = hermitian_eigendecomposition(h)
        assert np.allclose(w, [0.0, 0.0, 2.0], atol=1e-12)

    def test_reconstruction_oracle_8x8(self, rng):
        h = random_hermitian(8, rng, scale=3.0)
        w, v = hermitian_eigendecomposition(h)
        rebuilt = sum(w[i] * np.outer(v[:, i], v[:, i].conj()) for i in range(8))
        assert spectral_norm(h - rebuilt) <= 1e-9 * spectral_norm(h)

    def test_orthonormal_eigenvectors(self, rng):
        h = random_hermitian(6, rng)
        _, v = hermitian_eigendecomposition(h)
        assert spectral_norm(v.conj().T @ v - np.eye(6)) <= 1e-10

    def test_ascending_order(self, rng):
        h = random_hermitian(7, rng)
        w, _ = hermitian_eigendecomposition(h)
        assert w.tolist() == sorted(w.tolist())

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestExpmHermitian:
    def test_zero_generator(self):
        assert np.allclose(expm_hermitian(np.zeros((4, 4)), -3.7j), np.eye(4), atol=1e-14)

    def test_diagonal_exponential(self):
        out = expm_hermitian(np.diag([0.0, 2.0]).astype(complex), -1j * np.pi / 2)
        assert np.allclose(out, np.diag([1.0, np.exp(-1j * np.pi)]), atol=1e-12)

    def test_subspace_generator_vs_taylor_oracle(self, gens):
        scale = 1j * np.sqrt(2) * np.pi
        ours = expm_hermitian(gens.subspace_generator, scale)
        oracle = expm_taylor(scale * gens.subspace_generator)
        assert spectral_norm(ours - oracle) <= 1e-10

    def test_random_vs_taylor_oracle(self, rng):
        for _ in range(10):
            h = random_hermitian(5, rng)
            s = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert spectral_norm(expm_hermitian(h, s) - expm_taylor(s * h)) <= 1e-9

    def test_unitarity_for_imaginary_scale(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            h = random_hermitian(dim, rng, scale=float(rng.uniform(0.1, 4.0)))
            u = expm_hermitian(h, 1j * float(rng.uniform(-5, 5)))
            assert spectral_norm(u.conj().T @ u - np.eye(dim)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def expm_eigh(hs, scale):
    """exp(scale * h) per matrix through numpy's eigh: the path the d <= 2 closed forms replace."""
    w, v = np.linalg.eigh(hs)
    phases = np.exp(np.reshape(scale, (-1, 1)) * w)
    return np.einsum("kij,kj,klj->kil", v, phases, v.conj())


class TestExpmHermitianStackClosedForms:
    @pytest.mark.parametrize("scale", ["scalar", "per_matrix"])
    @pytest.mark.parametrize("stack", ["zero", "degenerate", "random"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_eigh(self, rng, dim, stack, scale):
        k = 64
        hs = {
            "zero": np.zeros((k, dim, dim), dtype=complex),
            "degenerate": rng.uniform(-2.0, 2.0, k)[:, None, None] * np.eye(dim, dtype=complex),  # gap r = 0
            "random": np.stack([random_hermitian(dim, rng, scale=float(rng.uniform(0.1, 1.0))) for _ in range(k)]),
        }[stack]
        s = -1j * (0.7 if scale == "scalar" else rng.uniform(-2.0, 2.0, k))
        assert np.abs(expm_hermitian_stack(hs, s) - expm_eigh(hs, s)).max() <= 1e-14

    @pytest.mark.parametrize("dim", [1, 2])
    def test_real_and_complex_scales(self, rng, dim):
        hs = np.stack([random_hermitian(dim, rng, scale=0.5) for _ in range(32)])
        for s in (0.8, 0.3 - 0.9j, rng.uniform(-1.0, 1.0, 32) + 1j * rng.uniform(-1.0, 1.0, 32)):
            assert np.abs(expm_hermitian_stack(hs, s) - expm_eigh(hs, s)).max() <= 1e-14


class TestExpmStack:
    # one 1-norm inside each Pade degree's range, then one that needs squarings
    NORMS = [0.9 * theta for _, theta in linalg._PADE_THETA] + [40.0 * linalg._PADE_THETA[-1][1]]

    @pytest.mark.parametrize("norm", NORMS, ids=[f"pade{m}" for m, _ in linalg._PADE_THETA] + ["squaring"])
    def test_matches_hermitian_exponential(self, rng, norm):
        hs = np.stack([random_hermitian(3, rng, scale=float(rng.uniform(0.2, 1.0))) for _ in range(16)])
        hs *= norm / np.abs(hs).sum(axis=-2).max()
        assert np.abs(expm_stack(-1j * hs) - expm_hermitian_stack(hs, -1j)).max() <= 1e-13

    def test_nilpotent_jordan_block(self):
        out = expm_stack(np.array([[[0.0, 1.0], [0.0, 0.0]]]))
        assert np.array_equal(out, np.array([[[1.0, 1.0], [0.0, 1.0]]]))

    def test_inverse_of_non_normal_matrices(self, rng):
        for norm in (0.1, 1.0, 4.0, 30.0):
            a = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
            a *= norm / np.abs(a).sum(axis=-2).max()
            a = np.triu(a, 1) + 0.1 * a  # far from normal
            prod = expm_stack(a) @ expm_stack(-a)
            assert np.abs(prod - np.eye(4)).max() <= 1e-11

    def test_non_normal_vs_taylor_oracle(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = np.triu(a) * 0.5
        assert spectral_norm(expm_stack(a[None])[0] - expm_taylor(a)) <= 1e-12 * spectral_norm(expm_taylor(a))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            expm_stack(np.array([[[np.nan, 0.0], [0.0, 1.0]]]))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0, abs=1e-12)

    def test_against_power_iteration_oracle(self, rng):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert spectral_norm(m) == pytest.approx(power_iteration_norm(m), abs=1e-8)

    def test_submultiplicative(self, rng):
        for _ in range(50):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-9


class TestProjectorFromBasis:
    def test_single_basis_vector(self):
        p = projector_from_basis([np.array([1.0, 0.0, 0.0])])
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(p, np.diag([1.0, 0.0, 0.0]), atol=1e-14)

    def test_three_level_degenerate_subspace(self):
        _, e_minus, e_zero = three_level_eigenbasis(0.0)
        p = projector_from_basis([e_zero, e_minus])
        assert np.trace(p).real == pytest.approx(2.0, abs=1e-8)
        # matches the spectral projector of H(1, 0) onto the zero eigenspace
        h = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=complex)
        assert spectral_norm(h @ p) <= 1e-12

    def test_non_orthogonal_inputs(self):
        v1 = np.array([1.0, 0.0, 0.0])
        v2 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        p = projector_from_basis([v1, v2])
        assert np.trace(p).real == pytest.approx(2.0, abs=1e-8)
        assert spectral_norm(p @ p - p) <= 1e-10

    def test_invariants_random(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            count = int(rng.integers(1, dim + 1))
            p = projector_from_basis([random_state(dim, rng) for _ in range(count)])
            assert spectral_norm(p @ p - p) <= 1e-10
            assert hermiticity_defect(p) <= 1e-12
            assert abs(np.trace(p).real - count) <= 1e-8

    def test_degenerate_basis_rejected(self):
        v = np.array([1.0, 2.0, 0.0])
        with pytest.raises(DegenerateBasis):
            projector_from_basis([v, v * (1 + 1e-15)])


class TestMetrics:
    def test_trace_norm_of_coherence(self):
        m = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert trace_norm(m) == pytest.approx(1.0, abs=1e-12)

    def test_trace_distance_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_state_fidelity_pure(self, rng):
        v = random_state(4, rng)
        w = random_state(4, rng)
        rho = np.outer(v, v.conj())
        sig = np.outer(w, w.conj())
        assert state_fidelity(rho, sig) == pytest.approx(abs(v.conj() @ w) ** 2, abs=1e-10)
        assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_subspace_generator_algebra(gens, projs0):
    """The subspace generator is a Hermitian involution on the rank-2 eigenspace."""
    g0 = gens.subspace_generator
    p0 = projs0[0]
    assert spectral_norm(g0 - g0.conj().T) <= 1e-14
    assert abs(np.trace(g0)) <= 1e-14
    assert spectral_norm(g0 @ g0 @ g0 - g0) <= 1e-12
    assert spectral_norm(g0 @ g0 - p0) <= 1e-12


class TestEntryMajorExpm:
    """For n <= 3 `expm_stack` runs entry-major: every Pade degree and the squaring branch against the eigh route."""

    NORMS = [1e-3, 1e-2, 0.2, 0.9, 2.0, 5.0, 30.0, 1e3]  # degrees 3, 3, 5, 7, 9, 13, then 3 and 8 squarings

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_eigh_route(self, rng, dim, norm):
        """Within 4e-15 max(1, |A|_1) of `expm_hermitian_stack`, and unitary to that too (both measured at most
        2.7e-13 at |A|_1 = 1e3 and 1.1e-15 below 5); below 5.37, where nothing is squared, unitary to 2e-15."""
        hs = np.stack([random_hermitian(dim, rng, scale=float(rng.uniform(0.2, 1.0))) for _ in range(40)])
        hs *= norm / np.abs(hs).sum(axis=-2).max()
        got = expm_stack(-1j * hs)
        bound = 4e-15 * max(1.0, norm)
        assert np.abs(got - expm_hermitian_stack(hs, -1j)).max() <= bound
        defect = np.abs(got @ got.conj().swapaxes(-1, -2) - np.eye(dim)).max()
        assert defect <= (2e-15 if norm <= linalg._PADE_THETA[-1][1] else bound)
        assert got.transpose(1, 2, 0).flags.c_contiguous  # the (K, n, n) view of one entry-major array

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_solve_matches_numpy(self, rng, dim):
        """Cramer's rule loses accuracy with the condition number (the Pade denominators V - U it meets have small
        ones): each solution within 1e-15 cond(q) of np.linalg.solve, relative to its largest entry."""
        q = rng.normal(size=(200, dim, dim)) + 1j * rng.normal(size=(200, dim, dim))
        p = rng.normal(size=(200, dim, dim)) + 1j * rng.normal(size=(200, dim, dim))
        got = linalg._entry_major_solve(q.transpose(1, 2, 0), p.transpose(1, 2, 0)).transpose(2, 0, 1)
        want = np.linalg.solve(q, p)
        scale = np.linalg.cond(q) * np.abs(want).max(axis=(1, 2))
        assert (np.abs(got - want).max(axis=(1, 2)) <= 1e-15 * scale).all()


def hermitian_basis(dim):
    """The (d^2, d, d) basis matrices B_m behind `linalg._hermitian_coordinates`: the lifts of the unit vectors."""
    return linalg._hermitian_lift(np.eye(dim * dim))


class TestHermitianCoordinates:
    """Real coordinates x_m = tr(B_m rho) in an orthonormal basis of Hermitian matrices: the dissipative engine's."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_round_trip_real_orthonormal_and_trace(self, rng, dim):
        basis = hermitian_basis(dim)
        assert hermiticity_defect(basis) == 0.0
        gram = np.einsum("mij,nji->mn", basis, basis)
        assert np.abs(gram - np.eye(dim * dim)).max() <= 1e-15
        rhos = np.stack([random_hermitian(dim, rng) for _ in range(8)])
        x = linalg._hermitian_coordinates(rhos)
        assert x.dtype == np.float64 and x.shape == (8, dim * dim)
        assert np.abs(x - np.einsum("mij,kji->km", basis, rhos).real).max() <= 1e-14
        assert np.abs(linalg._hermitian_lift(x) - rhos).max() <= 1e-15
        y = rng.standard_normal((8, dim * dim))
        assert np.abs(linalg._hermitian_coordinates(linalg._hermitian_lift(y)) - y).max() <= 1e-15
        assert np.abs(x[:, :dim].sum(axis=1) - np.trace(rhos, axis1=1, axis2=2).real).max() <= 1e-14

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 10])
    def test_commutator_gathers_match_the_dense_superoperator(self, rng, dim):
        """Two gathers of kappa's coordinates give B (-i ad kappa) B^dag (B rows conj(vec(B_m))) to 1e-15 |kappa|,
        from index tables of d^4 entries: nothing per run grows as d^6."""
        b = hermitian_basis(dim).reshape(dim * dim, -1).conj()
        eye = np.eye(dim)
        for _ in range(3):
            kappa = random_hermitian(dim, rng, scale=float(rng.uniform(0.1, 10.0)))
            dense = b @ (-1j * (np.kron(kappa, eye) - np.kron(eye, kappa.T))) @ b.conj().T
            got = linalg._commutator_coordinates(linalg._hermitian_coordinates(kappa))
            assert got.dtype == np.float64
            assert np.abs(got - dense).max() <= 1e-15 * np.abs(kappa).max()
        idx, w = linalg._commutator_gathers(dim)
        assert idx.shape == w.shape == (2, dim**2, dim**2)
        s = rng.standard_normal((dim**2, dim**2)) + 1j * rng.standard_normal((dim**2, dim**2))
        assert np.abs(linalg._real_superoperator(s) - (b @ s @ b.conj().T).real).max() <= 1e-14 * np.abs(s).max()

    NORMS = TestEntryMajorExpm.NORMS

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 9])
    def test_expm_stack_keeps_real_stacks_real(self, rng, dim, norm):
        """float64 in, float64 out, within 1e-15 max(1, |A|_1) of the complex route; the contractive stacks (skew
        plus negative semidefinite, as a dephasing generator) keep the results bounded through the squarings."""
        a = rng.standard_normal((40, dim, dim))
        c = rng.standard_normal((40, dim, dim))
        a = a - a.swapaxes(-1, -2) - 0.5 * c @ c.swapaxes(-1, -2)
        a *= norm / np.abs(a).sum(axis=-2).max()
        got = expm_stack(a)
        assert got.dtype == np.float64
        assert np.abs(got - expm_stack(a.astype(complex))).max() <= 1e-15 * max(1.0, norm)
