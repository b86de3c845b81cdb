import numpy as np
import pytest

from zenogate.errors import DegenerateBasis, NonHermitianInput
from zenogate.linalg import (
    expm_hermitian,
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
