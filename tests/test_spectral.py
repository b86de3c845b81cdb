import numpy as np
import pytest

from zenogate.errors import CriticalPoint, OpenPath, SubspaceTrackingFailure
from zenogate.linalg import expm_hermitian, spectral_norm
from zenogate.spectral import (
    OperatorPath,
    ParameterPath,
    SpectrumStack,
    circle_path,
    frame_path_analytic_three_level,
    frame_path_from_spectra,
    instantaneous_spectra,
    instantaneous_spectrum,
    polyline_path,
    three_level_eigenbasis,
    three_level_generators,
    three_level_hamiltonian,
    three_level_projectors,
    winding_number,
)


class TestThreeLevelHamiltonian:
    def test_theta_zero(self):
        assert np.allclose(
            three_level_hamiltonian(1.0, 0.0),
            np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]]),
            atol=1e-14,
        )

    def test_theta_half_pi(self):
        assert np.allclose(
            three_level_hamiltonian(0.0, 1.0),
            np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]]),
            atol=1e-14,
        )

    def test_eigenvalues_at_radius_5(self):
        w = np.linalg.eigvalsh(three_level_hamiltonian(3.0, 4.0))
        assert np.allclose(w, [0.0, 0.0, 10.0], atol=1e-12)

    def test_critical_point_rejected(self):
        with pytest.raises(CriticalPoint):
            three_level_hamiltonian(0.0, 0.0)


class TestThreeLevelEigenbasis:
    def test_theta_zero_vectors(self):
        ep, em, ez = three_level_eigenbasis(0.0)
        assert np.allclose(ep, np.array([1, 1, 0]) / np.sqrt(2), atol=1e-14)
        assert np.allclose(ez, [0, 0, 1], atol=1e-14)

    def test_theta_half_pi_vectors(self):
        ep, em, ez = three_level_eigenbasis(np.pi / 2)
        assert np.allclose(em, np.array([1, 0, -1]) / np.sqrt(2), atol=1e-14)
        assert np.allclose(ez, [0, -1, 0], atol=1e-14)

    @pytest.mark.parametrize("theta", [-2.3, 0.0, 0.7, np.pi / 2, 3.0])
    def test_orthonormality(self, theta):
        vs = three_level_eigenbasis(theta)
        for i in range(3):
            for j in range(3):
                expected = 1.0 if i == j else 0.0
                assert abs(vs[i].conj() @ vs[j] - expected) <= 1e-14

    @pytest.mark.parametrize("theta", [0.4, 1.9, -2.8])
    def test_frame_transport_identity(self, theta, gens):
        theta0 = 0.0
        w = expm_hermitian(gens.frame_generator, -1j * (theta - theta0))
        moved = three_level_eigenbasis(theta)
        ref = three_level_eigenbasis(theta0)
        for v0, v in zip(ref, moved):
            assert np.abs(w @ v0 - v).max() <= 1e-12

    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_eigen_equations(self, r):
        for theta in np.linspace(-np.pi, np.pi, 17):
            h = three_level_hamiltonian(r * np.cos(theta), r * np.sin(theta))
            ep, em, ez = three_level_eigenbasis(theta)
            assert np.abs(h @ ez).max() <= 1e-10
            assert np.abs(h @ em).max() <= 1e-10
            assert np.abs(h @ ep - 2 * r * ep).max() <= 1e-10


class TestInstantaneousSpectrum:
    def test_three_level_levels(self):
        spec = instantaneous_spectrum(three_level_hamiltonian(1.0, 0.0))
        assert spec.nlevels.tolist() == [2]
        assert spec.energies[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert spec.energies[0, 1] == pytest.approx(2.0, abs=1e-12)
        assert spec.ranks[0].tolist() == [2, 1]

    def test_identity_single_level(self):
        spec = instantaneous_spectrum(np.eye(4, dtype=complex))
        assert spec.nlevels.tolist() == [1]
        assert spec.ranks[0].tolist() == [4]
        assert np.allclose(spec.projectors()[0, 0], np.eye(4), atol=1e-14)

    def test_clustering_by_tolerance(self):
        spec = instantaneous_spectrum(np.diag([0.0, 1e-12, 2.0]).astype(complex), cluster_tol=1e-8)
        assert spec.ranks[0].tolist() == [2, 1]

    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_completeness_and_orthogonality(self, r, rng):
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi)
            p0, p1 = instantaneous_spectrum(three_level_hamiltonian(r * np.cos(theta), r * np.sin(theta))).projectors()[0]
            assert spectral_norm(p0 + p1 - np.eye(3)) <= 1e-9
            assert spectral_norm(p0 @ p1) <= 1e-9


class TestFramePathFromSpectra:
    def test_constant_spectra_gives_identity(self):
        spectra = instantaneous_spectra(three_level_hamiltonian(np.ones(9), np.zeros(9)))
        frames = frame_path_from_spectra(np.linspace(0.0, 1.0, 9), spectra)
        assert np.allclose(frames.frames, np.eye(3)[None], atol=1e-12)

    def test_matches_analytic_up_to_block_gauge(self):
        path = circle_path(windings=1, samples=257)
        spectra = instantaneous_spectra(three_level_hamiltonian(path.a, path.b))
        frames = frame_path_from_spectra(path.times, spectra)
        projectors = spectra.projectors()
        # gauge-invariant content: transported projectors equal the instantaneous ones
        for n in range(2):
            transported = frames.projector_path(n)
            for k in range(0, 257, 32):
                assert spectral_norm(transported[k] - projectors[k, n]) <= 1e-8

    def test_frames_unitary_and_start_at_identity(self):
        path = circle_path(windings=1, samples=129)
        frames = frame_path_from_spectra(path.times, instantaneous_spectra(three_level_hamiltonian(path.a, path.b)))
        assert spectral_norm(frames.frames[0] - np.eye(3)) <= 1e-12
        for k in (1, 64, 128):
            w = frames.frames[k]
            assert spectral_norm(w.conj().T @ w - np.eye(3)) <= 1e-10

    def test_tracks_levels_through_energy_order_swap(self):
        """Levels whose energies cross are matched by overlap, not energy order."""
        # |0> is the lower level at t = 0 and the upper one at t = 1
        spectra = SpectrumStack(energies=np.array([[0.4, 0.6]] * 2), ranks=np.ones((2, 2), dtype=int),
                                vectors=np.array([np.eye(2), np.eye(2)[:, ::-1]], dtype=complex))
        frames = frame_path_from_spectra([0.0, 1.0], spectra)
        # the projectors never move, so the tracked frame stays the identity
        assert np.allclose(frames.frames[1], np.eye(2), atol=1e-12)

    def test_failure_on_coarse_sampling(self):
        """A jump onto a mutually unbiased basis leaves every overlap at 1/2."""
        hadamard = np.array(
            [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
        ) / 2.0
        spectra = SpectrumStack(energies=np.array([[0.0, 1.0, 2.0, 3.0]] * 2), ranks=np.ones((2, 4), dtype=int),
                                vectors=np.array([np.eye(4), hadamard], dtype=complex))
        with pytest.raises(SubspaceTrackingFailure):
            frame_path_from_spectra([0.0, 1.0], spectra)

    def test_failure_on_rank_change(self):
        """A level crossing that reshuffles ranks is rejected, not silently tracked."""
        # ranks (2, 1) over the columns of the identity, then (1, 2)
        spectra = SpectrumStack(energies=np.array([[0.0, 1.0]] * 2), ranks=np.array([[2, 1], [1, 2]]),
                                vectors=np.array([np.eye(3)] * 2, dtype=complex))
        with pytest.raises(SubspaceTrackingFailure):
            frame_path_from_spectra([0.0, 1.0], spectra)


class TestFramePathAnalytic:
    def test_constant_angle_gives_identity(self):
        path = ParameterPath(times=np.linspace(0, 1, 5), a=np.full(5, 2.0), b=np.zeros(5))
        frames = frame_path_analytic_three_level(path)
        assert np.allclose(frames.frames, np.eye(3)[None], atol=1e-14)

    def test_quarter_turn_transports_zero_vector(self):
        theta = np.linspace(0.0, np.pi / 2, 65)
        path = ParameterPath(times=np.linspace(0, 1, 65), a=np.cos(theta), b=np.sin(theta))
        frames = frame_path_analytic_three_level(path)
        moved = frames.frames[-1] @ np.array([0.0, 0.0, 1.0])
        assert np.allclose(moved, [0.0, -1.0, 0.0], atol=1e-12)

    def test_full_circle_is_identity(self):
        path = circle_path(windings=1, samples=129)
        frames = frame_path_analytic_three_level(path)
        assert spectral_norm(frames.frames[-1] - np.eye(3)) <= 1e-10

    def test_agrees_with_expm(self, gens):
        path = circle_path(windings=1, samples=33)
        frames = frame_path_analytic_three_level(path)
        theta = path.theta()
        for k in (0, 7, 20, 32):
            ref = expm_hermitian(gens.frame_generator, -1j * (theta[k] - theta[0]))
            assert spectral_norm(frames.frames[k] - ref) <= 1e-12

    def test_intertwining_exact_family(self):
        path = circle_path(windings=2, samples=257)
        frames = frame_path_analytic_three_level(path)
        theta = path.theta()
        for n in range(2):
            transported = frames.projector_path(n)
            for k in (0, 63, 200, 256):
                ref = three_level_projectors(theta[k])[n]
                assert spectral_norm(transported[k] - ref) <= 1e-8


class TestWindingNumber:
    def test_unit_circle(self):
        assert winding_number(circle_path(windings=1, samples=65)) == 1

    def test_non_enclosing_loop(self):
        assert winding_number(circle_path(center=(3.0, 0.0), radius=1.0, windings=0, samples=65)) == 0

    def test_two_turns(self):
        assert winding_number(circle_path(windings=2, samples=129)) == 2

    def test_clockwise(self):
        assert winding_number(circle_path(windings=-1, samples=65)) == -1

    def test_open_path_rejected(self):
        theta = np.linspace(0.0, np.pi, 33)
        path = ParameterPath(times=np.linspace(0, 1, 33), a=np.cos(theta), b=np.sin(theta))
        with pytest.raises(OpenPath):
            winding_number(path)

    def test_critical_point_rejected(self):
        with pytest.raises(CriticalPoint):
            ParameterPath(times=np.array([0.0, 0.5, 1.0]), a=np.array([1.0, 0.0, 1.0]), b=np.zeros(3))

    def test_reparameterization_invariance(self):
        coarse = circle_path(windings=2, samples=129)
        fine = circle_path(windings=2, samples=1025)
        s = np.linspace(0.0, 1.0, 257)
        warped_t = s**2 * (3 - 2 * s) + np.linspace(0, 1e-9, 257)
        warped_t[0] = 0.0
        theta = 4 * np.pi * s
        warped = ParameterPath(times=warped_t, a=np.cos(theta), b=np.sin(theta))
        assert winding_number(coarse) == winding_number(fine) == winding_number(warped) == 2


class TestPathConstructors:
    def test_circle_requires_consistent_windings(self):
        with pytest.raises(ValueError):
            circle_path(center=(3.0, 0.0), radius=1.0, windings=1)
        with pytest.raises(ValueError):
            circle_path(center=(0.0, 0.0), radius=1.0, windings=0)

    def test_polyline_hits_corners(self):
        path = polyline_path([[1.0, 0.0], [1.0, 1.0], [2.0, 1.0]], samples=9)
        assert path.a[0] == pytest.approx(1.0)
        assert path.b[-1] == pytest.approx(1.0)
        assert path.a[-1] == pytest.approx(2.0)

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            ParameterPath(times=np.array([0.0, 0.0, 1.0]), a=np.ones(3), b=np.zeros(3))

    def test_closed_detection(self):
        assert circle_path(windings=1, samples=65).closed
        theta = np.linspace(0.0, 1.0, 17)
        assert not ParameterPath(
            times=np.linspace(0, 1, 17), a=np.cos(theta), b=np.sin(theta)
        ).closed


class TestGridEvaluation:
    def test_model_functions_stack_over_arrays(self):
        theta = np.linspace(-4.0, 4.0, 33)
        a, b = 0.7 * np.cos(theta), 0.7 * np.sin(theta)
        hs = three_level_hamiltonian(a, b)
        vecs = three_level_eigenbasis(theta)
        projs = three_level_projectors(theta)
        assert hs.shape == projs[0].shape == projs[1].shape == (33, 3, 3)
        for k in range(theta.size):
            assert np.array_equal(hs[k], three_level_hamiltonian(a[k], b[k]))
            for v, ref in zip(vecs, three_level_eigenbasis(theta[k])):
                assert np.array_equal(v[k], ref)
            for p, ref in zip(projs, three_level_projectors(theta[k])):
                assert np.array_equal(p[k], ref)

    def test_critical_point_anywhere_in_an_array(self):
        with pytest.raises(CriticalPoint):
            three_level_hamiltonian(np.array([1.0, 0.0, -1.0]), np.zeros(3))

    def test_operator_path_interpolation(self, rng):
        times = np.array([0.0, 0.5, 2.0])
        ops = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        path = OperatorPath(times=times, operators=ops)
        assert np.array_equal(path.at(times), ops)
        mids = 0.5 * (times[:-1] + times[1:])
        assert np.allclose(path.at(mids), 0.5 * (ops[:-1] + ops[1:]), rtol=0.0, atol=1e-15)
        assert np.array_equal(path.at(np.array([-1.0, 5.0])), ops[[0, -1]])
        assert np.array_equal(path.at(0.5), ops[1])
