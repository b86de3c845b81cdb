import numpy as np
import pytest

from zenogate.errors import CriticalPoint, NonHermitianInput, OpenPath, SubspaceTrackingFailure
from zenogate.adiabatic import ordered_product
from zenogate.linalg import _compress, _range_basis, expm_hermitian, expm_hermitian_stack, random_hermitian, spectral_norm
from zenogate.spectral import (
    FramePath,
    OperatorPath,
    ParameterPath,
    SpectrumStack,
    _circle_controls,
    _knot_path,
    _resampled,
    _rotations,
    _unwrap,
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
    three_level_propagators,
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
        with pytest.raises(CriticalPoint):
            three_level_propagators(np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.array([0.1, 0.1]))

    def test_closed_form_propagators_match_eigh_exponential(self, rng):
        a, b = rng.uniform(-2.0, 2.0, (2, 256))
        dts = rng.uniform(0.0, 0.5, 256)
        reference = expm_hermitian_stack(three_level_hamiltonian(a, b), -1j * dts)
        assert np.abs(three_level_propagators(a, b, dts) - reference).max() <= 1e-14

    def test_closed_form_propagators_where_the_phase_wraps(self, rng):
        """At 2 r dts of many turns the rank-one form still matches the eigh exponential."""
        r, theta = rng.uniform(0.5, 2.0, 256), rng.uniform(-np.pi, np.pi, 256)
        a, b = r * np.cos(theta), r * np.sin(theta)
        dts = rng.uniform(2.0 * np.pi, 7.0, 256)  # 2 r dts from 2 pi to 28
        reference = expm_hermitian_stack(three_level_hamiltonian(a, b), -1j * dts)
        assert np.abs(three_level_propagators(a, b, dts) - reference).max() <= 1e-14

    @pytest.mark.parametrize("shape", [(), (257,), (5, 7)])
    @pytest.mark.parametrize("scalar_dts", [True, False])
    def test_entry_major_propagators_are_the_broadcast_formula_bit_for_bit(self, rng, shape, scalar_dts):
        """The (3, 3, K) build gives the floats of 1 + (half u) u^T broadcast over (K, 3, 3), in that product order."""
        a, b = rng.uniform(-2.0, 2.0, (2,) + shape)
        dts = 0.37 if scalar_dts else rng.uniform(0.0, 0.5, shape)
        r = np.sqrt(a * a + b * b)
        u = np.stack([np.ones_like(r), a / r, b / r], axis=-1)
        half = 0.5 * (np.exp(-2j * r * dts) - 1.0)
        expected = (half[..., None] * u)[..., :, None] * u[..., None, :]
        np.einsum("...ii->...i", expected)[...] += 1.0
        out = three_level_propagators(a, b, dts)
        assert out.shape == shape + (3, 3)
        assert np.array_equal(out, expected)


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

    def test_first_frame_must_be_the_identity(self):
        """Every engine assumes W(0) = 1, so a frame path that starts elsewhere is refused at construction."""
        w = np.stack([expm_hermitian(three_level_generators(0.0).frame_generator, -1j * t) for t in (0.3, 0.6)])
        with pytest.raises(ValueError, match="identity"):
            FramePath(times=[0.0, 1.0], frames=w, projectors0=three_level_projectors(0.0))

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


    @pytest.mark.parametrize("path", [circle_path(center=(0.3, -0.2), radius=1.4, windings=-2, samples=1025),
                                      polyline_path([[1.0, 0.0], [0.0, 2.0], [-1.0, -1.0], [1.0, 0.0]], samples=97)],
                             ids=["offset_circle", "polyline"])
    def test_stack_and_ends_are_the_closed_form_bit_for_bit(self, path, gens):
        frames = frame_path_analytic_three_level(path)
        theta = path.theta()
        g, phi = gens.frame_generator, theta - theta[0]
        stack = _rotations(g)(phi)
        closed = np.eye(3) + (np.cos(phi) - 1.0)[:, None, None] * (g @ g) - 1j * np.sin(phi)[:, None, None] * g
        assert np.array_equal(stack, closed)
        end = frames.final  # read before the stack is built
        assert np.array_equal(frames.frames, stack)
        assert np.array_equal(stack[0], np.eye(3)) and np.array_equal(end, stack[-1])
        assert frames.dim == 3 and frames.nlevels == 2


class TestRotations:
    """spectral._rotations: exp(-i G phi) about one fixed Hermitian G, closed form when G^3 = G, else one eigh."""

    GENERATORS = {
        "plane": lambda rng, gens: gens.frame_generator,
        "subspace": lambda rng, gens: gens.subspace_generator,
        "tiny_plane": lambda rng, gens: 1e-15 * gens.frame_generator,  # G^3 = G only to an absolute 1e-15
        "random": lambda rng, gens: random_hermitian(4, rng, scale=2.0),
        "huge_plane": lambda rng, gens: 1e200 * gens.frame_generator,  # G^2 would overflow: not a plane rotation
    }

    @pytest.mark.parametrize("name", GENERATORS)
    def test_matches_expm_in_full_and_on_a_basis(self, rng, gens, name):
        g = self.GENERATORS[name](rng, gens)
        phis = np.array([0.0, 0.3, -2.1, 7.5, 1e3])
        refs = np.stack([expm_hermitian(g, -1j * phi) for phi in phis])
        rotations = _rotations(g)
        assert np.abs(rotations(phis) - refs).max() <= 1e-12
        q = np.linalg.qr(rng.standard_normal((g.shape[0], 2)) + 1j * rng.standard_normal((g.shape[0], 2)))[0]
        assert np.abs(rotations(phis, q) - q.conj().T @ refs @ q).max() <= 1e-12

    @pytest.mark.parametrize("name, decompositions", [("plane", 0), ("subspace", 0), ("tiny_plane", 1), ("random", 1),
                                                      ("huge_plane", 1)])
    def test_decomposes_only_a_generator_without_closed_form(self, monkeypatch, recording, rng, gens, name,
                                                             decompositions):
        g = self.GENERATORS[name](rng, gens)
        eigh = recording(np.linalg.eigh)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        rotations = _rotations(g)
        rotations(np.linspace(0.0, 5.0, 100))
        rotations(np.linspace(0.0, 5.0, 100), np.eye(g.shape[0])[:, :2])
        assert eigh.shapes == [g.shape] * decompositions

    @pytest.mark.parametrize("count", [1, 64, 4097])
    @pytest.mark.parametrize("rank", [None, 2, 1], ids=["full", "rank2", "rank1"])
    def test_closed_form_is_entry_major_and_the_broadcast_form_bit_for_bit(self, rng, gens, count, rank):
        """The closed form fills a contiguous (r, r, K) array; its (K, r, r) view equals the broadcast form exactly."""
        g = gens.frame_generator
        basis = None if rank is None else _range_basis(three_level_projectors(0.7)[2 - rank])
        g1, sq = (g, g @ g) if basis is None else _compress(basis, np.stack([g, g @ g]))
        phis = rng.uniform(-7.0, 7.0, count)
        c, s = np.cos(phis)[:, None, None], np.sin(phis)[:, None, None]
        broadcast = np.eye(sq.shape[-1]) + (c - 1.0) * sq - 1j * s * g1
        stack = _rotations(g)(phis, basis)
        assert stack.tobytes() == broadcast.tobytes()  # signed zeros too
        assert stack.base.shape == sq.shape + (count,) and stack.base.flags.c_contiguous
        assert ordered_product(stack).tobytes() == ordered_product(broadcast).tobytes()

    def test_rejects_what_is_not_hermitian(self):
        h = np.zeros((3, 3), dtype=complex)
        h[0, 1] = 1.0
        with pytest.raises(NonHermitianInput):
            _rotations(h)
        with pytest.raises(ValueError):
            _rotations(np.eye(3)[:2])


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

    def test_circle_controls_follow_the_sampled_loop(self):
        path = circle_path(center=(0.5, 0.25), radius=2.0, windings=-1, duration=3.0, samples=65)
        a, b = _circle_controls((0.5, 0.25), 2.0, -1)(np.linspace(0.0, 1.0, 65))
        assert np.array_equal(a, path.a) and np.array_equal(b, path.b)
        quarter = _circle_controls((0.5, 0.25), 2.0, -1)(0.25)
        assert quarter == pytest.approx((0.5, 0.25 - 2.0), abs=1e-15)

    def test_polyline_hits_corners(self):
        path = polyline_path([[1.0, 0.0], [1.0, 1.0], [2.0, 1.0]], samples=9)
        assert path.a[0] == pytest.approx(1.0)
        assert path.b[-1] == pytest.approx(1.0)
        assert path.a[-1] == pytest.approx(2.0)

    def test_polyline_side_through_the_critical_point(self):
        """The side from (1, 0) to (-1, 0) meets (0, 0) between corners, where no sample need lie."""
        with pytest.raises(CriticalPoint, match="segment"):
            polyline_path([[1, 0], [-1, 0], [0, 1], [1, 0]], samples=129)

    @pytest.mark.parametrize("samples", [2, 3, 4])
    def test_coarse_grids_keep_the_declared_turns(self, samples):
        """Steps of half a turn or more are read on the loop's own turn, not by unwrapping the samples."""
        square = [[1.3, 0.2], [0.3, 1.2], [-0.7, 0.2], [0.3, -0.8], [1.3, 0.2]]
        for path, turns in ((circle_path(windings=-1, samples=samples), -1), (circle_path(windings=3, samples=samples), 3),
                            (polyline_path(square, samples=samples), 1)):
            theta = path.theta()
            assert theta[-1] - theta[0] == pytest.approx(2 * np.pi * turns, abs=1e-12)
            assert winding_number(path) == turns

    def test_builders_agree_with_the_unwrapped_samples(self, rng):
        """Wherever every step is under half a turn, each builder's angle is the unwrapped arctan2 of its samples.

        One winding at most: the unwrap adds one rounded correction per crossing of the branch cut, so on loops of
        two or three windings the two lie up to 2 ulps (3.6e-15) apart, the builders' nearer to arctan2 + 2 pi k.
        """
        paths = []
        for _ in range(60):
            samples = int(rng.integers(2, 4097))
            center, radius = rng.uniform(-1.5, 1.5, 2), float(rng.uniform(0.2, 2.0))
            enclosing = np.hypot(*center) < radius
            if abs(np.hypot(*center) - radius) > 1e-3:
                paths.append(circle_path(center, radius, int(rng.choice([-1, 1])) if enclosing else 0,
                                         float(rng.uniform(0.5, 3.0)), samples))
            turns = int(rng.choice([-1, 0, 1]))
            knots = int(rng.integers(3, 40))
            angles = np.sort(rng.uniform(0.0, 2 * np.pi, knots)) * (turns or 0.3)
            radii = rng.uniform(0.3, 2.0, knots)
            points = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]) + (2.5 if turns == 0 else 0.0)
            paths.append(polyline_path(points, float(rng.uniform(0.5, 3.0)), samples))
            times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, knots - 1))])
            paths.append(_resampled(_knot_path(times, *points.T), samples, float(rng.uniform(0.5, 3.0))))
        compared = 0
        for path in paths:
            unwrapped = _unwrap(np.arctan2(path.b, path.a))
            if np.abs(np.diff(unwrapped)).max(initial=0.0) < np.pi - 1e-6:
                assert np.abs(path.theta() - unwrapped).max() <= 2e-15
                compared += 1
        assert compared >= len(paths) // 2

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            ParameterPath(times=np.array([0.0, 0.0, 1.0]), a=np.ones(3), b=np.zeros(3))

    @pytest.mark.parametrize("kind", ["angles", "walk", "half_turns"])
    def test_unwrap_is_numpys_bit_for_bit(self, rng, kind):
        """Steps of exactly +-pi, 2 pi and -0.0 included: the same floats, signed zeros too."""
        for size in (2, 3, 17, 400):
            if kind == "angles":
                theta = np.arctan2(*rng.standard_normal((2, size)))
            elif kind == "walk":
                theta = np.cumsum(rng.uniform(-4.0, 4.0, size))
            else:
                theta = np.cumsum(rng.choice([0.0, -0.0, np.pi, -np.pi, 2 * np.pi, 1.0], size))
            ours, numpys = _unwrap(theta), np.unwrap(theta)
            assert np.array_equal(ours, numpys) and np.array_equal(np.signbit(ours), np.signbit(numpys))

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
