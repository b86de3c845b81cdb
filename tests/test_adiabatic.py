import numpy as np
import pytest

from zenogate.adiabatic import (
    _midpoint_propagators,
    adiabatic_evolve,
    adiabatic_generator,
    escape_probability,
    gauge_decompose,
    ordered_exp_from_samples,
    ordered_product,
    propagate_exact,
)
from zenogate.errors import (
    GridMismatch,
    InitialStateOutsideSubspace,
    InsufficientSamples,
    NonHermitianInput,
)
from zenogate.linalg import expm_hermitian, spectral_norm
from zenogate.zeno import zeno_hamiltonian, zeno_unitary
from zenogate.spectral import (
    FramePath,
    OperatorPath,
    ParameterPath,
    circle_path,
    frame_path_analytic_three_level,
    three_level_eigenbasis,
    three_level_hamiltonian,
    three_level_projectors,
    three_level_propagators,
)


def loop_hamiltonian(duration, windings=1):
    """H(t) along a unit circle traversed `windings` times in `duration`."""
    omega = 2 * np.pi * windings / duration

    def h(t):
        return three_level_hamiltonian(np.cos(omega * t), np.sin(omega * t))

    return h


def fixed_phase_duration(n_turns):
    """Loop durations pinned at the same oscillation phase of the leakage."""
    return 2 * np.pi * (n_turns + 0.25)


class TestPropagateExact:
    def test_zero_hamiltonian(self):
        res = propagate_exact(lambda t: np.zeros((3, 3)), 1.0, 16)
        assert np.allclose(res.unitary, np.eye(3), atol=1e-14)

    def test_constant_diagonal_full_period(self):
        res = propagate_exact(lambda t: np.diag([0.0, 2.0]).astype(complex), np.pi, 8)
        assert spectral_norm(res.unitary - np.eye(2)) <= 1e-10

    @pytest.mark.parametrize("steps", [1, 3, 17, 256])
    def test_unitarity_any_step_count(self, steps):
        h = loop_hamiltonian(3.0)
        u = propagate_exact(h, 3.0, steps).unitary
        assert spectral_norm(u.conj().T @ u - np.eye(3)) <= 1e-9

    def test_second_order_self_convergence(self):
        h = loop_hamiltonian(20.0)
        reference = propagate_exact(h, 20.0, 2**16).unitary
        errs = [
            spectral_norm(propagate_exact(h, 20.0, steps).unitary - reference)
            for steps in (128, 256, 512)
        ]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        for r in ratios:
            assert 3.0 <= r <= 5.0

    def test_error_estimate_tracks_halving(self):
        h = loop_hamiltonian(10.0)
        res = propagate_exact(h, 10.0, 512)
        assert 0 < res.estimated_error < 1e-2
        finer = propagate_exact(h, 10.0, 2048)
        assert finer.estimated_error < res.estimated_error
        single = propagate_exact(h, 10.0, 1)
        assert np.isnan(single.estimated_error)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            propagate_exact(lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 4)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            propagate_exact(lambda t: np.diag([0.0, np.nan]).astype(complex), 1.0, 4)


class TestAdiabaticGenerator:
    def test_constant_frames_give_zero(self, projs0):
        frames = FramePath(
            times=np.linspace(0, 1, 9),
            frames=np.broadcast_to(np.eye(3, dtype=complex), (9, 3, 3)).copy(),
            projectors0=projs0,
        )
        hg = adiabatic_generator(frames, 0)
        assert np.abs(hg.operators).max() <= 1e-12

    def test_three_level_matches_closed_form_second_order(self, gens):
        g0 = gens.subspace_generator
        errs = []
        for samples in (257, 513):
            path = circle_path(windings=1, samples=samples, duration=2.0)
            frames = frame_path_analytic_three_level(path)
            hg = adiabatic_generator(frames, 0)
            ref = -g0 * (2 * np.pi / 2.0) / np.sqrt(2.0)
            errs.append(max(spectral_norm(op - ref) for op in hg.operators))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_rank_one_level_has_zero_generator(self):
        path = circle_path(windings=1, samples=257)
        frames = frame_path_analytic_three_level(path)
        hg = adiabatic_generator(frames, 1)
        assert np.abs(hg.operators).max() <= 1e-8

    def test_samples_exactly_hermitian_on_support(self, projs0):
        path = circle_path(windings=1, samples=129)
        frames = frame_path_analytic_three_level(path)
        hg = adiabatic_generator(frames, 0)
        for op in hg.operators[::16]:
            assert spectral_norm(op - op.conj().T) <= 1e-8
            # supported inside the initial eigenspace
            comp = np.eye(3) - projs0[0]
            assert spectral_norm(comp @ op) <= 1e-12

    def test_too_few_samples(self, projs0):
        frames = FramePath(
            times=np.array([0.0, 1.0]),
            frames=np.stack([np.eye(3, dtype=complex)] * 2),
            projectors0=projs0,
        )
        with pytest.raises(InsufficientSamples):
            adiabatic_generator(frames, 0)
        h0 = np.diag([0.0, 1.0, 2.0]).astype(complex)
        with pytest.raises(InsufficientSamples):
            zeno_hamiltonian(lambda t: h0, frames, 0)


class TestAdiabaticEvolve:
    def test_constant_frames_keep_state(self, projs0):
        frames = FramePath(
            times=np.linspace(0, 1, 9),
            frames=np.broadcast_to(np.eye(3, dtype=complex), (9, 3, 3)).copy(),
            projectors0=projs0,
        )
        _, em, _ = three_level_eigenbasis(0.0)
        state, hol = adiabatic_evolve(frames, 0, em)
        assert np.abs(state - em).max() <= 1e-10
        assert spectral_norm(hol - np.eye(3)) <= 1e-10

    def test_winding_one_holonomy(self, gens):
        path = circle_path(windings=1, samples=8193)
        frames = frame_path_analytic_three_level(path)
        _, em, _ = three_level_eigenbasis(0.0)
        _, hol = adiabatic_evolve(frames, 0, em)
        target = expm_hermitian(gens.subspace_generator, 1j * np.sqrt(2) * np.pi)
        p0 = frames.projectors0[0]
        assert spectral_norm(p0 @ (hol - target) @ p0) <= 1e-6

    def test_non_enclosing_loop_identity(self):
        path = circle_path(center=(3.0, 0.0), radius=1.0, windings=0, samples=4097)
        frames = frame_path_analytic_three_level(path)
        _, em, _ = three_level_eigenbasis(0.0)
        state, hol = adiabatic_evolve(frames, 0, em)
        p0 = frames.projectors0[0]
        assert spectral_norm(p0 @ (hol - np.eye(3)) @ p0) <= 1e-6

    def test_dynamical_phase_applied(self, projs0):
        frames = FramePath(
            times=np.linspace(0, 1, 9),
            frames=np.broadcast_to(np.eye(3, dtype=complex), (9, 3, 3)).copy(),
            projectors0=projs0,
        )
        _, em, _ = three_level_eigenbasis(0.0)
        state, _ = adiabatic_evolve(frames, 0, em, energies=np.full(9, np.pi))
        assert np.abs(state + em).max() <= 1e-10  # exp(-i pi) = -1

    def test_outside_subspace_rejected(self):
        path = circle_path(windings=1, samples=65)
        frames = frame_path_analytic_three_level(path)
        ep, _, _ = three_level_eigenbasis(0.0)
        with pytest.raises(InitialStateOutsideSubspace):
            adiabatic_evolve(frames, 0, ep)


class TestEscapeProbability:
    def test_static_drive_no_escape(self):
        h = three_level_hamiltonian(1.0, 0.0)
        path = ParameterPath(times=np.linspace(0, 5, 9), a=np.ones(9), b=np.zeros(9))
        frames = frame_path_analytic_three_level(path)
        _, em, _ = three_level_eigenbasis(0.0)
        q = escape_probability(lambda t: h, frames, 0, em, 5.0, 64)
        assert abs(q) <= 1e-12

    def test_slow_loop_small_escape(self):
        t_final = fixed_phase_duration(100)  # |dtheta/dt| / r ~ 0.01
        path = circle_path(windings=1, samples=129, duration=t_final)
        frames = frame_path_analytic_three_level(path)
        _, em, _ = three_level_eigenbasis(0.0)
        q = escape_probability(loop_hamiltonian(t_final), frames, 0, em, t_final, 2**16)
        assert 0.0 <= q <= 1e-3

    def test_quadratic_scaling_in_drive_rate(self):
        """Halving the drive rate at fixed leakage phase quarters the escape."""
        t1 = fixed_phase_duration(16)
        t2 = fixed_phase_duration(32)
        qs = []
        for t_final in (t1, t2):
            path = circle_path(windings=1, samples=129, duration=t_final)
            frames = frame_path_analytic_three_level(path)
            _, em, _ = three_level_eigenbasis(0.0)
            qs.append(escape_probability(loop_hamiltonian(t_final), frames, 0, em, t_final, 2**14))
        expected = (t2 / t1) ** 2
        assert qs[0] / qs[1] == pytest.approx(expected, rel=0.15)

    def test_rate_slope_over_decade(self):
        """log-log slope of q vs 1/T is 2 within 0.2 over one decade."""
        durations = [fixed_phase_duration(n) for n in (16, 32, 64, 128, 160)]
        qs = []
        for t_final in durations:
            path = circle_path(windings=1, samples=129, duration=t_final)
            frames = frame_path_analytic_three_level(path)
            _, em, _ = three_level_eigenbasis(0.0)
            steps = int(t_final / 0.02)
            qs.append(escape_probability(loop_hamiltonian(t_final), frames, 0, em, t_final, steps))
        slope = np.polyfit(np.log(1.0 / np.array(durations)), np.log(qs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)


class TestGaugeDecompose:
    def test_constant_hamiltonian_trivial_gauge(self, projs0):
        h = three_level_hamiltonian(1.0, 0.0)
        times = np.linspace(0, 3, 65)
        frames = FramePath(
            times=times,
            frames=np.broadcast_to(np.eye(3, dtype=complex), (65, 3, 3)).copy(),
            projectors0=projs0,
        )
        u = propagate_exact(lambda t: h, 3.0, 64)
        energies = np.column_stack([np.zeros(65), np.full(65, 2.0)])
        decomp = gauge_decompose(u, frames, energies)
        assert spectral_norm(decomp.gauge_evolution - np.eye(3)) <= 1e-9
        assert decomp.dynamical_phases[1] == pytest.approx(6.0, abs=1e-9)

    def test_reconstruction_exact(self):
        t_final = 7.0
        path = circle_path(windings=1, samples=257, duration=t_final)
        frames = frame_path_analytic_three_level(path)
        u = propagate_exact(loop_hamiltonian(t_final), t_final, 4096)
        energies = np.column_stack([np.zeros(257), 2.0 * path.radius()])
        decomp = gauge_decompose(u, frames, energies)
        rebuilt = frames.frames[-1] @ sum(
            np.exp(-1j * decomp.dynamical_phases[n]) * frames.projectors0[n]
            for n in range(2)
        ) @ decomp.gauge_evolution
        assert spectral_norm(u.unitary - rebuilt) <= 1e-7

    def test_block_matches_adiabatic_holonomy_slowly(self, gens):
        t_final = fixed_phase_duration(16)
        path = circle_path(windings=1, samples=513, duration=t_final)
        frames = frame_path_analytic_three_level(path)
        u = propagate_exact(loop_hamiltonian(t_final), t_final, int(t_final / 0.01))
        energies = np.column_stack([np.zeros(513), 2.0 * path.radius()])
        decomp = gauge_decompose(u, frames, energies)
        p0 = frames.projectors0[0]
        target = expm_hermitian(gens.subspace_generator, 1j * np.sqrt(2) * np.pi)
        drift = spectral_norm(p0 @ (decomp.gauge_evolution - target) @ p0)
        assert drift <= 3.0 * (2 * np.pi / t_final)  # O(rate/gap) leakage
        # and directly against the slow-driving holonomy of the same frames
        _, em, _ = three_level_eigenbasis(0.0)
        _, holonomy = adiabatic_evolve(frames, 0, em)
        cross = spectral_norm(p0 @ (decomp.gauge_evolution - holonomy) @ p0)
        assert cross <= 3.0 * (2 * np.pi / t_final)

    def test_off_block_weight_equals_escape_probability(self):
        """The two adiabaticity diagnostics are the same number."""
        t_final = 6.0
        steps = 4096
        path = circle_path(windings=1, samples=257, duration=t_final)
        frames = frame_path_analytic_three_level(path)
        _, em, _ = three_level_eigenbasis(0.0)
        q = escape_probability(loop_hamiltonian(t_final), frames, 0, em, t_final, steps)
        u = propagate_exact(loop_hamiltonian(t_final), t_final, steps)
        energies = np.column_stack([np.zeros(257), 2.0 * path.radius()])
        decomp = gauge_decompose(u, frames, energies)
        leaked = (np.eye(3) - frames.projectors0[0]) @ decomp.gauge_evolution @ em
        assert abs(q - np.linalg.norm(leaked) ** 2) <= 1e-10

    def test_grid_mismatch_rejected(self):
        path = circle_path(windings=1, samples=65, duration=2.0)
        frames = frame_path_analytic_three_level(path)
        u = propagate_exact(loop_hamiltonian(2.0), 2.0, 64)
        with pytest.raises(GridMismatch):
            gauge_decompose(u, frames, np.zeros((64, 2)))
        u_short = propagate_exact(loop_hamiltonian(2.0), 1.0, 64)
        with pytest.raises(GridMismatch):
            gauge_decompose(u_short, frames, np.zeros((65, 2)))


def test_ordered_exp_needs_two_samples(projs0):
    op = OperatorPath(times=np.array([0.0]), operators=np.zeros((1, 3, 3), dtype=complex))
    with pytest.raises(InsufficientSamples):
        ordered_exp_from_samples(op)


@pytest.mark.parametrize("exponentiate", [ordered_exp_from_samples, zeno_unitary])
def test_ordered_exp_rejects_non_hermitian_generator(exponentiate):
    ops = np.zeros((5, 3, 3), dtype=complex)
    ops[:, 0, 1] = 1.0  # upper triangle only: eigh reads the lower one and would return the identity
    with pytest.raises(NonHermitianInput):
        exponentiate(OperatorPath(times=np.linspace(0.0, 1.0, 5), operators=ops))


@pytest.mark.parametrize("exponentiate", [ordered_exp_from_samples, zeno_unitary])
def test_ordered_exp_rejects_non_finite_samples(exponentiate):
    ops = np.zeros((5, 3, 3), dtype=complex)
    ops[2, 1, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        exponentiate(OperatorPath(times=np.linspace(0.0, 1.0, 5), operators=ops))


def test_propagate_exact_samples_h_once_per_grid(recording):
    """The fine grid is sampled by the call, the half-resolution grid on the first read of the estimate only."""
    h = recording(loop_hamiltonian(1.0))
    res = propagate_exact(h, 1.0, 64)
    assert h.shapes == [(64,)]
    est = res.estimated_error
    assert h.shapes == [(64,), (32,)]
    coarse = ordered_product(_midpoint_propagators(loop_hamiltonian(1.0), np.linspace(0.0, 1.0, 33)))
    assert est == spectral_norm(res.unitary - coarse)
    assert res.estimated_error == est
    assert h.shapes == [(64,), (32,)]


@pytest.mark.parametrize("count", [1, 2, 3, 7, 64, 1025])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 9])
def test_ordered_product_matches_left_fold(rng, dim, count):
    """Tree reduction, entry-major up to d = 3 and np.matmul above, equals stack[K-1] @ ... @ stack[0]."""
    stack = np.linalg.qr(rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim)))[0]
    expected = stack[0]
    for factor in stack[1:]:
        expected = factor @ expected
    assert np.abs(ordered_product(stack) - expected).max() <= 1e-13


def _elementwise_tree(stack):
    """The (K, d, d) tree of ordered_product for d <= 3: pairs (2j + 1, 2j), any odd factor carried to the end,
    each pair as sum over ascending l of elementwise products a[..., :, l] b[..., l, :]."""
    m = stack
    while m.shape[0] > 1:
        even = m.shape[0] - m.shape[0] % 2
        a, b = m[1:even:2], m[0:even:2]
        pairs = sum(a[..., :, i, None] * b[..., None, i, :] for i in range(a.shape[-1]))
        m = np.concatenate([pairs, m[even:]]) if even < m.shape[0] else pairs
    return m[0]


@pytest.mark.parametrize("count", [1, 2, 3, 7, 64, 1025, 4097, 4098, 63000])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_entry_major_product_is_the_elementwise_tree_bit_for_bit(rng, dim, count):
    """Same pairing, association and ascending-l sums as the (K, d, d) tree, whatever the input's layout."""
    stack = np.linalg.qr(rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim)))[0]
    inputs = [stack, stack[::-1], np.asfortranarray(stack)]
    if dim == 3:
        theta = rng.uniform(-np.pi, np.pi, count)
        inputs.append(three_level_propagators(np.cos(theta), np.sin(theta), rng.uniform(0.0, 0.5, count)))
    for factors in inputs:
        assert np.array_equal(ordered_product(factors), _elementwise_tree(factors))
    real = np.linalg.qr(rng.normal(size=(count, dim, dim)))[0]
    product = ordered_product(real)
    assert product.dtype == np.float64 and product.shape == (dim, dim)
    assert np.array_equal(product, _elementwise_tree(real))
