import numpy as np
import pytest

from zenogate.adiabatic import adiabatic_generator
from zenogate.errors import (
    GridMismatch,
    IncompleteResolution,
    InsufficientSamples,
    NonHermitianInput,
    NotASubspaceRotation,
    ZeroSurvival,
)
from zenogate.linalg import expm_hermitian, spectral_norm, trace_distance
from zenogate.spectral import (
    FramePath,
    OperatorPath,
    ParameterPath,
    circle_path,
    frame_path_analytic_three_level,
    frame_path_from_spectra,
    instantaneous_spectra,
    three_level_eigenbasis,
    three_level_hamiltonian,
    three_level_projectors,
)
from zenogate.zeno import (
    ControlConfig,
    control_hamiltonian,
    effective_frame,
    holonomy_angle,
    nonselective_step,
    nonselective_zeno_evolution,
    projected_evolution,
    unwrap_angle,
    wagon_wheel_frames,
    zeno_hamiltonian,
    zeno_unitary,
)


def loop_frames(n_samples, windings=1, duration=1.0):
    path = circle_path(windings=windings, samples=n_samples, duration=duration)
    return path, frame_path_analytic_three_level(path)


def constant_frames(projs0, samples=9, duration=1.0):
    return FramePath(
        times=np.linspace(0, duration, samples),
        frames=np.broadcast_to(np.eye(3, dtype=complex), (samples, 3, 3)).copy(),
        projectors0=projs0,
    )


class TestProjectedEvolution:
    def test_static_frame_is_projection(self, projs0):
        frames = constant_frames(projs0)
        _, em, _ = three_level_eigenbasis(0.0)
        zr = projected_evolution(None, frames, 0, 8, em)
        assert zr.survival_probability == pytest.approx(1.0, abs=1e-12)
        assert spectral_norm(zr.final_operator - projs0[0]) <= 1e-12
        assert np.abs(zr.conditional_state - em).max() <= 1e-12

    def test_single_measurement_against_direct_product(self):
        """N=1 is one projector sandwich; compute it by hand as the oracle."""
        theta = np.array([0.0, np.pi / 2])
        path = ParameterPath(times=np.array([0.0, 1.0]), a=np.cos(theta), b=np.sin(theta))
        frames = frame_path_analytic_three_level(path)
        _, em, _ = three_level_eigenbasis(0.0)
        p_start = three_level_projectors(0.0)[0]
        p_end = three_level_projectors(np.pi / 2)[0]
        oracle = p_end @ p_start  # H0 = 0, so U0 = identity
        zr = projected_evolution(None, frames, 0, 1, em)
        assert spectral_norm(zr.final_operator - oracle) <= 1e-12
        assert zr.survival_probability == pytest.approx(
            float(np.linalg.norm(oracle @ em) ** 2), abs=1e-12
        )

    def test_against_sequential_oracle_with_control(self, gens):
        """The vectorized product equals the literal step-by-step sequence."""
        n = 37
        path, frames = loop_frames(n + 1, duration=1.0)
        h0 = control_hamiltonian(ControlConfig(mode="alpha_frame", alpha=0.3), path)
        _, em, _ = three_level_eigenbasis(0.0)
        zr = projected_evolution(h0, frames, 0, n, em)

        p0 = frames.projectors0[0]
        projs = [w @ p0 @ w.conj().T for w in frames.frames]
        v = projs[0]
        for k in range(n):
            t0, t1 = frames.times[k], frames.times[k + 1]
            u0 = expm_hermitian(h0(0.5 * (t0 + t1)), -1j * (t1 - t0))
            v = projs[k + 1] @ u0 @ v
        assert spectral_norm(zr.final_operator - v) <= 1e-12

    def test_zeno_limit_reaches_topological_gate(self, gens):
        n = 4096
        _, frames = loop_frames(n + 1)
        _, em, _ = three_level_eigenbasis(0.0)
        zr = projected_evolution(None, frames, 0, n, em)
        gate = expm_hermitian(gens.subspace_generator, 1j * np.sqrt(2) * np.pi)
        predicted = frames.frames[-1] @ gate @ em
        fidelity = abs(predicted.conj() @ zr.conditional_state) ** 2
        assert fidelity >= 1.0 - 20.0 / n
        assert zr.survival_probability >= 1.0 - 20.0 / n

    def test_survival_monotone_and_inverse_n(self):
        ns = [2**k for k in range(6, 17)]
        deficits = []
        for n in ns:
            _, frames = loop_frames(n + 1)
            _, em, _ = three_level_eigenbasis(0.0)
            zr = projected_evolution(None, frames, 0, n, em)
            deficits.append(1.0 - zr.survival_probability)
        assert all(d1 > d2 > 0 for d1, d2 in zip(deficits, deficits[1:]))
        slope = np.polyfit(np.log(ns), np.log(deficits), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    def test_operator_convergence_halves_with_n(self, gens):
        dists = []
        for n in (2**8, 2**9, 2**10, 2**11):
            _, frames = loop_frames(n + 1)
            uz = zeno_unitary(zeno_hamiltonian(None, frames, 0))
            zr = projected_evolution(None, frames, 0, n, three_level_eigenbasis(0.0)[1])
            target = frames.frames[-1] @ uz @ frames.projectors0[0]
            dists.append(spectral_norm(zr.final_operator - target))
        for a, b in zip(dists, dists[1:]):
            assert b / a == pytest.approx(0.5, abs=0.15)

    def test_zero_survival_raises(self, projs0):
        frames = constant_frames(projs0)
        ep, _, _ = three_level_eigenbasis(0.0)  # lives in the other eigenspace
        with pytest.raises(ZeroSurvival):
            projected_evolution(None, frames, 0, 4, ep)

    def test_incompatible_grid_rejected(self, projs0):
        frames = constant_frames(projs0, samples=8)  # 7 intervals
        with pytest.raises(GridMismatch):
            projected_evolution(None, frames, 0, 3, three_level_eigenbasis(0.0)[1])


class TestZenoHamiltonian:
    def test_no_control_reduces_to_geometric_term(self):
        _, frames = loop_frames(257)
        hz = zeno_hamiltonian(None, frames, 0)
        hg = adiabatic_generator(frames, 0)
        assert spectral_norm((hz.operators - hg.operators).reshape(-1, 3)) <= 1e-14

    def test_alpha_control_scales_generator(self, gens):
        alpha = 0.5
        path, frames = loop_frames(1001, duration=1.0)
        h0 = control_hamiltonian(ControlConfig(mode="alpha_frame", alpha=alpha), path)
        hz = zeno_hamiltonian(h0, frames, 0)
        ref = -(1 - alpha) * gens.subspace_generator * (2 * np.pi) / np.sqrt(2)
        assert max(spectral_norm(op - ref) for op in hz.operators) <= 1e-4

    def test_wagon_wheel_reverses_projected_hamiltonian(self, gens, projs0):
        h0m = gens.frame_generator
        times = np.linspace(0.0, np.pi, 1025)
        frames = wagon_wheel_frames(h0m, times, projs0)
        hz = zeno_hamiltonian(lambda t: h0m, frames, 0)
        ref = -projs0[0] @ h0m @ projs0[0]
        assert max(spectral_norm(op - ref) for op in hz.operators) <= 5e-5

    def test_spectral_projectors_reproduce_driven_evolution(self):
        """Measuring the drive's own eigenspaces adds only the dynamical term."""
        duration = 2.0
        path, frames = loop_frames(513, duration=duration)
        omega = 2 * np.pi / duration

        def h_drive(t):
            return three_level_hamiltonian(np.cos(omega * t), np.sin(omega * t))

        for frames_used in (frames, _tracked(path)):
            for level, energy in ((0, 0.0), (1, 2.0)):
                hz = zeno_hamiltonian(h_drive, frames_used, level)
                hg = adiabatic_generator(frames_used, level)
                p0 = frames_used.projectors0[level]
                defect = max(
                    spectral_norm(hz.operators[k] - (energy * p0 + hg.operators[k]))
                    for k in range(0, 513, 64)
                )
                assert defect <= 1e-8


def _tracked(path):
    return frame_path_from_spectra(path.times, instantaneous_spectra(three_level_hamiltonian(path.a, path.b)))


class TestZenoUnitary:
    def test_zero_generator(self, projs0):
        op = OperatorPath(times=np.linspace(0, 1, 5), operators=np.zeros((5, 3, 3), complex))
        assert spectral_norm(zeno_unitary(op) - np.eye(3)) <= 1e-14

    @pytest.mark.parametrize("windings", [1, 2, -1])
    def test_winding_gate(self, windings, gens):
        _, frames = loop_frames(abs(windings) * 16384 + 1, windings=windings)
        uz = zeno_unitary(zeno_hamiltonian(None, frames, 0))
        target = expm_hermitian(gens.subspace_generator, 1j * windings * np.sqrt(2) * np.pi)
        assert spectral_norm(uz - target) <= 1e-6

    def test_alpha_one_is_identity(self):
        path, frames = loop_frames(8193)
        h0 = control_hamiltonian(ControlConfig(mode="alpha_frame", alpha=1.0), path)
        uz = zeno_unitary(zeno_hamiltonian(h0, frames, 0))
        assert spectral_norm(uz - np.eye(3)) <= 1e-6

    def test_identity_on_complement(self, gens):
        _, frames = loop_frames(1025)
        uz = zeno_unitary(zeno_hamiltonian(None, frames, 0))
        ep = three_level_eigenbasis(0.0)[0]
        assert np.abs(uz @ ep - ep).max() <= 1e-10

    def test_needs_two_samples(self):
        op = OperatorPath(times=np.array([0.0]), operators=np.zeros((1, 3, 3), complex))
        with pytest.raises(InsufficientSamples):
            zeno_unitary(op)


class TestEffectiveFrame:
    def test_no_control_keeps_frame(self):
        _, frames = loop_frames(65)
        assert effective_frame(None, frames) is frames

    def test_wagon_wheel_halves_the_rotation(self, gens, projs0):
        """U0^dag(t) W(t) = exp(+iH0 t) exp(-2iH0 t) = exp(-iH0 t)."""
        h0m = gens.frame_generator
        times = np.linspace(0.0, np.pi, 513)
        frames = wagon_wheel_frames(h0m, times, projs0)
        weff = effective_frame(lambda t: h0m, frames)
        for k in (0, 128, 512):
            ref = expm_hermitian(h0m, -1j * times[k])
            assert spectral_norm(weff.frames[k] - ref) <= 1e-11

    def test_two_formulas_for_zeno_hamiltonian_agree(self):
        """Direct sum formula vs geometric term of the effective frame."""
        duration = 2 * np.pi  # unit angular rate; dt = 1e-3 * T
        path, frames = loop_frames(1001, duration=duration)
        h0 = control_hamiltonian(ControlConfig(mode="alpha_frame", alpha=0.5), path)
        direct = zeno_hamiltonian(h0, frames, 0)
        via_frame = adiabatic_generator(effective_frame(h0, frames), 0)
        defect = max(
            spectral_norm(a - b) for a, b in zip(direct.operators, via_frame.operators)
        )
        assert defect <= 1e-5


class TestHolonomyAngle:
    def test_identity_gate(self, gens):
        assert holonomy_angle(np.eye(3, dtype=complex), gens.subspace_generator) == pytest.approx(0.0, abs=1e-12)

    def test_topological_angle_principal_value(self, gens):
        gate = expm_hermitian(gens.subspace_generator, 1j * np.sqrt(2) * np.pi)
        phi = holonomy_angle(gate, gens.subspace_generator)
        assert phi == pytest.approx(np.sqrt(2) * np.pi - 2 * np.pi, abs=1e-10)
        assert np.cos(phi) == pytest.approx(np.cos(np.sqrt(2) * np.pi), abs=1e-10)

    def test_half_compensated_angle(self, gens):
        gate = expm_hermitian(gens.subspace_generator, 1j * 0.5 * np.sqrt(2) * np.pi)
        phi = holonomy_angle(gate, gens.subspace_generator)
        assert phi == pytest.approx(0.5 * np.sqrt(2) * np.pi, abs=1e-10)

    def test_unwrap_against_expected(self, gens):
        gate = expm_hermitian(gens.subspace_generator, 1j * np.sqrt(2) * np.pi)
        phi = holonomy_angle(gate, gens.subspace_generator)
        assert unwrap_angle(phi, np.sqrt(2) * np.pi) == pytest.approx(np.sqrt(2) * np.pi, abs=1e-10)
        assert unwrap_angle(phi, 0.0) == pytest.approx(phi, abs=1e-12)

    def test_rejects_non_rotation(self, gens, projs0):
        _, em, e0 = three_level_eigenbasis(0.0)
        skew = expm_hermitian(np.outer(e0, e0.conj()), 0.7j)  # dephases within the subspace
        with pytest.raises(NotASubspaceRotation):
            holonomy_angle(skew, gens.subspace_generator)


class TestNonselective:
    def test_block_diagonal_fixed_point(self, projs0):
        _, em, e0 = three_level_eigenbasis(0.0)
        rho = 0.25 * np.outer(em, em.conj()) + 0.75 * np.outer(e0, e0.conj())
        out = nonselective_step(rho, projs0)
        assert trace_distance(out, rho) <= 1e-12

    def test_cross_subspace_coherence_removed(self, projs0):
        ep, em, _ = three_level_eigenbasis(0.0)
        psi = (ep + em) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        out = nonselective_step(rho, projs0)
        p0, p1 = projs0[0], projs0[1]
        assert spectral_norm(p0 @ out @ p1) <= 1e-14
        assert np.trace(p0 @ out).real == pytest.approx(0.5, abs=1e-12)
        assert np.trace(p1 @ out).real == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_unchanged(self, projs0):
        rho = np.eye(3, dtype=complex) / 3.0
        assert trace_distance(nonselective_step(rho, projs0), rho) <= 1e-14

    def test_incomplete_resolution_rejected(self, projs0):
        with pytest.raises(IncompleteResolution):
            nonselective_step(np.eye(3, dtype=complex) / 3.0, [projs0[0]])

    def test_non_unitary_interior_frame_rejected(self, projs0):
        frames = constant_frames(projs0)
        frames.frames[4] = 2.0 * np.eye(3)  # one measurement family sums to 4 * identity
        with pytest.raises(IncompleteResolution):
            nonselective_zeno_evolution(None, frames, 8, np.eye(3, dtype=complex) / 3.0)

    def test_single_step_dephasing(self, projs0):
        frames = constant_frames(projs0, samples=2)
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)  # cross-subspace superposition
        rho0 = np.outer(psi, psi.conj())
        out = nonselective_zeno_evolution(None, frames, 1, rho0)
        assert trace_distance(out, nonselective_step(rho0, projs0)) <= 1e-14

    def test_pure_state_in_subspace_reduces_to_selective(self, gens):
        n = 2048
        _, frames = loop_frames(n + 1)
        _, em, _ = three_level_eigenbasis(0.0)
        rho0 = np.outer(em, em.conj())
        out = nonselective_zeno_evolution(None, frames, n, rho0)
        zr = projected_evolution(None, frames, 0, n, em)
        pure = np.outer(zr.conditional_state, zr.conditional_state.conj())
        assert trace_distance(out, pure) <= 30.0 / n

    def test_cross_subspace_converges_to_dephased_gate(self, gens):
        n = 4096
        _, frames = loop_frames(n + 1)
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        rho0 = np.outer(psi, psi.conj())
        out = nonselective_zeno_evolution(None, frames, n, rho0)
        uz0 = zeno_unitary(zeno_hamiltonian(None, frames, 0))
        uz1 = zeno_unitary(zeno_hamiltonian(None, frames, 1))
        uz = uz1 @ uz0
        wt = frames.frames[-1]
        target = wt @ uz @ nonselective_step(rho0, frames.projectors0) @ uz.conj().T @ wt.conj().T
        assert trace_distance(out, target) <= 30.0 / n
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() >= -1e-9

    def test_trace_preserved_every_step(self, projs0):
        n = 64
        _, frames = loop_frames(n + 1)
        rho = np.eye(3, dtype=complex) / 3.0
        out = nonselective_zeno_evolution(None, frames, n, rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


class TestControlledGateAngles:
    @pytest.mark.parametrize("windings", [-1, 1, 2])
    def test_alpha_grid_hits_predicted_angle(self, windings, gens):
        n = 2**14
        path, frames = loop_frames(n + 1, windings=windings)
        _, em, _ = three_level_eigenbasis(0.0)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            config = ControlConfig(mode="alpha_frame", alpha=alpha)
            h0 = None if alpha == 0.0 else control_hamiltonian(config, path)
            zr = projected_evolution(h0, frames, 0, n, em)
            gate = frames.frames[-1].conj().T @ zr.final_operator
            phi = holonomy_angle(gate, gens.subspace_generator, tol=5e-3)
            expected = (1 - alpha) * windings * np.sqrt(2) * np.pi
            wrapped = (phi - expected + np.pi) % (2 * np.pi) - np.pi
            assert abs(wrapped) <= 1e-3

    def test_non_enclosing_loop_gives_identity_angle(self, gens):
        n = 2**12
        path = circle_path(center=(3.0, 0.0), radius=1.0, windings=0, samples=n + 1)
        frames = frame_path_analytic_three_level(path)
        _, em, _ = three_level_eigenbasis(path.theta()[0])
        zr = projected_evolution(None, frames, 0, n, em)
        gate = frames.frames[-1].conj().T @ zr.final_operator
        gen = gens  # reference angle of this path start
        from zenogate.spectral import three_level_generators

        g0 = three_level_generators(path.theta()[0]).subspace_generator
        phi = holonomy_angle(gate, g0, tol=1e-3)
        assert abs(phi) <= 1e-3


class TestWagonWheelTimeReversal:
    def test_conditional_evolution_runs_backwards(self, gens, projs0):
        h0m = gens.frame_generator
        duration = np.pi
        p0 = projs0[0]
        reversed_gate = expm_hermitian(p0 @ h0m @ p0, 1j * duration)
        dists = []
        for n in (2**8, 2**9, 2**10):
            times = np.linspace(0.0, duration, n + 1)
            frames = wagon_wheel_frames(h0m, times, projs0)
            _, em, _ = three_level_eigenbasis(0.0)
            zr = projected_evolution(lambda t: h0m, frames, 0, n, em)
            gate = frames.frames[-1].conj().T @ zr.final_operator
            dists.append(spectral_norm(gate - reversed_gate @ p0))
        for a, b in zip(dists, dists[1:]):
            assert b / a == pytest.approx(0.5, abs=0.15)


@pytest.mark.parametrize("evolve", ["projected", "nonselective", "wagon_wheel"])
def test_non_hermitian_control_rejected(projs0, evolve):
    h0 = np.zeros((3, 3), dtype=complex)
    h0[0, 1] = 1.0
    frames = constant_frames(projs0)
    _, em, _ = three_level_eigenbasis(0.0)
    with pytest.raises(NonHermitianInput):
        if evolve == "projected":
            projected_evolution(lambda t: h0, frames, 0, 8, em)
        elif evolve == "nonselective":
            nonselective_zeno_evolution(lambda t: h0, frames, 8, np.outer(em, em.conj()))
        else:
            wagon_wheel_frames(h0, frames.times, projs0)


@pytest.mark.parametrize(
    "evolve, shape",
    [("projected", (16,)), ("nonselective", (16,)), ("zeno_hamiltonian", (65,)), ("effective_frame", (64,))],
)
def test_control_sampled_once_on_the_grid(recording, evolve, shape):
    path, frames = loop_frames(65)
    h0 = recording(control_hamiltonian(ControlConfig(mode="alpha_frame", alpha=0.5), path))
    _, em, _ = three_level_eigenbasis(0.0)
    {
        "projected": lambda: projected_evolution(h0, frames, 0, 16, em),
        "nonselective": lambda: nonselective_zeno_evolution(h0, frames, 16, np.outer(em, em.conj())),
        "zeno_hamiltonian": lambda: zeno_hamiltonian(h0, frames, 0),
        "effective_frame": lambda: effective_frame(h0, frames),
    }[evolve]()
    assert h0.shapes == [shape]


def test_alpha_frame_control_stacks_over_times():
    path, _ = loop_frames(65)
    h0 = control_hamiltonian(ControlConfig(mode="alpha_frame", alpha=0.5), path)
    times = np.linspace(0.0, 1.0, 7)
    stack = h0(times)
    assert stack.shape == (7, 3, 3)
    for k, t in enumerate(times):
        assert np.array_equal(stack[k], h0(t))
