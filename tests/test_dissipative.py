import numpy as np
import pytest

from zenogate import zeno
from zenogate.adiabatic import rotating_generator
from zenogate.dissipative import (
    EXPONENTIAL_BUDGET,
    STIFFNESS_BUDGET,
    DissipatorSpec,
    dephaser,
    dephasing_fixed_point_check,
    fewest_steps,
    integrate_master,
    integrate_rotating,
    lindblad_rhs,
    zeno_master_reference,
)
from zenogate.errors import StiffnessBudgetExceeded
from zenogate.linalg import expm_hermitian, spectral_norm, trace_distance
from zenogate.spectral import (
    FramePath,
    OperatorPath,
    ParameterPath,
    circle_path,
    frame_path_analytic_three_level,
    polyline_path,
    three_level_eigenbasis,
    three_level_projectors,
)
from zenogate.zeno import (ControlConfig, _RotationRun, control_hamiltonian, nonselective_step,
                           nonselective_zeno_evolution, zeno_hamiltonian, zeno_unitary)


def static_dissipator(gamma, theta=0.0, alphas=(0.0, 1.0)):
    mats = three_level_projectors(theta)
    return DissipatorSpec(gamma=gamma, alphas=alphas, projectors_at=lambda t: mats)


def loop_dissipator(gamma, duration, alphas=(0.0, 1.0)):
    omega = 2 * np.pi / duration

    def projectors_at(t):
        return three_level_projectors(omega * t)

    return DissipatorSpec(gamma=gamma, alphas=alphas, projectors_at=projectors_at)


def path_dissipator(path, gamma, alphas):
    """Dephasing along the closed-form projectors at the path's interpolated angle."""

    def projectors_at(t):
        return three_level_projectors(np.arctan2(np.interp(t, path.times, path.b), np.interp(t, path.times, path.a)))

    return DissipatorSpec(gamma=gamma, alphas=alphas, projectors_at=projectors_at)


def lab_frame_oracle(h0, path, gamma, alphas, rho0):
    """RK4 endpoint in the lab frame, at the step count the stiffness budget allows."""
    diss = path_dissipator(path, gamma, alphas)
    steps = max(512, int(np.ceil(gamma * diss.max_weight_gap_sq() * path.duration / STIFFNESS_BUDGET)))
    return integrate_master(h0, diss, rho0, path.duration, steps).final


def oracle_case(name, samples=4097):
    """(path, h0, alphas, initial state) of a dissipative run the rotating-frame engine must reproduce."""
    if name == "benchmark_loop":
        # sampled unit loop, clockwise from an arbitrary start angle, weights in reverse order
        theta = 1.3 - 2 * np.pi * np.linspace(0.0, 1.0, samples)
        path = ParameterPath(times=np.linspace(0.0, 1.0, samples), a=np.cos(theta), b=np.sin(theta))
        return path, None, (1.0, 0.0), np.array([np.exp(0.4j), 0.6, -0.3])
    if name == "polyline_custom_h0":
        path = polyline_path([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0]], samples=samples)
        h = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.2j], [0.0, -0.2j, 0.1]])
        return path, control_hamiltonian(ControlConfig("custom", hamiltonian=h)), (0.5, -0.5), np.array([1.0, 0.5, 0.0])
    path = circle_path(samples=samples)
    return path, control_hamiltonian(ControlConfig("alpha_frame", alpha=0.5), path), (0.0, 1.0), np.array([1.0, 0, 0])


class TestLindbladRhs:
    def test_unitary_limit_is_commutator(self, rng):
        diss = static_dissipator(0.0)
        h = np.diag([0.0, 1.0, 3.0]).astype(complex)
        rho = np.eye(3, dtype=complex) / 3.0 + 0.1 * np.diag([1, -1, 0.0]).astype(complex)
        out = lindblad_rhs(rho, h, diss, 0.0)
        assert spectral_norm(out - (-1j) * (h @ rho - rho @ h)) <= 1e-14

    def test_block_diagonal_fixed_point(self):
        diss = static_dissipator(5.0)
        _, em, e0 = three_level_eigenbasis(0.0)
        rho = 0.5 * np.outer(em, em.conj()) + 0.5 * np.outer(e0, e0.conj())
        assert spectral_norm(lindblad_rhs(rho, None, diss, 0.0)) <= 1e-14

    def test_cross_block_decay_rate(self):
        """Coherence between blocks decays at gamma (a_n - a_m)^2 / 2: closed form."""
        gamma, alphas = 3.0, (0.2, 1.7)
        diss = static_dissipator(gamma, alphas=alphas)
        ep, em, _ = three_level_eigenbasis(0.0)
        coh = np.outer(em, ep.conj())
        rho = 0.5 * (coh + coh.conj().T) + 0.5 * np.eye(3)
        out = lindblad_rhs(rho, None, diss, 0.0)
        rate = 0.5 * gamma * (alphas[0] - alphas[1]) ** 2
        assert spectral_norm(out + rate * 0.5 * (coh + coh.conj().T)) <= 1e-12

    def test_traceless_and_hermitian(self, rng):
        diss = loop_dissipator(2.0, 1.0)
        h = np.diag([0.3, -0.4, 1.0]).astype(complex)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        out = lindblad_rhs(rho, h, diss, 0.37)
        assert abs(np.trace(out)) <= 1e-12
        assert spectral_norm(out - out.conj().T) <= 1e-12

    def test_distinct_weights_required(self):
        for alphas in ((0.5, 0.5), (0.0, 1.0, 1e-10)):  # the second close pair is not adjacent
            with pytest.raises(ValueError):
                static_dissipator(1.0, alphas=alphas)


class TestIntegrateMaster:
    def test_unitary_limit_matches_exponential(self):
        h = np.array([[0.0, 1.0, 0], [1.0, 0.0, 0], [0, 0, 2.0]], dtype=complex)
        diss = static_dissipator(0.0)
        _, em, _ = three_level_eigenbasis(0.0)
        rho0 = np.outer(em, em.conj())
        traj = integrate_master(lambda t: h, diss, rho0, 2.0, 2000)
        u = expm_hermitian(h, -2.0j)
        assert trace_distance(traj.final, u @ rho0 @ u.conj().T) <= 1e-8

    def test_static_dephasing_decay_oracle(self):
        """Off-block coherence decays as exp(-gamma gap^2 t / 2); exact solution."""
        gamma, t_final = 4.0, 1.3
        diss = static_dissipator(gamma)
        ep, em, _ = three_level_eigenbasis(0.0)
        psi = (ep + em) / np.sqrt(2)
        rho0 = np.outer(psi, psi.conj())
        traj = integrate_master(None, diss, rho0, t_final, 400)
        decay = np.exp(-0.5 * gamma * t_final)
        coh = np.outer(em, ep.conj())
        expected = 0.5 * (np.outer(ep, ep.conj()) + np.outer(em, em.conj())) + 0.5 * decay * (coh + coh.conj().T)
        assert trace_distance(traj.final, expected) <= 1e-8

    def test_matches_nonselective_zeno_at_large_gamma(self):
        """gamma T = 1e3 lands within 0.05 of the measurement-driven result."""
        t_final = 1.0
        gamma = 1e3
        n = 4096
        path = circle_path(windings=1, samples=n + 1, duration=t_final)
        frames = frame_path_analytic_three_level(path)
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        rho0 = np.outer(psi, psi.conj())

        diss = loop_dissipator(gamma, t_final)
        steps = int(np.ceil(10 * gamma * t_final))
        traj = integrate_master(None, diss, rho0, t_final, steps)

        uz = zeno_unitary(zeno_hamiltonian(None, frames, 1)) @ zeno_unitary(
            zeno_hamiltonian(None, frames, 0)
        )
        wt = frames.frames[-1]
        target = wt @ uz @ nonselective_step(rho0, frames.projectors0) @ uz.conj().T @ wt.conj().T
        assert trace_distance(traj.final, target) <= 0.05

    def test_gamma_convergence_monotone(self):
        t_final = 1.0
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        rho0 = np.outer(psi, psi.conj())
        n = 2048
        path = circle_path(windings=1, samples=n + 1, duration=t_final)
        frames = frame_path_analytic_three_level(path)
        uz = zeno_unitary(zeno_hamiltonian(None, frames, 1)) @ zeno_unitary(
            zeno_hamiltonian(None, frames, 0)
        )
        wt = frames.frames[-1]
        target = wt @ uz @ nonselective_step(rho0, frames.projectors0) @ uz.conj().T @ wt.conj().T
        dists = []
        for gamma in (1e2, 1e3):
            diss = loop_dissipator(gamma, t_final)
            steps = max(512, int(np.ceil(10 * gamma * t_final)))
            traj = integrate_master(None, diss, rho0, t_final, steps)
            dists.append(trace_distance(traj.final, target))
        assert dists[1] < dists[0]

    def test_rk4_self_convergence_order(self):
        h = np.array([[0.0, 1.0, 0], [1.0, 0.0, 0.5], [0, 0.5, 2.0]], dtype=complex)
        diss = loop_dissipator(1.0, 2.0)
        _, em, _ = three_level_eigenbasis(0.0)
        rho0 = np.outer(em, em.conj())
        ref = integrate_master(lambda t: h, diss, rho0, 2.0, 4096).final
        errs = [
            trace_distance(integrate_master(lambda t: h, diss, rho0, 2.0, steps).final, ref)
            for steps in (64, 128)
        ]
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.4)

    def test_stiffness_budget_enforced(self):
        diss = static_dissipator(1e4)
        rho0 = np.eye(3, dtype=complex) / 3.0
        with pytest.raises(StiffnessBudgetExceeded):
            integrate_master(None, diss, rho0, 1.0, 100)

    def test_trajectory_state_invariants(self):
        diss = loop_dissipator(50.0, 1.0)
        psi = np.array([1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3)
        rho0 = np.outer(psi, psi.conj())
        for k in range(1, 11):  # endpoints at t = 0.1 k, all with dt = 1/600
            result = integrate_master(None, diss, rho0, 0.1 * k, 60 * k)
            assert result.trace_drift <= 1e-9
            rho = result.final
            assert abs(np.trace(rho).real - 1.0) <= 1e-9
            assert spectral_norm(rho - rho.conj().T) <= 1e-10
            assert np.linalg.eigvalsh(rho).min() >= -1e-8


class TestIntegrateRotating:
    @pytest.mark.parametrize("gamma", [100.0, 1000.0])
    @pytest.mark.parametrize("case", ["benchmark_loop", "polyline_custom_h0", "alpha_frame_circle"])
    def test_matches_lab_frame_oracle(self, case, gamma):
        """One step per frame interval; the gap is the central-difference dW/dt, not gamma."""
        path, h0, alphas, psi = oracle_case(case)
        frames = frame_path_analytic_three_level(path)
        rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        result = integrate_rotating(rotating_generator(h0, frames), frames, gamma, alphas, rho0, frames.times.size - 1)
        assert trace_distance(result.final, lab_frame_oracle(h0, path, gamma, alphas, rho0)) <= 2e-6
        assert result.trace_drift <= 1e-9

    @pytest.mark.parametrize("case, alpha", [("benchmark_loop", 0.0), ("alpha_frame_circle", 0.5)])
    def test_rotation_form_meets_lab_frame_oracle(self, case, alpha):
        """Where theta is linear in t the rotation form's K is exact: on the default grid the gap is rounding."""
        path, h0, alphas, psi = oracle_case(case)
        frames = frame_path_analytic_three_level(path)
        rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        k = _RotationRun(frames, alpha).rotating_generator()
        result = integrate_rotating(k, frames, 1000.0, alphas, rho0, 512)
        assert trace_distance(result.final, lab_frame_oracle(h0, path, 1000.0, alphas, rho0)) <= 1e-8

    def test_gap_to_oracle_falls_with_frame_grid(self):
        """16x finer frames than the default grid: the dW/dt gap drops from ~1e-6 to ~3e-9."""
        path = circle_path(samples=65537)
        frames = frame_path_analytic_three_level(path)
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        k = rotating_generator(None, frames)
        result = integrate_rotating(k, frames, 1000.0, (0.0, 1.0), rho0, frames.times.size - 1)
        assert trace_distance(result.final, lab_frame_oracle(None, path, 1000.0, (0.0, 1.0), rho0)) <= 1e-8

    def test_batch_size_does_not_change_result(self, monkeypatch):
        path, h0, alphas, psi = oracle_case("polyline_custom_h0", samples=257)
        frames = frame_path_analytic_three_level(path)
        rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        k = rotating_generator(h0, frames)
        runs = (lambda: integrate_rotating(k, frames, 50.0, alphas, rho0, 100).final,
                lambda: nonselective_zeno_evolution(h0, frames, 256, rho0))
        whole = [run() for run in runs]
        monkeypatch.setattr(zeno, "_CHUNK_ENTRIES", 7 * 3**4)  # 7 steps per batch, a short last batch
        for run, ref in zip(runs, whole):
            assert spectral_norm(run() - ref) <= 1e-13

    def test_state_invariants(self):
        frames = frame_path_analytic_three_level(circle_path(samples=513))
        psi = np.array([1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3)
        result = integrate_rotating(rotating_generator(None, frames), frames, 1e5, (0.0, 1.0), np.outer(psi, psi.conj()),
                                    512)
        rho = result.final
        assert result.trace_drift <= 1e-9
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert spectral_norm(rho - rho.conj().T) == 0.0
        assert np.linalg.eigvalsh(rho).min() >= -1e-8

    def test_step_budget_enforced(self):
        frames = frame_path_analytic_three_level(circle_path(samples=65))
        assert fewest_steps(1e7, (0.0, 1.0), 1.0, EXPONENTIAL_BUDGET) == pytest.approx(1e4)
        with pytest.raises(StiffnessBudgetExceeded, match="increase steps"):
            integrate_rotating(rotating_generator(None, frames), frames, 1e7, (0.0, 1.0), np.eye(3) / 3, 4096)


class TestDephaser:
    def test_matches_lindblad_rhs(self, rng):
        gamma, alphas = 3.0, (0.2, 1.7)
        diss = static_dissipator(gamma, theta=0.8, alphas=alphas)
        d0 = dephaser(gamma, alphas, three_level_projectors(0.8))
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
        expected = lindblad_rhs(rho, None, diss, 0.0)
        assert spectral_norm((d0 @ rho.reshape(-1)).reshape(3, 3) - expected) <= 1e-13


class TestRotatingFrame:
    def test_generator_time_independent_in_rotating_frame(self, rng):
        """W^dag (L(t) rho) W = L(0) (W^dag rho W) along the loop."""
        t_final = 2.0
        path = circle_path(windings=1, samples=257, duration=t_final)
        frames = frame_path_analytic_three_level(path)
        diss = loop_dissipator(2.5, t_final)
        diss0 = static_dissipator(2.5)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        for k in (32, 128, 200):
            t = frames.times[k]
            w = frames.frames[k]
            lab = lindblad_rhs(rho, None, diss, t)
            rot = lindblad_rhs(w.conj().T @ rho @ w, None, diss0, 0.0)
            assert spectral_norm(w.conj().T @ lab @ w - rot) <= 1e-9


class TestZenoMasterReference:
    def test_zero_generator_keeps_dephased_state(self, projs0):
        op = OperatorPath(times=np.linspace(0, 1, 9), operators=np.zeros((9, 3, 3), complex))
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        rho0 = np.outer(psi, psi.conj())
        traj = zeno_master_reference(op, projs0, rho0)
        target = nonselective_step(rho0, projs0)
        assert trace_distance(traj.final, target) <= 1e-12

    def test_matches_zeno_gate_for_subspace_state(self):
        n = 1024
        path = circle_path(windings=1, samples=n + 1)
        uniform = frame_path_analytic_three_level(path)
        s = uniform.times
        # the same loop on a nonuniform grid t = s + 0.2 s (1 - s)
        warped = FramePath(times=s + 0.2 * s * (1 - s), frames=uniform.frames, projectors0=uniform.projectors0)
        _, em, _ = three_level_eigenbasis(0.0)
        rho0 = np.outer(em, em.conj())
        for frames in (uniform, warped):
            hz = zeno_hamiltonian(None, frames, 0)
            final = zeno_master_reference(hz, frames.projectors0, rho0).final
            uz = zeno_unitary(hz)
            target = uz @ rho0 @ uz.conj().T
            assert trace_distance(final, target) <= 1e-6

    def test_coherences_never_regenerate(self):
        n = 512
        path = circle_path(windings=1, samples=n + 1)
        frames = frame_path_analytic_three_level(path)
        hz = zeno_hamiltonian(None, frames, 0)
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        p0 = frames.projectors0[0]
        p1 = frames.projectors0[1]
        for m in range(1, 9):  # endpoints after the first n/8, 2n/8, ..., n steps
            head = OperatorPath(times=hz.times[: m * n // 8 + 1], operators=hz.operators[: m * n // 8 + 1])
            rho = zeno_master_reference(head, frames.projectors0, np.outer(psi, psi.conj())).final
            assert spectral_norm(p0 @ rho @ p1) <= 1e-10


class TestDephasingFixedPoint:
    def test_zero_time_worst_probe(self):
        diss = static_dissipator(10.0)
        assert dephasing_fixed_point_check(diss, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_long_time_contraction(self):
        # gamma * t * gap^2 / 2 = 20 -> distance <= 1e-8
        gamma = 40.0
        diss = static_dissipator(gamma)
        assert dephasing_fixed_point_check(diss, 1.0) <= 1e-8

    def test_block_diagonal_probes_stay_fixed(self, projs0):
        diss = static_dissipator(7.0)
        _, em, e0 = three_level_eigenbasis(0.0)
        probes = [np.outer(em, em.conj()), np.outer(e0, e0.conj())]
        assert dephasing_fixed_point_check(diss, 0.5, probes=probes) <= 1e-9

    def test_exponential_decay_in_probe_time(self):
        gamma = 8.0
        diss = static_dissipator(gamma)
        d1 = dephasing_fixed_point_check(diss, 0.25)
        d2 = dephasing_fixed_point_check(diss, 0.5)
        assert d2 == pytest.approx(d1**2, rel=0.05)  # pure exponential in t


def test_integrate_master_samples_each_operator_once(recording):
    loop = loop_dissipator(2.0, 1.0)
    diss = DissipatorSpec(gamma=loop.gamma, alphas=loop.alphas, projectors_at=recording(loop.projectors_at))
    h = 0.3 * np.diag([1.0, -1.0, 0.0]).astype(complex)
    h0 = recording(lambda t: h)
    integrate_master(h0, diss, np.eye(3, dtype=complex) / 3, 1.0, 32)
    assert h0.shapes == [(65,)]
    assert diss.projectors_at.shapes == [(65,)]
