"""Rotation-angle runs (analytic three-level and wagon-wheel frames) against the general path, and the batched
nonselective run."""

from pathlib import Path

import numpy as np
import pytest

from zenogate import dissipative as dis
from zenogate import runner
from zenogate import zeno as zn
from zenogate.adiabatic import _midpoint_propagators, rotating_generator
from zenogate.errors import InsufficientSamples
from zenogate.linalg import (_range_basis, expm_hermitian, expm_hermitian_stack, random_hermitian, spectral_norm,
                             trace_distance)
from zenogate.scenario import load_scenario, scenario_from_dict
from zenogate.spectral import FramePath, circle_path, frame_path_analytic_three_level, three_level_projectors
from zenogate.zeno import ControlConfig, control_hamiltonian, nonselective_zeno_evolution

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
RECORD_FIELDS = ("p_N", "q_n", "fidelity", "phi_principal", "phi_expected", "distance", "trace_drift")

PATHS = {
    "circle_w-1": {"type": "circle", "windings": -1, "duration": 1.0},
    "circle_w0": {"type": "circle", "center": [3.0, 0.5], "radius": 1.0, "windings": 0, "duration": 1.3},
    "circle_w1": {"type": "circle", "center": [0.2, -0.1], "radius": 0.7, "windings": 1, "duration": 2.0},
    "circle_w2": {"type": "circle", "windings": 2, "duration": 1.0},
    "polyline": {"type": "polyline", "points": [[1, 0], [0, 1.5], [-1, 0], [0, -0.8], [1, 0]], "duration": 1.0},
    "samples": {"type": "samples", "times": [0.0, 0.3, 0.5, 1.1, 1.6], "a": [1.0, 0.2, -0.9, 0.1, 1.0],
                "b": [0.0, 1.1, 0.3, -1.2, 0.0]},
}
WAGON_WHEEL = [[0.0, 0.0, 0.0], [0.0, 0.0, [0.0, -1.0]], [0.0, [0.0, 1.0], 0.0]]  # the shipped H_0: G^3 = G
RANDOM_H0 = [[[z.real, z.imag] for z in row] for row in random_hermitian(3, np.random.default_rng(3), scale=0.7)]
CONTROLS = {"none": {"mode": "none"}, "alpha_frame": {"mode": "alpha_frame", "alpha": 0.35},
            "wagon_wheel": {"mode": "wagon_wheel", "hamiltonian": WAGON_WHEEL},
            "wagon_wheel_eigh": {"mode": "wagon_wheel", "hamiltonian": RANDOM_H0}}


def _scenario(path, control, **overrides):
    data = {"engine": "zeno", "path": PATHS[path], "control": CONTROLS[control], "N": 64,
            "initial_state": {"name": "E_minus"}, **overrides}
    return scenario_from_dict(data)


def _general_record(monkeypatch, scenario):
    """The record of `scenario` with the rotation-angle form switched off."""
    def sampled(scenario, path, frames):
        h0 = control_hamiltonian(scenario.control, path)
        return zn._SampledRun(h0, frames, rotating_generator(h0, frames))

    with monkeypatch.context() as m:
        m.setattr(runner, "_route", sampled)
        return runner.run(scenario)


def _assert_records_match(rec, ref, tol, fields=RECORD_FIELDS):
    for name in fields:
        a, b = getattr(rec, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a == pytest.approx(b, abs=tol), name


# The general route differentiates the frames by central differences; the rotation form reads its angles off phi.
# Fields that do not depend on that quotient agree to rounding, distance and fidelity only to second order.
EXACT_FIELDS = tuple(f for f in RECORD_FIELDS if f not in ("distance", "fidelity"))


def _assert_second_order(gaps):
    """Each gap is a quarter of the one before: a second-order error, halved step by step."""
    assert min(gaps) > 0.0
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert ratios == pytest.approx(4.0, rel=0.05), ratios


def _rotation_route(scenario, frames):
    """The route `runner._route` picks for `scenario`, checked to be the rotation form."""
    route = runner._route(scenario, None, frames)
    assert isinstance(route, zn._RotationRun)
    return route


def _general_gate(scenario, path, frames, level):
    h0 = control_hamiltonian(scenario.control, path)
    return zn._SampledRun(h0, frames, rotating_generator(h0, frames)).gate(level)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", [16, 64, 1024])
@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("control", CONTROLS)
def test_rotation_form_matches_general_path(monkeypatch, control, level, n, path):
    scenario = _scenario(path, control, N=n, level=level,
                         initial_state={"name": "E_minus" if level == 0 else "E_plus"})
    path_, frames, _ = runner._frames_for(scenario, samples=n + 1)
    rotation = _rotation_route(scenario, frames)
    h0 = control_hamiltonian(scenario.control, path_)
    for q in (_range_basis(frames.projectors0[level]), np.eye(3)):
        assert np.abs(rotation.factors(n, q) - zn._interval_factors(h0, frames, n, q)).max() <= 1e-12
    rec, ref = runner.run(scenario), _general_record(monkeypatch, scenario)
    _assert_records_match(rec, ref, 1e-10, EXACT_FIELDS)
    # Both records score the same V_N; only the gates they score it against differ.
    gap = spectral_norm(rotation.gate(level) - _general_gate(scenario, path_, frames, level))
    assert abs(rec.distance - ref.distance) <= gap + 1e-12
    assert abs(rec.fidelity - ref.fidelity) <= 2.0 * gap + 1e-12


@pytest.mark.parametrize("path", ["circle_w1", "polyline", "samples"])
@pytest.mark.parametrize("control", CONTROLS)
def test_general_gate_converges_to_rotation_gate(control, path):
    gaps = []
    for n in (64, 128, 256, 512):
        scenario = _scenario(path, control, N=n)
        path_, frames, _ = runner._frames_for(scenario, samples=n + 1)
        gate = _rotation_route(scenario, frames).gate(0)
        gaps.append(spectral_norm(gate - _general_gate(scenario, path_, frames, 0)))
    _assert_second_order(gaps)


@pytest.mark.parametrize("nonselective", [False, True])
@pytest.mark.parametrize("control", CONTROLS)
def test_single_measurement_has_no_frame_derivative(monkeypatch, control, nonselective):
    """At N = 1 the general route refuses; the rotation form needs no derivative, only the angle phi(T)."""
    scenario = _scenario("circle_w1", control, N=1, nonselective=nonselective)
    with pytest.raises(InsufficientSamples):
        _general_record(monkeypatch, scenario)
    rec = runner.run(scenario)
    # The one factor is F_0 = W(T)^dag exp(-i alpha phi(T) G) = exp(-i (alpha - 1) phi(T) G), and the gate on level n
    # is exp(-i (alpha - 1) phi(T) Q^dag G Q).  Wagon-wheel frames have G = H_0, phi = 2t and alpha = 1/2; the
    # three-level ones G = g, phi(T) = 2 pi (one winding) and the control's alpha.
    path_, frames, _ = runner._frames_for(scenario, samples=2)
    if scenario.control.mode == "wagon_wheel":
        g, phi, alpha = scenario.control.hamiltonian, 2.0 * float(frames.times[-1]), 0.5
    else:
        g, phi, alpha = frames.generator, 2.0 * np.pi, scenario.control.alpha
    psi0 = runner._initial_vector(scenario, path_)
    wt, factor = expm_hermitian(g, -1j * phi), expm_hermitian(g, -1j * (alpha - 1.0) * phi)
    qs = [_range_basis(p) for p in frames.projectors0]
    gate = sum(q @ expm_hermitian(q.conj().T @ g @ q, -1j * (alpha - 1.0) * phi) @ q.conj().T for q in qs)
    if not nonselective:
        q = qs[0]
        v = wt @ q @ q.conj().T @ factor @ q @ q.conj().T
        assert rec.p_N == pytest.approx(np.linalg.norm(v @ psi0) ** 2, abs=1e-12)
        assert rec.distance == pytest.approx(spectral_norm(v - wt @ gate @ frames.projectors0[0]), abs=1e-12)
        return
    dephased = zn.nonselective_step(np.outer(psi0, psi0.conj()), frames.projectors0)
    rho = wt @ zn.nonselective_step(factor @ dephased @ factor.conj().T, frames.projectors0) @ wt.conj().T
    pred = wt @ gate @ dephased @ gate.conj().T @ wt.conj().T
    assert rec.distance == pytest.approx(trace_distance(rho, pred), abs=1e-12)
    assert rec.trace_drift <= 1e-12


@pytest.mark.parametrize("path", ["circle_w1", "polyline", "samples"])
@pytest.mark.parametrize("control", CONTROLS)
def test_nonselective_rotation_form_matches_general_path(monkeypatch, control, path):
    scenario = _scenario(path, control, N=512, nonselective=True,
                         initial_state={"amplitudes": [0.8, 0.36, -0.48]})
    rec, ref = runner.run(scenario), _general_record(monkeypatch, scenario)
    _assert_records_match(rec, ref, 1e-10, EXACT_FIELDS)
    path_, frames, _ = runner._frames_for(scenario, samples=513)
    rotation = _rotation_route(scenario, frames)
    gates = [rotation.gate(n) - _general_gate(scenario, path_, frames, n) for n in (0, 1)]
    assert abs(rec.distance - ref.distance) <= sum(spectral_norm(g) for g in gates) + 1e-12


@pytest.mark.parametrize("path", ["circle_w1", "polyline"])
@pytest.mark.parametrize("control", CONTROLS)
def test_dissipative_rotation_form_matches_general_path(monkeypatch, control, path):
    scenario = scenario_from_dict({"engine": "dissipative", "path": PATHS[path], "control": CONTROLS[control],
                                   "gamma": 300.0, "alphas": [0.0, 1.0],
                                   "initial_state": {"amplitudes": [1.0, 0.0, 0.0]}})
    _assert_records_match(runner.run(scenario), _general_record(monkeypatch, scenario), 1e-10, EXACT_FIELDS)
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    gaps = []
    for samples in (2049, 4097, 8193, 16385):
        path_, frames, _ = runner._frames_for(scenario, samples=samples)
        general = rotating_generator(control_hamiltonian(scenario.control, path_), frames)
        rotation = _rotation_route(scenario, frames).rotating_generator()
        rho = [dis.integrate_rotating(k, frames, 300.0, (0.0, 1.0), rho0, 512).final for k in (rotation, general)]
        gaps.append(np.abs(rho[0] - rho[1]).max())
    _assert_second_order(gaps)


SHIPPED_ROTATION_RUNS = ["zeno_winding_one", "zeno_winding_two", "zeno_no_winding", "zeno_alpha_half",
                         "dephasing_superposition", "wagon_wheel"]


@pytest.mark.parametrize("name", SHIPPED_ROTATION_RUNS)
def test_predicted_gate_is_free_of_n(name):
    base = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    limits = []
    for n in (16, 2**14):
        scenario = scenario_from_dict({**base.raw, "N": n})
        _, frames, _ = runner._frames_for(scenario, samples=n + 1)
        rotation = _rotation_route(scenario, frames)
        limits.append(frames.final @ rotation.gate(0) @ rotation.gate(1))
    assert spectral_norm(limits[0] - limits[1]) <= 1e-10


def test_wagon_wheel_gate_is_the_time_reversed_drive():
    """The shipped wagon wheel's Zeno limit on level 0 is exp(+i T P_0 H_0 P_0) exactly, at any N."""
    scenario = scenario_from_dict({**load_scenario(SCENARIO_DIR / "wagon_wheel.yaml").raw, "N": 16})
    _, frames, _ = runner._frames_for(scenario, samples=17)
    p0, h0 = frames.projectors0[0], scenario.control.hamiltonian
    reversed_gate = expm_hermitian(p0 @ h0 @ p0, 1j * frames.times[-1])
    assert spectral_norm(_rotation_route(scenario, frames).gate(0) - reversed_gate) <= 1e-12


def test_slow_loop_record_is_free_of_samples():
    base = load_scenario(SCENARIO_DIR / "adiabatic_slow_loop.yaml")
    records = [runner.run(scenario_from_dict({**base.raw, "path": {**base.raw["path"], "samples": samples}}))
               for samples in (129, 513, 2049, 8193)]
    for record in records[1:]:
        _assert_records_match(record, records[0], 1e-10)


def _stepwise_nonselective(h0_of_t, frames, n, rho0):
    """The step-by-step nonselective loop: dephase, then per interval propagate, dephase and renormalize."""
    idx = np.arange(0, frames.times.size, (frames.times.size - 1) // n)
    wm = frames.frames[idx]
    projs = np.einsum("kij,njl,kml->knim", wm, frames.projectors0, wm.conj())
    u0 = None if h0_of_t is None else _midpoint_propagators(h0_of_t, frames.times[idx])
    rho = zn._dephase(np.asarray(rho0, dtype=complex), projs[0])
    for k in range(n):
        if u0 is not None:
            rho = u0[k] @ rho @ u0[k].conj().T
        rho = zn._dephase(rho, projs[k + 1])
        rho = rho / float(np.trace(rho).real)
    return rho


def _mixed_state(dim, rng):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def _nonselective_case(case, rng):
    """(h0, frames, N): N = 1, wagon wheel and alpha control past one batch, a d = 4 custom control past several."""
    if case == "single_step":
        path = circle_path(samples=2)
        return None, frame_path_analytic_three_level(path), 1
    if case == "wagon_wheel":
        h = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
        times = np.linspace(0.0, np.pi, 2501)
        return (lambda t: h), zn.wagon_wheel_frames(h, times, three_level_projectors(0.0)), 2500
    if case == "alpha_frame":
        path = circle_path(windings=2, samples=2 * 1100 + 1)
        h0 = control_hamiltonian(ControlConfig(mode="alpha_frame", alpha=0.4), path)
        return h0, frame_path_analytic_three_level(path), 1100
    times = np.linspace(0.0, 1.0, 701)
    g = random_hermitian(4, rng)
    basis = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    projectors0 = np.stack([basis[:, :2] @ basis[:, :2].conj().T, np.outer(basis[:, 2], basis[:, 2].conj()),
                            np.outer(basis[:, 3], basis[:, 3].conj())])
    frames = FramePath(times=times, frames=expm_hermitian_stack(np.broadcast_to(g, (701, 4, 4)), -1j * times),
                       projectors0=projectors0)
    h0 = control_hamiltonian(ControlConfig(mode="custom", hamiltonian=random_hermitian(4, rng, scale=3.0)))
    return h0, frames, 700


@pytest.mark.parametrize("case", ["single_step", "wagon_wheel", "alpha_frame", "custom_d4"])
def test_batched_nonselective_matches_stepwise_loop(rng, case):
    h0, frames, n = _nonselective_case(case, rng)
    rho0 = _mixed_state(frames.dim, rng)
    out = nonselective_zeno_evolution(h0, frames, n, rho0)
    assert np.abs(out - _stepwise_nonselective(h0, frames, n, rho0)).max() <= 1e-12
    assert np.array_equal(out, out.conj().T)


def _count_calls(monkeypatch):
    """Count the general route's builders; the list collects each route `runner._route` returns."""
    calls = {"rotating_generator": 0, "_interval_factors": 0}
    routes, choose = [], runner._route

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def route(*args):
        routes.append(choose(*args))
        return routes[-1]

    monkeypatch.setattr(runner, "rotating_generator", counted("rotating_generator", rotating_generator))
    monkeypatch.setattr(zn, "_interval_factors", counted("_interval_factors", zn._interval_factors))
    monkeypatch.setattr(runner, "_route", route)
    return calls, routes


CUSTOM_CONTROL = [[0.3, 0.1, 0.0], [0.1, -0.2, [0.0, 0.4]], [0.0, [0.0, -0.4], 0.0]]


@pytest.mark.parametrize("overrides", [{"N": 256}, {"N": 256, "control": {"mode": "alpha_frame", "alpha": 0.5}},
                                       {"N": 256, "nonselective": True},
                                       {"engine": "dissipative", "gamma": 100.0, "alphas": [0.0, 1.0]},
                                       {"engine": "adiabatic"},
                                       {"N": 256, "control": CONTROLS["wagon_wheel"]},
                                       {"N": 256, "nonselective": True, "control": CONTROLS["wagon_wheel"]},
                                       {"engine": "dissipative", "gamma": 100.0, "alphas": [0.0, 1.0],
                                        "control": CONTROLS["wagon_wheel"]}],
                         ids=["none", "alpha_frame", "nonselective", "dissipative", "adiabatic", "wagon_wheel",
                              "wagon_wheel_nonselective", "wagon_wheel_dissipative"])
def test_rotation_form_skips_the_general_path(monkeypatch, overrides):
    calls, routes = _count_calls(monkeypatch)
    data = {"engine": "zeno", "path": {"type": "circle", "windings": 1},
            "initial_state": {"name": "E_minus"}, **overrides}
    runner.run(scenario_from_dict(data))
    assert calls == {"rotating_generator": 0, "_interval_factors": 0}
    assert [type(route) for route in routes] == [zn._RotationRun]


ENGINE_DATA = {"zeno": {"N": 256}, "adiabatic": {}, "dissipative": {"gamma": 100.0, "alphas": [0.0, 1.0]}}
# The custom model is the non-degenerate diag(0, 1, 3 + cos 2 pi t), which every engine tracks.
GENERAL_RUNS = {"tracked": ("zeno", {"frame_method": "tracked"}),
                "custom_control": ("zeno", {"control": {"mode": "custom", "hamiltonian": CUSTOM_CONTROL}}),
                "custom_model": ("zeno", "custom_model"),
                "adiabatic_tracked": ("adiabatic", {"frame_method": "tracked"}),
                "adiabatic_custom_model": ("adiabatic", "custom_model"),
                "dissipative_tracked": ("dissipative", {"frame_method": "tracked"}),
                "dissipative_custom_control": ("dissipative",
                                               {"control": {"mode": "custom", "hamiltonian": CUSTOM_CONTROL}})}


@pytest.mark.parametrize("case", GENERAL_RUNS)
def test_other_runs_take_the_general_path(monkeypatch, case):
    engine, overrides = GENERAL_RUNS[case]
    calls, routes = _count_calls(monkeypatch)
    data = {"engine": engine, "path": {"type": "circle", "windings": 1},
            "initial_state": {"name": "E_minus"}, **ENGINE_DATA[engine]}
    if overrides == "custom_model":
        hams = []
        for t in np.linspace(0.0, 1.0, 257):
            h = np.diag([0.0, 1.0, 3.0 + np.cos(2 * np.pi * t)])
            hams.append({"t": float(t), "matrix": h.tolist()})
        data.update(model={"type": "custom", "hamiltonians": hams}, initial_state={"amplitudes": [1.0, 0.0, 0.0]})
        del data["path"]
    else:
        data.update(overrides)
    runner.run(scenario_from_dict(data))
    # Only Zeno runs multiply interval factors; the adiabatic and dissipative engines read K alone.
    assert calls == {"rotating_generator": 1, "_interval_factors": 1 if engine == "zeno" else 0}
    assert [type(route) for route in routes] == [zn._SampledRun]
