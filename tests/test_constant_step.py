"""Runs whose rotating-frame generator K is constant take one matrix power: against the ordered product of N factors,
and the runs that keep their N-factor routes."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from zenogate import dissipative as dis
from zenogate import runner, spectral
from zenogate import zeno as zn
from zenogate.errors import IncompleteResolution, InsufficientSamples, ZeroSurvival
from zenogate.linalg import random_hermitian
from zenogate.scenario import load_scenario, scenario_from_dict
from zenogate.spectral import FramePath, three_level_projectors

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
RECORD_FIELDS = ("p_N", "q_n", "fidelity", "phi_principal", "phi_expected", "distance", "trace_drift")

CENTRED = {"type": "circle", "radius": 0.8, "windings": -1, "duration": 1.3}
POLYLINE = {"type": "polyline", "points": [[1, 0], [0, 1.5], [-1, 0], [0, -0.8], [1, 0]], "duration": 1.0}
OFF_CENTRE = {"type": "circle", "center": [0.2, -0.1], "radius": 0.7, "windings": 1, "duration": 2.0}
SAMPLES = {"type": "samples", "times": [0.0, 0.3, 0.5, 1.1, 1.6], "a": [1.0, 0.2, -0.9, 0.1, 1.0],
           "b": [0.0, 1.1, 0.3, -1.2, 0.0]}
WAGON_WHEEL = [[0.0, 0.0, 0.0], [0.0, 0.0, [0.0, -1.0]], [0.0, [0.0, 1.0], 0.0]]  # the shipped H_0: G^3 = G
RANDOM_H0 = [[[z.real, z.imag] for z in row] for row in random_hermitian(3, np.random.default_rng(3), scale=0.7)]
# Covered runs: a centred circle under control none or alpha_frame, and wagon-wheel controls on any path.
COVERED = {"none": (CENTRED, {"mode": "none"}),
           "alpha_frame": (CENTRED, {"mode": "alpha_frame", "alpha": 0.35}),
           "wagon_wheel": (POLYLINE, {"mode": "wagon_wheel", "hamiltonian": WAGON_WHEEL}),
           "wagon_wheel_eigh": (CENTRED, {"mode": "wagon_wheel", "hamiltonian": RANDOM_H0})}


def _covered(control, n, nonselective):
    path, config = COVERED[control]
    initial = {"amplitudes": [0.8, 0.36, -0.48]} if nonselective else {"name": "E_minus"}
    return scenario_from_dict({"engine": "zeno", "path": path, "control": config, "N": n,
                               "nonselective": nonselective, "initial_state": initial})


def _run(monkeypatch, scenario, power=True):
    """The record of `scenario`, or the exception it ends in; power=False forces N ordered factors."""
    with monkeypatch.context() as m:
        if not power:
            m.setattr(runner, "_constant_step", lambda *args: None)
        try:
            return runner.run(scenario)
        except (InsufficientSamples, ZeroSurvival) as exc:
            return type(exc)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 1024, 2**14, 2**16])
@pytest.mark.parametrize("nonselective", [False, True], ids=["selective", "nonselective"])
@pytest.mark.parametrize("control", COVERED)
def test_power_matches_the_ordered_product(monkeypatch, control, nonselective, n):
    scenario = _covered(control, n, nonselective)
    rec, ref = _run(monkeypatch, scenario), _run(monkeypatch, scenario, power=False)
    if isinstance(ref, type):
        # At N = 2 without control, each half turn of the clockwise loop maps E_minus onto E_plus on both routes.
        assert rec is ref is ZeroSurvival and (control, n, nonselective) == ("none", 2, False)
        return
    for name in RECORD_FIELDS:
        a, b = getattr(rec, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a == pytest.approx(b, abs=1e-11), name


def _spy_tails(monkeypatch):
    """Arguments of every `_selective`/`_nonselective` call: (number of factors, repeats)."""
    seen = []
    for name in ("_selective", "_nonselective"):
        original = getattr(zn, name)

        def spy(frames, *args, _original=original):
            factors, repeats = args[-3], args[-1]  # (q,) factors, initial state, repeats
            seen.append((len(factors), repeats))
            return _original(frames, *args)
        monkeypatch.setattr(zn, name, spy)
    return seen


def _count(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    return calls


@pytest.mark.parametrize("nonselective", [False, True], ids=["selective", "nonselective"])
@pytest.mark.parametrize("control", COVERED)
def test_covered_runs_build_one_factor_and_no_stack(monkeypatch, control, nonselective):
    seen = _spy_tails(monkeypatch)
    factors = _count(monkeypatch, zn._RotationRun, "factors")
    products = _count(monkeypatch, zn, "ordered_product")
    stacks = _count(monkeypatch, spectral._RotationFramePath.frames, "func")
    for n in (16, 2**14):
        runner.run(_covered(control, n, nonselective))
    assert seen == [(1, 16), (1, 2**14)]
    assert factors == [] and stacks == []
    # A nonselective run folds its one power as one step; a selective run takes no ordered product at all.
    assert len(products) == (2 if nonselective else 0)


@pytest.mark.parametrize("name", ["zeno_winding_one", "zeno_winding_two", "zeno_alpha_half", "wagon_wheel",
                                  "dephasing_superposition"])
def test_shipped_covered_runs_take_one_power(monkeypatch, name):
    seen = _spy_tails(monkeypatch)
    scenario = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    runner.run(scenario)
    assert seen == [(1, scenario.N)]


def _route(monkeypatch):
    """Which N-factor route each run takes, and what `_constant_step` returned."""
    calls = {"steps": [], "rotation_factors": _count(monkeypatch, zn._RotationRun, "factors"),
             "interval_factors": _count(monkeypatch, zn, "_interval_factors"),
             "integrate_rotating": _count(monkeypatch, dis, "integrate_rotating")}
    original = runner._constant_step
    monkeypatch.setattr(runner, "_constant_step",
                        lambda *args: calls["steps"].append(original(*args)) or calls["steps"][-1])
    return calls


def _custom_model():
    hams = [{"t": float(t), "matrix": np.diag([0.0, 1.0, 3.0 + np.cos(2 * np.pi * t)]).tolist()}
            for t in np.linspace(0.0, 1.0, 257)]
    return {"engine": "zeno", "model": {"type": "custom", "hamiltonians": hams}, "N": 256,
            "initial_state": {"amplitudes": [1.0, 0.0, 0.0]}}


@pytest.mark.parametrize("document, route", [
    (SCENARIO_DIR / "zeno_no_winding.yaml", "rotation_factors"),
    ({"engine": "zeno", "path": OFF_CENTRE, "N": 256, "nonselective": True,
      "initial_state": {"name": "E_minus"}}, "rotation_factors"),
    ({"engine": "zeno", "path": POLYLINE, "N": 256, "initial_state": {"name": "E_minus"}}, "rotation_factors"),
    ({"engine": "zeno", "path": SAMPLES, "N": 256, "control": {"mode": "alpha_frame", "alpha": 0.5},
      "initial_state": {"name": "E_minus"}}, "rotation_factors"),
    ({"engine": "zeno", "path": CENTRED, "N": 256, "frame_method": "tracked",
      "initial_state": {"name": "E_minus"}}, "interval_factors"),
    ({"engine": "zeno", "path": CENTRED, "N": 256, "nonselective": True, "initial_state": {"name": "E_minus"},
      "control": {"mode": "custom", "hamiltonian": RANDOM_H0}}, "interval_factors"),
    (_custom_model(), "interval_factors"),
    (SCENARIO_DIR / "dissipative_gate.yaml", "integrate_rotating"),
], ids=["zeno_no_winding", "off_centre_nonselective", "polyline", "samples", "tracked", "custom_control",
        "custom_model", "dissipative_gate"])
def test_other_runs_keep_their_routes(monkeypatch, document, route):
    calls = _route(monkeypatch)
    scenario = load_scenario(document) if isinstance(document, Path) else scenario_from_dict(document)
    runner.run(scenario)
    assert calls["steps"] == ([] if route == "integrate_rotating" else [None])
    for name in ("rotation_factors", "interval_factors", "integrate_rotating"):
        assert len(calls[name]) == (1 if name == route else 0), name


@pytest.mark.parametrize("windings, n", [(-1, 2), (2, 4), (-3, 6)])
def test_half_turn_grids_take_one_power(monkeypatch, windings, n):
    """Every half-turn step is read on the circle's own turn, so the steps are one repeated factor."""
    calls = _route(monkeypatch)
    path = {**CENTRED, "windings": windings}
    runner.run(scenario_from_dict({"engine": "zeno", "path": path, "N": n, "nonselective": True,
                                   "initial_state": {"name": "E_minus"}}))
    assert calls["steps"] != [None] and calls["rotation_factors"] == []


@pytest.mark.parametrize("windings, n", [(-1, 2), (2, 4), (-2, 4), (-3, 6)])
def test_half_turn_grids_follow_the_declared_loop(windings, n):
    """At alpha = 1/2 the predicted angle is (1 - alpha) 2 pi windings / sqrt(2), and the lab-frame gate W(T) U_Z
    is the same at N = 2 |windings| as at N = 2^14."""
    gates = []
    for count in (n, 2**14):
        scenario = scenario_from_dict({"engine": "zeno", "path": {**CENTRED, "windings": windings}, "N": count,
                                       "control": {"mode": "alpha_frame", "alpha": 0.5},
                                       "initial_state": {"name": "E_minus"}})
        record = runner.run(scenario)
        assert record.phi_expected == pytest.approx(0.5 * 2 * np.pi * windings / np.sqrt(2.0), abs=1e-12)
        path, frames, _ = runner._frames_for(scenario, samples=count + 1)
        gates.append(frames.final @ runner._route(scenario, path, frames).gate(0))
    assert np.abs(gates[0] - gates[1]).max() <= 1e-12


@pytest.mark.parametrize("path", [OFF_CENTRE, POLYLINE, SAMPLES], ids=["off_centre", "polyline", "samples"])
def test_n_factor_nonselective_run_reads_no_frame_stack(monkeypatch, path):
    """An N-factor rotation-form run checks W(T) and its factors for unitarity, not the (N + 1, d, d) frame stack."""
    stacks = _count(monkeypatch, spectral._RotationFramePath.frames, "func")
    record = runner.run(scenario_from_dict({"engine": "zeno", "path": path, "N": 64, "nonselective": True,
                                            "initial_state": {"name": "E_minus"}}))
    assert stacks == [] and record.trace_drift <= 1e-12


def random_unitary(dim, rng):
    return np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]


class TestRepeatedFactorCheck:
    """A nonselective run is checked on exactly the unitaries it uses: W(T) and each factor F_k (one if repeated)."""

    @staticmethod
    def frames(final):
        stack = np.concatenate([np.broadcast_to(np.eye(3), (7, 3, 3)), final[None]])
        return FramePath(times=np.linspace(0.0, 1.0, 8), frames=stack, projectors0=np.stack(three_level_projectors(0.3)))

    def test_unitary_factor_and_frame_pass(self, rng):
        u, f = random_unitary(3, rng), random_unitary(3, rng)
        rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        power = zn._nonselective(self.frames(u), f[None], rho0, 7)
        product = zn._nonselective(self.frames(u), np.broadcast_to(f, (7, 3, 3)), rho0)
        assert np.abs(power.final - product.final).max() <= 1e-13

    def test_non_unitary_factor_is_refused(self, rng):
        with pytest.raises(IncompleteResolution):
            zn._nonselective(self.frames(random_unitary(3, rng)), 1.01 * random_unitary(3, rng)[None], np.eye(3), 7)

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_one_non_unitary_factor_of_n_is_refused(self, rng, k):
        factors = np.stack([random_unitary(3, rng) for _ in range(7)])
        factors[k] *= 1.01
        with pytest.raises(IncompleteResolution):
            zn._nonselective(self.frames(random_unitary(3, rng)), factors, np.eye(3))

    def test_non_unitary_final_frame_is_refused(self, rng):
        with pytest.raises(IncompleteResolution):
            zn._nonselective(self.frames(1.01 * random_unitary(3, rng)), random_unitary(3, rng)[None], np.eye(3), 7)


WAGON_T1 = {  # wagon_wheel.yaml with duration 1.0: (p_N, nonselective distance) at N = 1, 2, 4
    1: (0.9471695075024621, 0.08117349786247152),
    2: (0.9665363406818039, 0.05053876088963137),
    4: (0.9821041520607451, 0.027569506673279606),
}


@pytest.mark.parametrize("n", WAGON_T1)
def test_wagon_wheel_small_n_records(n):
    raw = load_scenario(SCENARIO_DIR / "wagon_wheel.yaml").raw
    data = {**raw, "N": n, "path": {**raw["path"], "duration": 1.0}}
    p_n, distance = WAGON_T1[n]
    assert runner.run(scenario_from_dict(data)).p_N == pytest.approx(p_n, abs=1e-12)
    dephased = runner.run(scenario_from_dict({**data, "nonselective": True}))
    assert dephased.distance == pytest.approx(distance, abs=1e-12)
    assert dephased.trace_drift <= 1e-12


def test_wagon_wheel_single_measurement_at_pi():
    """At T = pi the one factor exp(+i H_0 pi) maps E_minus onto E_plus: nothing survives selectively."""
    raw = load_scenario(SCENARIO_DIR / "wagon_wheel.yaml").raw
    with pytest.raises(ZeroSurvival):
        runner.run(scenario_from_dict({**raw, "N": 1}))
    assert runner.run(scenario_from_dict({**raw, "N": 1, "nonselective": True})).distance == pytest.approx(1.0)


@pytest.mark.parametrize("duration", [2.3e-308, 1e-300, 1e-100])
def test_adiabatic_closed_form_at_tiny_durations(duration):
    """K T = 2 r T P_+(theta_0) - 2 pi windings g is formed without dtheta/dt = 2 pi windings / T, which overflows
    below T of about 1e-307: the run ends as the sudden limit, U(T) = exp(2 pi i windings g) = 1, leaving nothing."""
    data = load_scenario(SCENARIO_DIR / "adiabatic_slow_loop.yaml").raw
    scenario = scenario_from_dict({**data, "path": {**data["path"], "duration": duration}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        record = runner.run(scenario)
    assert all(np.isfinite(getattr(record, field)) for field in ("q_n", "fidelity", "distance"))
    assert record.q_n <= 1e-12
