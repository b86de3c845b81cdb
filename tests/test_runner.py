import copy
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from zenogate import adiabatic, dissipative, runner, spectral, zeno
from zenogate import scenario as scenario_module
from zenogate.adiabatic import rotating_generator
from zenogate.errors import AxisMismatch, ValidationError
from zenogate.runner import CSV_COLUMNS, emit, run, sweep
from zenogate.scenario import ENGINE_KEYS, load_scenario, scenario_from_dict
from zenogate.linalg import expm_stack, spectral_norm
from zenogate.spectral import OperatorPath
from zenogate.zeno import control_hamiltonian, unwrap_angle

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def zeno_scenario(n=1024, **overrides):
    data = {
        "name": "t",
        "engine": "zeno",
        "path": {"type": "circle", "windings": 1, "duration": 1.0},
        "N": n,
        "initial_state": {"name": "E_minus"},
    }
    data.update(overrides)
    return scenario_from_dict(data)


class TestRun:
    def test_zeno_record_contents(self):
        rec = run(zeno_scenario(4096))
        assert rec.engine == "zeno"
        assert rec.p_N == pytest.approx(1.0, abs=5e-3)
        assert rec.phi_expected == pytest.approx(np.sqrt(2) * np.pi, abs=1e-12)
        assert abs(unwrap_angle(rec.phi_principal, rec.phi_expected) - rec.phi_expected) <= 1e-3
        assert rec.fidelity >= 0.999
        assert rec.distance <= 0.01
        assert rec.wall_ms > 0

    def test_determinism_across_runs(self):
        a = run(zeno_scenario(512))
        b = run(zeno_scenario(512))
        assert (a.p_N, a.phi_principal, a.distance, a.fidelity) == (
            b.p_N,
            b.phi_principal,
            b.distance,
            b.fidelity,
        )

    def test_nonselective_zeno_record(self):
        rec = run(zeno_scenario(2048, nonselective=True, initial_state={"amplitudes": [1, 0, 0]}))
        assert rec.p_N is None
        assert rec.distance <= 0.01
        assert rec.fidelity >= 0.99
        assert rec.trace_drift <= 1e-12

    def test_adiabatic_record(self):
        rec = run(
            scenario_from_dict(
                {
                    "engine": "adiabatic",
                    "path": {"type": "circle", "windings": 1, "duration": 102.1, "samples": 513},
                    "steps": 10000,
                    "initial_state": {"name": "E_minus"},
                }
            )
        )
        assert 0 <= rec.q_n <= 1e-3
        assert rec.fidelity >= 0.999
        assert rec.phi_expected == pytest.approx(np.sqrt(2) * np.pi, abs=1e-12)

    def test_dissipative_record(self):
        rec = run(
            scenario_from_dict(
                {
                    "engine": "dissipative",
                    "path": {"type": "circle", "windings": 1, "duration": 1.0},
                    "gamma": 100.0,
                    "initial_state": {"amplitudes": [1, 0, 0]},
                }
            )
        )
        assert rec.distance is not None and rec.distance < 0.5
        assert rec.trace_drift <= 1e-9

    def test_dissipative_budget_edge_runs_with_derived_steps(self):
        """gamma = 1e8 over T = 0.1 derives 1e4 steps; there dt * gamma rounds to 1000.0000000000001."""
        rec = run(
            scenario_from_dict(
                {
                    "engine": "dissipative",
                    "path": {"type": "circle", "windings": 1, "duration": 0.1},
                    "gamma": 1e8,
                    "initial_state": {"amplitudes": [1, 0, 0]},
                }
            )
        )
        assert rec.distance <= 1e-5
        assert rec.trace_drift <= 1e-9

    def test_custom_model_zeno(self):
        # three-level loop supplied as sampled matrices instead of the builtin;
        # the file grid matches the measurement grid so the degeneracy is exact
        n = 256
        thetas = np.linspace(0, 2 * np.pi, n + 1)
        hams = []
        for t, th in zip(np.linspace(0, 1, n + 1), thetas):
            m = np.array(
                [
                    [1, np.cos(th), np.sin(th)],
                    [np.cos(th), np.cos(th) ** 2, np.cos(th) * np.sin(th)],
                    [np.sin(th), np.cos(th) * np.sin(th), np.sin(th) ** 2],
                ]
            )
            hams.append({"t": float(t), "matrix": m.tolist()})
        s = scenario_from_dict(
            {
                "engine": "zeno",
                "model": {"type": "custom", "hamiltonians": hams},
                "N": n,
                "initial_state": {"amplitudes": [1.0, -1.0, 0.0]},
            }
        )
        rec = run(s)
        assert rec.p_N >= 0.9
        assert rec.distance <= 0.1


def sampled_unit_loop(samples, duration=1.0):
    """The unit circle of `zeno_scenario` given as explicit samples."""
    s = np.linspace(0.0, 1.0, samples)
    phi = 2 * np.pi * s
    return {"type": "samples", "times": (duration * s).tolist(), "a": np.cos(phi).tolist(),
            "b": np.sin(phi).tolist()}


def crossing_run(level):
    """Adiabatic custom 2x2 run whose two levels swap energy order at t = 0.3."""
    hams = [{"t": 0.0, "matrix": [[0.4, 0.0], [0.0, 0.6]]}, {"t": 0.6, "matrix": [[0.6, 0.0], [0.0, 0.4]]},
            {"t": 1.0, "matrix": [[0.7, 0.0], [0.0, 0.3]]}]
    return {"engine": "adiabatic", "model": {"type": "custom", "hamiltonians": hams}, "steps": 4096,
            "level": level, "initial_state": {"amplitudes": [1.0 - level, float(level)]}}


class TestConsistency:
    @pytest.mark.parametrize("engine, duration", [("zeno", 1.0), ("adiabatic", 2 * np.pi * 20.25)])
    def test_tracked_frames_give_the_analytic_angle(self, engine, duration):
        data = {
            "engine": engine,
            "path": {"type": "circle", "windings": 1, "duration": duration},
            "initial_state": {"name": "E_minus"},
        }
        if engine == "zeno":
            data["N"] = 4096
        analytic = run(scenario_from_dict(data))
        tracked = run(scenario_from_dict(dict(data, frame_method="tracked")))
        assert analytic.phi_principal is not None
        assert tracked.phi_principal == pytest.approx(analytic.phi_principal, abs=1e-6)

    @pytest.mark.parametrize("alphas", [[0.0], [0.0, 1.0, 2.0]])
    def test_alphas_must_match_level_count(self, alphas):
        data = {
            "engine": "dissipative",
            "path": {"type": "circle", "windings": 1, "duration": 1.0},
            "gamma": 100.0,
            "alphas": alphas,
            "initial_state": {"amplitudes": [1, 0, 0]},
        }
        with pytest.raises(ValidationError, match="alphas"):
            run(scenario_from_dict(data))

    def test_t_sweep_of_sampled_loop_matches_written_out_documents(self):
        sampled = scenario_from_dict({"engine": "adiabatic", "steps": 64, "initial_state": {"name": "E_minus"},
                                      "path": {**sampled_unit_loop(257), "samples": 257}})
        values = [4.0, 8.0]
        got = sweep(sampled, "T", values).records
        for b, value in zip(got, values):
            a = run(scenario_from_dict(_edited_document(sampled, "T", value)))
            for name in ("q_n", "fidelity", "distance"):
                assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-9)

    @pytest.mark.parametrize("engine, overrides", [
        ("zeno", {"N": 64, "control": {"mode": "alpha_frame", "alpha": 0.4}}),
        ("adiabatic", {}),
        ("dissipative", {"gamma": 100.0, "control": {"mode": "alpha_frame", "alpha": 0.4}}),
    ], ids=["zeno", "adiabatic", "dissipative"])
    def test_sampled_path_runs_as_the_polyline_through_its_knots(self, engine, overrides):
        """Uniform knots are the corners of a polyline: both resample onto the engine's grid alike."""
        theta = np.linspace(0.0, 2 * np.pi, 9)
        corners = np.column_stack([np.cos(theta), np.sin(theta)])
        sampled = {"type": "samples", "times": np.linspace(0.0, 1.0, 9).tolist(),
                   "a": corners[:, 0].tolist(), "b": corners[:, 1].tolist()}
        polyline = {"type": "polyline", "points": corners.tolist()}
        base = {"engine": engine, "initial_state": {"amplitudes": [1.0, 0.0, 0.0]}, **overrides}
        expected = run(scenario_from_dict(dict(base, path=polyline)))
        got = run(scenario_from_dict(dict(base, path=sampled)))
        fields = ("p_N", "q_n", "fidelity", "phi_principal", "distance", "trace_drift")
        assert any(getattr(expected, name) is not None for name in fields)
        for name in fields:
            if getattr(expected, name) is None:
                assert getattr(got, name) is None
            else:
                assert getattr(got, name) == pytest.approx(getattr(expected, name), abs=1e-12)

    @pytest.mark.parametrize("level", [0, 1])
    def test_tracked_energies_follow_levels_through_a_crossing(self, level):
        """diag(E_0, E_1) swaps energy order at t = 0.3; each level must keep its own dynamical phase."""
        assert run(scenario_from_dict(crossing_run(level))).distance <= 1e-7

    @pytest.mark.parametrize("level", [0, 1])
    def test_adiabatic_fidelity_at_most_one(self, level):
        """A gate reproduced to rounding must not report a fidelity above 1."""
        assert run(scenario_from_dict(crossing_run(level))).fidelity <= 1.0

    def test_sampled_loop_default_steps_follow_duration(self):
        t_final = 2 * np.pi * 10.25
        base = {"engine": "adiabatic", "path": sampled_unit_loop(2049, t_final), "initial_state": {"name": "E_minus"}}
        default = run(scenario_from_dict(base))
        explicit = run(scenario_from_dict(dict(base, steps=max(1024, int(np.ceil(100.0 * t_final))))))
        assert default.q_n == pytest.approx(explicit.q_n, rel=1e-9)


class TestSweep:
    @pytest.mark.parametrize(
        "axis, values, overrides",
        [("T", [2.0, 3.0], {}), ("alpha", [0.2, 0.4], {"control": {"mode": "alpha_frame", "alpha": 0.5}})],
    )
    def test_base_document_left_unmodified(self, axis, values, overrides):
        data = {"engine": "zeno", "path": {"type": "circle", "windings": 1, "duration": 1.0}, "N": 64,
                "initial_state": {"name": "E_minus"}, **overrides}
        scenario = scenario_from_dict(data)
        before = copy.deepcopy(scenario.raw)
        sweep(scenario, axis, values)
        assert scenario.raw == before

    def test_no_values_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="needs at least one value"):
            sweep(load_scenario(SCENARIO_DIR / "zeno_winding_one.yaml"), "N", [])

    def test_repeated_values_fit_no_slope(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = sweep(load_scenario(SCENARIO_DIR / "zeno_winding_one.yaml"), "N", [64, 64])
        assert summary.slopes == {}
        assert [r.axis_value for r in summary.records] == [64.0, 64.0]

    def test_n_axis_slopes(self):
        summary = sweep(zeno_scenario(), "N", [2**k for k in range(6, 11)])
        assert summary.slopes["survival_deficit"] == pytest.approx(-1.0, abs=0.15)
        assert summary.slopes["distance"] == pytest.approx(-1.0, abs=0.15)
        assert [r.axis_value for r in summary.records] == sorted(
            r.axis_value for r in summary.records
        )

    def test_alpha_axis_matches_prediction(self):
        base = zeno_scenario(4096, control={"mode": "alpha_frame", "alpha": 0.0})
        summary = sweep(base, "alpha", [0.0, 0.25, 0.5, 1.0])
        for rec in summary.records:
            expected = (1 - rec.axis_value) * np.sqrt(2) * np.pi
            assert rec.phi_expected == pytest.approx(expected, abs=1e-12)
            assert abs(unwrap_angle(rec.phi_principal, expected) - expected) <= 1e-3

    def test_dissipative_alpha_axis_runs_each_derived_scenario(self):
        data = {"engine": "dissipative", "path": {"type": "circle", "windings": 1, "duration": 1.0},
                "control": {"mode": "alpha_frame", "alpha": 0.5}, "gamma": 300.0, "alphas": [0.0, 1.0],
                "initial_state": {"amplitudes": [1.0, 0.0, 0.0]}}
        base = scenario_from_dict(data)
        summary = sweep(base, "alpha", [0.25, -0.5])
        assert [r.axis_value for r in summary.records] == [-0.5, 0.25]
        for rec in summary.records:
            expected = run(scenario_from_dict({**data, "control": {"mode": "alpha_frame", "alpha": rec.axis_value}}))
            assert rec.digest == expected.digest
            for name in CSV_COLUMNS[4:-1]:
                assert getattr(rec, name) == getattr(expected, name), name
        assert summary.records[0].distance != summary.records[1].distance

    def test_axis_engine_mismatch(self):
        with pytest.raises(AxisMismatch):
            sweep(zeno_scenario(), "gamma", [1.0, 2.0])
        with pytest.raises(AxisMismatch):
            sweep(zeno_scenario(), "alpha", [0.0, 0.5])  # control is not alpha_frame
        with pytest.raises(AxisMismatch):
            sweep(zeno_scenario(), "bogus", [1])

    def test_values_sorted_into_records(self):
        summary = sweep(zeno_scenario(), "N", [256, 64, 128])
        assert [r.axis_value for r in summary.records] == [64.0, 128.0, 256.0]

    def test_wagon_wheel_dissipative_gamma_axis_converges(self):
        """Wagon-wheel runs dephase along the frames exp(-2i H_0 t) that the prediction uses."""
        wagon = load_scenario(SCENARIO_DIR / "wagon_wheel.yaml").raw["control"]
        data = {
            "engine": "dissipative",
            "path": {"type": "circle", "windings": 1, "duration": 1.0},
            "control": wagon,
            "gamma": 30.0,
            "alphas": [0.0, 1.0],
            "initial_state": {"amplitudes": [1.0, 0.0, 0.0]},
        }
        summary = sweep(scenario_from_dict(data), "gamma", [30.0, 100.0, 300.0])
        distances = [r.distance for r in summary.records]
        assert distances[0] > distances[1] > distances[2]
        assert summary.slopes["distance"] == pytest.approx(-1.0, abs=0.3)


class TestEmit:
    def test_csv_single_record(self, tmp_path):
        rec = run(zeno_scenario(256))
        out = tmp_path / "one.csv"
        emit([rec], out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "t"
        assert row[-1] == ""  # wall_ms blank unless timing requested

    def test_csv_header_only_for_empty(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit([], out)
        assert out.read_text().strip() == ",".join(CSV_COLUMNS)

    def test_byte_identical_for_identical_scenarios(self, tmp_path):
        rec1 = run(zeno_scenario(512))
        rec2 = run(zeno_scenario(512))
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit([rec1], f1)
        emit([rec2], f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_timing_flag_fills_wall_ms(self, tmp_path):
        rec = run(zeno_scenario(256))
        out = tmp_path / "timed.csv"
        emit([rec], out, include_timing=True)
        assert out.read_text().strip().split("\n")[1].split(",")[-1] != ""

    def test_json_like_document(self, tmp_path):
        import json

        rec = run(zeno_scenario(256))
        out = tmp_path / "r.json"
        emit([rec], out, fmt="json-like")
        docs = json.loads(out.read_text())
        assert len(docs) == 1
        assert docs[0]["engine"] == "zeno"
        assert "digest" in docs[0]

    def test_empty_fields_never_zero(self, tmp_path):
        rec = run(zeno_scenario(256))
        out = tmp_path / "r.csv"
        emit([rec], out)
        row = out.read_text().strip().split("\n")[1].split(",")
        cols = dict(zip(CSV_COLUMNS, row))
        assert cols["q_n"] == ""  # not produced by the zeno engine
        assert cols["gamma"] if "gamma" in cols else True


@pytest.mark.parametrize("engine", ["adiabatic", "zeno"])
def test_built_in_model_runs_without_per_sample_eigh(monkeypatch, recording, engine):
    """Built-in propagators, controls and level gates are closed forms: eigh only ever sees one matrix."""
    eigh = recording(np.linalg.eigh)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    data = {"engine": engine, "path": {"type": "circle", "windings": 1, "duration": 30.0},
            "initial_state": {"name": "E_minus"}}
    if engine == "adiabatic":
        data.update(steps=4096, path={**data["path"], "samples": 1025})
    else:
        data.update(N=1024, control={"mode": "alpha_frame", "alpha": 0.5})
    run(scenario_from_dict(data))
    assert eigh.shapes and all(len(shape) == 2 for shape in eigh.shapes)


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_scenarios_run_within_budget(path):
    scenario = load_scenario(path)
    start = time.perf_counter()
    record = run(scenario)
    elapsed = time.perf_counter() - start
    assert scenario.runtime_budget_s is not None
    assert elapsed <= scenario.runtime_budget_s
    assert record.engine == scenario.engine


def turning_custom_model(dim, samples=257):
    """diag(0, 1, ..., dim - 1) turned by exp(-i t G), G the tridiagonal hopping matrix: dim distinct levels."""
    g = np.diag(np.ones(dim - 1), 1)
    w, v = np.linalg.eigh(g + g.T)
    hams = []
    for t in np.linspace(0.0, 1.0, samples):
        u = (v * np.exp(-1j * t * w)) @ v.T
        h = u @ np.diag(np.arange(dim, dtype=float)) @ u.conj().T
        hams.append({"t": float(t), "matrix": [[[x.real, x.imag] for x in row] for row in h]})
    return {"type": "custom", "hamiltonians": hams}


def turning_dissipative(dim, gamma, **overrides):
    """A dissipative run of `turning_custom_model` with weights spread over [0, 1] (gap 1)."""
    amps = np.zeros(dim)
    amps[0], amps[-1] = 1.0, 0.5
    return {"engine": "dissipative", "model": turning_custom_model(dim), "gamma": gamma,
            "alphas": np.linspace(0.0, 1.0, dim).tolist(), "initial_state": {"amplitudes": amps.tolist()},
            **overrides}


def projectors_from_frames(frames):
    """Projector family P_n(t) = W(t) P_n(0) W(t)^dag interpolated linearly between the frame samples."""
    paths = [OperatorPath(times=frames.times, operators=frames.projector_path(n)) for n in range(frames.nlevels)]
    return lambda t: [p.at(t) for p in paths]


def lab_frame_record(data):
    """The record of a dissipative run whose endpoint comes from the lab-frame RK4 oracle on the run's frames."""
    scenario = scenario_from_dict(data)
    path, frames, _ = runner._frames_for(scenario, samples=4097)
    duration = float(frames.times[-1])
    h0 = control_hamiltonian(scenario.control, path)
    rho0 = np.outer(scenario.initial_amplitudes, scenario.initial_amplitudes.conj())
    diss = dissipative.DissipatorSpec(scenario.gamma, scenario.alphas, projectors_from_frames(frames))
    steps = max(512, int(np.ceil(dissipative.fewest_steps(diss.gamma, diss.alphas, duration,
                                                          dissipative.STIFFNESS_BUDGET))))
    result = dissipative.integrate_master(h0, diss, rho0, duration, steps)
    record = runner.ResultRecord(scenario_id=scenario.name, digest=scenario.digest, engine=scenario.engine)
    runner._record_dephased_prediction(record, zeno._SampledRun(h0, frames, rotating_generator(h0, frames)).gate,
                                       frames, rho0, result)
    return record


@pytest.mark.parametrize("engine", ["zeno", "dissipative"])
def test_trace_drift_is_read_before_the_one_division(monkeypatch, engine):
    """Both density-matrix engines end in `zeno._fold`: with every step map scaled by 1 + 1e-6, the record reports
    the trace (1 + 1e-6)^steps the fold divided out, and the state it reports does not change."""
    amps = {"initial_state": {"amplitudes": [0.8, 0.36, -0.48]}}
    data = ({"engine": "zeno", "N": 512, "nonselective": True, **amps} if engine == "zeno" else
            {"engine": "dissipative", "gamma": 300.0, "alphas": [0.0, 1.0], **amps})
    scenario = scenario_from_dict(data)
    plain = run(scenario)
    folds = []
    original = zeno._fold

    def spy(frames, x, steps, maps, lift):
        folds.append((steps, original(frames, x, steps, lambda start, stop: (1.0 + 1e-6) * maps(start, stop), lift)))
        return folds[-1][1]

    monkeypatch.setattr(zeno, "_fold", spy)
    monkeypatch.setattr(dissipative, "_fold", spy)
    rec = run(scenario)
    [(steps, result)] = folds
    assert rec.trace_drift == result.trace_drift == pytest.approx((1.0 + 1e-6) ** steps - 1.0, rel=1e-6)
    assert abs(np.trace(result.final).real - 1.0) <= 1e-15
    assert rec.distance == pytest.approx(plain.distance, abs=1e-12)
    assert rec.fidelity == pytest.approx(plain.fidelity, abs=1e-12)
    assert plain.trace_drift <= 1e-9


class TestDissipativeEngine:
    """Every dissipative run goes through the rotating-frame engine; lab-frame RK4 is its oracle."""

    @pytest.mark.parametrize("dim, gamma", [(6, 100.0), (3, 10.0)], ids=["d6_gamma100", "d3_gamma10"])
    def test_record_matches_lab_frame_oracle(self, monkeypatch, dim, gamma):
        calls = []
        original = dissipative.integrate_rotating
        monkeypatch.setattr(dissipative, "integrate_rotating", lambda *a: calls.append(a[-1]) or original(*a))
        data = turning_dissipative(dim, gamma)
        rec = run(scenario_from_dict(data))
        assert calls == [512]  # the derived floor: both rates are mild
        oracle = lab_frame_record(data)
        assert rec.distance == pytest.approx(oracle.distance, abs=2e-6)
        assert rec.fidelity == pytest.approx(oracle.fidelity, abs=2e-6)
        assert rec.trace_drift <= 1e-9

    @pytest.mark.parametrize("gamma", [100.0, 1e4])
    def test_derived_count_resolves_path_corners(self, gamma):
        """Each of the 512 derived steps spans 8 frame samples, and K(t) jumps at the octagon's corners."""
        theta = np.linspace(0.0, 2 * np.pi, 9)
        octagon = {"type": "polyline", "points": np.column_stack([np.cos(theta), np.sin(theta)]).tolist()}
        data = {"engine": "dissipative", "path": octagon, "control": {"mode": "alpha_frame", "alpha": 0.4},
                "gamma": gamma, "alphas": [0.0, 1.0],
                "initial_state": {"amplitudes": [1.0, 0.0, 0.0]}}
        derived = run(scenario_from_dict(data))
        fine = run(scenario_from_dict(dict(data, steps=4096)))
        assert derived.distance == pytest.approx(fine.distance, abs=2e-6)
        assert derived.fidelity == pytest.approx(fine.fidelity, abs=2e-6)


def complex_integrate_rotating(generator, frames, gamma, alphas, rho0, steps):
    """Complex reference for `dissipative.integrate_rotating`: the steps exp(-i ad(kappa_k) + dt D_0) as complex maps
    on the row-major vec(rho~), the ad built by two einsums, folded by `zeno._fold`."""
    dim = frames.dim
    integral = dissipative._running_integral(OperatorPath(times=frames.times, operators=generator))
    d0 = dissipative.dephaser(gamma, alphas, frames.projectors0)
    eye = np.eye(dim)
    grid = np.linspace(float(frames.times[0]), float(frames.times[-1]), steps + 1)
    dts = np.diff(grid)

    def maps(start, stop):
        kdt = np.diff(integral(grid[start:stop + 1]), axis=0)
        ad = np.einsum("kil,jm->kijlm", kdt, eye) - np.einsum("il,kmj->kijlm", eye, kdt)
        return expm_stack(-1j * ad.reshape(-1, dim * dim, dim * dim) + dts[start:stop, None, None] * d0)

    return zeno._fold(frames, np.asarray(rho0, dtype=complex).reshape(-1), steps, maps, lambda x: x.reshape(dim, dim))


def vec_fold(frames, x, steps, maps, lift):
    """Reference fold on the complex row-major vec(rho~), reshaped at the end whatever `lift` is passed."""
    dim = frames.dim
    rho = np.asarray(x, dtype=complex).reshape(-1)
    chunk = max(1, zeno._CHUNK_ENTRIES // dim**4)
    for start in range(0, steps, chunk):
        rho = adiabatic.ordered_product(maps(start, min(start + chunk, steps))) @ rho
    wt = frames.final
    rho = wt @ rho.reshape(dim, dim) @ wt.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    return zeno.MasterResult(final=rho / tr, trace_drift=abs(tr - 1.0))


RECORD_FIELDS = ("p_N", "q_n", "fidelity", "phi_principal", "phi_expected", "distance", "trace_drift")


class TestRealCoordinateEngine:
    """The dissipative engine's real Hermitian coordinates against its complex vec(rho~) maps; nonselective Zeno runs
    keep the complex maps and fold bit for bit as before."""

    @pytest.mark.parametrize("data", [
        *[{**load_scenario(SCENARIO_DIR / "dissipative_gate.yaml").raw, "gamma": g} for g in (10.0, 100.0, 1e3, 1e4)],
        *[turning_dissipative(dim, 100.0) for dim in (2, 4, 6)],
    ], ids=[f"dissipative_gate_gamma{g:g}" for g in (10, 100, 1e3, 1e4)] + [f"turning_d{d}" for d in (2, 4, 6)])
    def test_records_match_the_complex_maps(self, monkeypatch, data):
        scenario = scenario_from_dict(data)
        real = run(scenario)
        calls = []
        monkeypatch.setattr(dissipative, "integrate_rotating",
                            lambda *args: calls.append(1) or complex_integrate_rotating(*args))
        old = run(scenario)
        assert calls == [1]
        assert real.distance == pytest.approx(old.distance, abs=1e-12)
        assert real.fidelity == pytest.approx(old.fidelity, abs=1e-12)
        assert max(real.trace_drift, old.trace_drift) <= 1e-12

    @pytest.mark.parametrize("data", [
        load_scenario(SCENARIO_DIR / "dephasing_superposition.yaml").raw,
        {**load_scenario(SCENARIO_DIR / "zeno_no_winding.yaml").raw, "frame_method": "tracked", "nonselective": True},
    ], ids=["dephasing_superposition", "tracked_nonselective_no_winding"])
    def test_nonselective_records_are_bit_identical(self, monkeypatch, data):
        scenario = scenario_from_dict(data)
        new = run(scenario)
        calls = []
        monkeypatch.setattr(zeno, "_fold", lambda *args: calls.append(1) or vec_fold(*args))
        old = run(scenario)
        assert calls == [1]
        assert [getattr(new, f) for f in RECORD_FIELDS] == [getattr(old, f) for f in RECORD_FIELDS]
        assert new.trace_drift is not None


def custom_unit_loop(samples=65, duration=1.0):
    """The three-level unit loop given as a custom model sampled at `samples` times."""
    hams = []
    for t, th in zip(np.linspace(0.0, duration, samples), np.linspace(0.0, 2 * np.pi, samples)):
        c, s = np.cos(th), np.sin(th)
        m = [[1.0, c, s], [c, c * c, c * s], [s, c * s, s * s]]
        hams.append({"t": float(t), "matrix": m})
    return {"type": "custom", "hamiltonians": hams}


SLOW_LOOP = load_scenario(SCENARIO_DIR / "adiabatic_slow_loop.yaml").raw


def offset_slow_loop(**path):
    """adiabatic_slow_loop around the centre (0.3, 0): still one winding, no longer the closed form."""
    return {**SLOW_LOOP, "path": {**SLOW_LOOP["path"], "center": [0.3, 0.0], **path}}


def counted_products(monkeypatch):
    """A list that gains one entry per `adiabatic._midpoint_propagators` call, i.e. per midpoint product built."""
    calls = []
    original = adiabatic._midpoint_propagators
    monkeypatch.setattr(adiabatic, "_midpoint_propagators", lambda *args: calls.append(1) or original(*args))
    return calls


# The cluster tolerance keeps the degenerate pair of the 65-sample model one
# level on the 2049-point tracking grid, where H interpolates linearly between samples.
@pytest.mark.parametrize("document", [offset_slow_loop(),
                                      {"engine": "adiabatic", "model": custom_unit_loop(65), "steps": 64,
                                       "tolerances": {"cluster": 1e-2},
                                       "initial_state": {"amplitudes": [1.0, -1.0, 0.0]}}],
                         ids=["offset_slow_loop", "custom_adiabatic"])
def test_adiabatic_run_builds_one_product(monkeypatch, document):
    """The runner never reads `estimated_error`, so it never builds the half-resolution product."""
    calls = counted_products(monkeypatch)
    run(scenario_from_dict(document))
    assert len(calls) == 1


def eigh_midpoint_propagators(h_of_t, times):
    """The midpoint factors of a sampled H by one eigendecomposition each: the reference of the Pade kernel."""
    dts = np.diff(times)
    hs = np.asarray(h_of_t(times[:-1] + 0.5 * dts), dtype=complex)
    w, v = np.linalg.eigh(0.5 * (hs + hs.conj().swapaxes(-1, -2)))
    return (v * np.exp(-1j * dts[:, None] * w)[:, None, :]) @ v.conj().swapaxes(-1, -2)


def conjugated_unit_loop(u, samples, duration):
    """`custom_unit_loop` conjugated by the unitary `u`: every entry complex, as in a general custom model."""
    model = custom_unit_loop(samples, duration)
    for item in model["hamiltonians"]:
        h = u @ np.asarray(item["matrix"]) @ u.conj().T
        item["matrix"] = [[[z.real, z.imag] for z in row] for row in h]
    return model


class TestCustomModel:
    """A custom model is stacked once at validation, and its midpoint factors come from the Pade kernel."""

    @pytest.mark.parametrize("conjugated", [False, True], ids=["unit_loop", "haar_conjugated"])
    def test_adiabatic_record_matches_the_eigh_reference(self, monkeypatch, conjugated):
        duration = 2 * np.pi * 2.25
        u = np.eye(3)
        if conjugated:
            z = np.random.default_rng(5).normal(size=(3, 3)) + 1j * np.random.default_rng(6).normal(size=(3, 3))
            q, r = np.linalg.qr(z)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
        model = conjugated_unit_loop(u, 4097, duration) if conjugated else custom_unit_loop(4097, duration)
        e_minus = u @ np.array([1.0, -1.0, 0.0])
        scenario = scenario_from_dict({"engine": "adiabatic", "model": model, "steps": int(duration / 0.02),
                                       "initial_state": {"amplitudes": [[z.real, z.imag] for z in e_minus]}})
        got = run(scenario)
        monkeypatch.setattr(adiabatic, "_midpoint_propagators", eigh_midpoint_propagators)
        want = run(scenario)
        for field in ("q_n", "fidelity", "distance"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-13), field
        assert 0.0 < got.distance < 1.0

    def test_derived_scenarios_share_the_parsed_model(self):
        """A sweep re-parses only the edited key, and the runner interpolates the parsed stack as it is."""
        scenario = scenario_from_dict(_custom_scenarios()["custom_zeno"])
        assert isinstance(scenario.model_hamiltonians, OperatorPath)
        assert scenario.model_hamiltonians.operators.shape == (65, 3, 3)
        derived = runner._derive(scenario, "N", 128)
        assert derived.model_hamiltonians is scenario.model_hamiltonians
        assert runner._model_hamiltonian(derived, None).__self__ is scenario.model_hamiltonians
        assert scenario_from_dict(SLOW_LOOP).model_hamiltonians is None


class TestCentredCircle:
    """A circle around the origin with analytic frames: U(T) = W(T) exp(-i K T), K constant."""

    def test_builds_no_product(self, monkeypatch):
        calls = counted_products(monkeypatch)
        run(scenario_from_dict(SLOW_LOOP))
        assert calls == []

    def test_matches_the_exact_circle(self, monkeypatch):
        scenario = scenario_from_dict(SLOW_LOOP)
        path, _, _ = runner._frames_for(scenario, samples=2049)
        propagated = []  # the PropagatorResult each run hands to gauge_decompose
        monkeypatch.setattr(runner, "gauge_decompose",
                            lambda result, *args: propagated.append(result) or adiabatic.gauge_decompose(result, *args))
        record = run(scenario)
        closed = propagated[0]
        assert closed.estimated_error == 0.0
        duration = scenario.path_spec["duration"]
        exact = adiabatic.propagate_exact(runner._model_hamiltonian(scenario, path), duration, 252000)
        assert spectral_norm(closed.unitary - exact.unitary) <= 1e-7
        monkeypatch.setattr(runner, "_constant_step", lambda *args: None)
        monkeypatch.setattr(runner, "propagate_exact", lambda *args: exact)
        reference = run(scenario)
        for name in ("q_n", "fidelity", "phi_principal", "distance"):
            assert getattr(record, name) == pytest.approx(getattr(reference, name), abs=1e-6), name

    def test_tracked_loop_follows_the_circle(self):
        """Tracked frames propagate the same circle: their q_n gap to the closed form is the midpoint product's."""
        exact = run(scenario_from_dict(SLOW_LOOP)).q_n
        tracked = [run(scenario_from_dict({**SLOW_LOOP, "frame_method": "tracked", "steps": steps})).q_n
                   for steps in (63000, 126000)]
        assert (tracked[0] - exact) / (tracked[1] - exact) == pytest.approx(4.0, rel=0.05)

    def test_steps_do_not_move_the_record(self):
        fields = ("q_n", "fidelity", "phi_principal", "distance")
        centred = sweep(scenario_from_dict(SLOW_LOOP), "steps", [1, 1000, 63000]).records
        rows = [[getattr(r, f) for f in fields] for r in centred]
        assert rows == [rows[0]] * 3
        offset = sweep(scenario_from_dict(offset_slow_loop()), "steps", [16000, 63000]).records
        assert offset[0].distance != offset[1].distance
        assert offset[0].q_n != offset[1].q_n


TRIANGLE = [[1, 0], [-0.5, 0.9], [-0.5, -0.9], [1, 0]]
SQUARE = [[1.3, 0.2], [0.3, 1.2], [-0.7, 0.2], [0.3, -0.8], [1.3, 0.2]]  # off-centre: its corners are not symmetric
NINE_KNOTS = {"type": "samples", "times": [0.0, 0.1, 0.25, 0.3, 0.5, 0.65, 0.7, 0.9, 1.0],
              "a": [1.2, 0.8, -0.1, -0.9, -1.1, -0.4, 0.3, 0.9, 1.2],
              "b": [0.1, 0.9, 1.3, 0.6, -0.2, -1.0, -0.8, -0.5, 0.1]}
DECLARED_LOOPS = {"triangle": {"type": "polyline", "points": TRIANGLE},
                  "square": {"type": "polyline", "points": SQUARE},
                  "off_centre_circle": {"type": "circle", "center": [0.3, 0.1], "radius": 1.0, "windings": 1},
                  "nine_knots": NINE_KNOTS}


class TestDeclaredLoop:
    """Built-in paths carry their own angle and the engines follow the declared loop, whatever grid samples it."""

    @pytest.mark.parametrize("name", DECLARED_LOOPS)
    def test_adiabatic_record_is_free_of_the_frame_grid(self, name):
        """`path.samples` places only frame samples: the level-0 record is the same from 2 samples to 2049."""
        fields = ("q_n", "distance", "fidelity", "phi_expected")
        records = [run(scenario_from_dict({"engine": "adiabatic", "steps": 20000, "initial_state": {"name": "E_minus"},
                                           "path": {**DECLARED_LOOPS[name], "duration": 200.0, "samples": samples}}))
                   for samples in (2, 3, 5, 9, 2049)]
        for record in records[1:]:
            for field in fields:
                assert getattr(record, field) == pytest.approx(getattr(records[0], field), abs=1e-12), field
        assert records[0].phi_expected == pytest.approx(np.sqrt(2.0) * np.pi, abs=1e-12)
        if name == "triangle":
            assert records[0].distance == pytest.approx(0.0612669648, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    @pytest.mark.parametrize("name", DECLARED_LOOPS)
    def test_zeno_angle_is_free_of_the_measurement_count(self, name, n):
        """From one measurement on, the predicted angle is (1 - alpha) 2 pi / sqrt(2) for the one winding."""
        scenario = scenario_from_dict({"engine": "zeno", "path": DECLARED_LOOPS[name], "N": n,
                                       "initial_state": {"name": "E_minus"}})
        path, _, _ = runner._frames_for(scenario, samples=n + 1)
        assert runner._expected_holonomy(scenario, path) == pytest.approx(np.sqrt(2.0) * np.pi, abs=1e-12)

    def test_square_at_two_measurements(self):
        record = run(scenario_from_dict({"engine": "zeno", "path": {"type": "polyline", "points": SQUARE}, "N": 2,
                                         "initial_state": {"name": "E_minus"}}))
        assert record.phi_expected == pytest.approx(4.442882938158366, abs=1e-12)


@pytest.mark.parametrize("document", [
    SCENARIO_DIR / "zeno_winding_one.yaml",
    SCENARIO_DIR / "zeno_alpha_half.yaml",
    SCENARIO_DIR / "adiabatic_slow_loop.yaml",
    offset_slow_loop(),
    {"engine": "adiabatic", "path": sampled_unit_loop(257, 20.0), "steps": 2000, "initial_state": {"name": "E_minus"}},
    SCENARIO_DIR / "dissipative_gate.yaml",
    SCENARIO_DIR / "wagon_wheel.yaml",
    {"engine": "dissipative", "path": {"type": "circle", "windings": 1}, "gamma": 100.0, "alphas": [0.0, 1.0],
     "control": {"mode": "wagon_wheel", "hamiltonian": np.diag([0.5, -1.0, 2.0]).tolist()},
     "initial_state": {"name": "E_minus"}},
], ids=["zeno_winding_one", "zeno_alpha_half", "adiabatic_slow_loop", "offset_slow_loop", "sampled_adiabatic",
        "dissipative_gate", "wagon_wheel", "wagon_wheel_dissipative"])
def test_rotation_runs_build_no_frame_stack(monkeypatch, document):
    """These runs read only W(0) and W(T) of their rotation frames (analytic or wagon-wheel): no stack is built."""
    reads = []
    cls = spectral._RotationFramePath
    stack, final = cls.frames.func, cls.final.fget
    monkeypatch.setattr(cls, "frames", property(lambda self: reads.append("frames") or stack(self)))
    monkeypatch.setattr(cls, "final", property(lambda self: reads.append("final") or final(self)))
    scenario = load_scenario(document) if isinstance(document, Path) else scenario_from_dict(document)
    assert not scenario.nonselective
    run(scenario)
    assert reads and set(reads) == {"final"}


def _edited_document(scenario, axis, value):
    """The document a sweep value stands for, written out in full."""
    data = copy.deepcopy(scenario.raw)
    if axis == "alpha":
        data["control"]["alpha"] = value
    elif axis == "T":
        base = scenario.build_path(samples=2).duration
        data.setdefault("path", {})["duration"] = value
        if scenario.steps is not None:
            data["steps"] = max(1, int(np.ceil(scenario.steps * value / base)))
    else:
        data[axis] = value
    return data


def _custom_scenarios():
    amps = {"amplitudes": [1.0, -1.0, 0.0]}
    model = custom_unit_loop(65)
    return {
        "custom_zeno": {"engine": "zeno", "model": model, "N": 64, "initial_state": amps},
        "custom_adiabatic": {"engine": "adiabatic", "model": model, "steps": 64, "initial_state": amps},
        "custom_dissipative": {"engine": "dissipative", "model": model, "gamma": 10.0, "initial_state": amps},
    }


def _derivation_cases():
    documents = {p.stem: p for p in sorted(SCENARIO_DIR.glob("*.yaml"))}
    documents.update(_custom_scenarios())
    values = {"N": [64, 1000], "gamma": [0.0, 1e4], "alpha": [0.3, -1.0], "T": [0.5, 2.0], "steps": [1, 300]}
    cases = []
    for name, doc in documents.items():
        scenario = load_scenario(doc) if isinstance(doc, Path) else scenario_from_dict(doc)
        for axis, key in runner.AXIS_KEYS.items():
            if key in ENGINE_KEYS[scenario.engine] and (axis != "alpha" or scenario.control.mode == "alpha_frame"):
                cases += [pytest.param(doc, axis, v, id=f"{name}-{axis}={v:g}") for v in values[axis]]
    return cases


class TestDerive:
    """`runner._derive` reuses the validated scenario and gives what full validation gives."""

    @pytest.mark.parametrize("doc, axis, value", _derivation_cases())
    def test_equals_full_validation(self, doc, axis, value):
        scenario = load_scenario(doc) if isinstance(doc, Path) else scenario_from_dict(doc)
        edited = _edited_document(scenario, axis, value)
        try:
            expected = scenario_from_dict(edited)
        except ValidationError as exc:  # a T sweep of a custom model
            with pytest.raises(ValidationError) as derived_exc:
                runner._derive(scenario, axis, value)
            assert str(derived_exc.value) == str(exc) == "a custom model takes no path section"
            return
        derived = runner._derive(scenario, axis, value)
        for name in ("digest", "name", "steps", "N", "gamma", "alphas", "raw"):
            assert getattr(derived, name) == getattr(expected, name), name
        assert derived.path_spec.keys() == expected.path_spec.keys()
        for key, spec in expected.path_spec.items():
            assert np.array_equal(derived.path_spec[key], spec), key
        for got, want in ((derived.control, expected.control), (derived.model_hamiltonians, expected.model_hamiltonians)):
            assert repr(got) == repr(want)  # numpy arrays print in full at these sizes

    def test_values_must_be_counts(self):
        zeno = load_scenario(SCENARIO_DIR / "zeno_no_winding.yaml")
        for values in ([64.5, 128.9], [64.0, True]):
            with pytest.raises(ValidationError, match="N must be an integer"):
                sweep(zeno, "N", values)
        adiabatic = load_scenario(SCENARIO_DIR / "adiabatic_slow_loop.yaml")
        with pytest.raises(ValidationError, match="steps must be an integer"):
            sweep(adiabatic, "steps", [1000, 1000.5])
        summary = sweep(zeno, "N", [64.0, np.int64(128)])  # integral values of any numeric type still run
        assert [(r.axis_value, r.digest) for r in summary.records] == [
            (64.0, runner._derive(zeno, "N", 64).digest), (128.0, runner._derive(zeno, "N", 128).digest)]

    @pytest.mark.parametrize(
        "doc, axis, value, message",
        [
            ("zeno_winding_one", "N", 0, "N must be a positive integer"),
            ("dissipative_gate", "gamma", -1.0, "gamma must be nonnegative"),
            ("adiabatic_slow_loop", "T", 0.0, "path.duration must be positive"),
            ("adiabatic_slow_loop", "T", 1e308, "the derived step count inf exceeds the bound 4194304"),
        ],
    )
    def test_bad_values_fail_as_full_validation_does(self, doc, axis, value, message):
        custom = _custom_scenarios()
        scenario = scenario_from_dict(custom[doc]) if doc in custom else load_scenario(SCENARIO_DIR / f"{doc}.yaml")
        with pytest.raises(ValidationError) as exc:
            sweep(scenario, axis, [value])
        assert str(exc.value) == message

    def test_model_is_parsed_once_per_sweep(self, monkeypatch):
        calls = []
        parse_matrix = scenario_module.parse_matrix
        monkeypatch.setattr(scenario_module, "parse_matrix", lambda *args: calls.append(1) or parse_matrix(*args))
        base = scenario_from_dict(_custom_scenarios()["custom_zeno"])
        assert len(calls) == 65
        summary = sweep(base, "N", [8, 16, 32, 64])  # measurement grids on the model's knots
        assert len(calls) == 65
        assert all(r.distance is not None for r in summary.records)


class TestScenarioBoundary:
    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"level": 5}, "level"),
            ({"path": {"type": "circle", "windings": 1, "radius": "abc"}}, "path.radius"),
            ({"path": {"type": "circle", "windings": 1, "duration": "x"}}, "path.duration"),
            ({"engine": "dissipative", "gamma": float("inf")}, "gamma"),
            ({"N": "abc"}, "N"),
            ({"N": 64.7}, "N"),
            ({"initial_state": {"amplitudes": [1.0, 0.0]}}, "initial_state.amplitudes"),
            ({"control": {"mode": "custom", "hamiltonian": [[0.0, 1.0], [1.0, 0.0]]}}, "control.hamiltonian"),
            ({"engine": "dissipative", "gamma": 100.0, "alphas": [0.5, 0.5]}, "alphas"),
            ({"path": {"type": "polyline", "points": {"a": 1}}}, "path.points"),
            ({"path": {"type": "samples", "times": {}, "a": [1.0, 0.0], "b": [0.0, 1.0]}}, "path.times"),
            ({"path": {"type": "samples", "times": None, "a": [1.0, 0.0], "b": [0.0, 1.0]}}, "path.times"),
            ({"path": {"type": "samples", "times": [0.0], "a": [1.0], "b": [1.0]}}, "path"),
            ({"name": {1: "a", "b": 2}}, "name"),
        ],
        ids=["level", "radius", "duration", "gamma_inf", "N_text", "N_fraction", "amplitudes_dim", "control_dim",
             "alphas_repeated", "points_mapping", "times_mapping", "times_null", "times_single", "name_mapping"],
    )
    def test_malformed_input_is_a_validation_error(self, overrides, field):
        data = {"engine": "zeno", "path": {"type": "circle", "windings": 1}, "N": 64,
                "initial_state": {"name": "E_minus"}}
        data.update(overrides)
        if data["engine"] == "dissipative":
            del data["N"]
        with pytest.raises(ValidationError, match=field):
            run(scenario_from_dict(data))

    def test_custom_model_rejects_a_path(self):
        data = {"engine": "zeno", "model": custom_unit_loop(), "N": 64,
                "initial_state": {"amplitudes": [1.0, -1.0, 0.0]}}
        run(scenario_from_dict(data))
        with pytest.raises(ValidationError, match="custom model takes no path"):
            scenario_from_dict(dict(data, path={"type": "circle", "windings": 1, "duration": 2.0}))

    def test_custom_model_needs_a_positive_duration(self):
        data = {"engine": "zeno", "model": custom_unit_loop(1), "N": 4,
                "initial_state": {"amplitudes": [1.0, -1.0, 0.0]}}
        with pytest.raises(ValidationError, match="positive duration"):
            scenario_from_dict(data)

    def test_t_sweep_of_custom_model_rejected(self, monkeypatch):
        """The T axis edits the path, which a custom model has none of: AxisMismatch, before any derived run."""
        data = {"engine": "adiabatic", "model": custom_unit_loop(257), "steps": 64,
                "initial_state": {"amplitudes": [1.0, -1.0, 0.0]}}
        scenario = scenario_from_dict(data)
        monkeypatch.setattr(runner, "_derive", lambda *args: pytest.fail("a value was derived"))
        with pytest.raises(AxisMismatch, match="custom model"):
            sweep(scenario, "T", [1.0, 2.0])
