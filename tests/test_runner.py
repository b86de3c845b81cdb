import copy
import time
from pathlib import Path

import numpy as np
import pytest

from zenogate.errors import AxisMismatch, ValidationError
from zenogate.runner import CSV_COLUMNS, emit, run, sweep
from zenogate.scenario import load_scenario, scenario_from_dict
from zenogate.zeno import unwrap_angle

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
            "N": 4096,
            "initial_state": {"name": "E_minus"},
        }
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

    def test_t_sweep_of_sampled_loop_matches_circle(self):
        base = {"engine": "adiabatic", "steps": 64, "initial_state": {"name": "E_minus"}}
        circle = dict(base, path={"type": "circle", "windings": 1, "duration": 1.0, "samples": 257})
        sampled = dict(base, path=sampled_unit_loop(257))
        values = [4.0, 8.0]
        expected = sweep(scenario_from_dict(circle), "T", values).records
        got = sweep(scenario_from_dict(sampled), "T", values).records
        for a, b in zip(expected, got):
            for name in ("q_n", "fidelity", "distance"):
                assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-9)

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
        base = {"engine": "adiabatic", "initial_state": {"name": "E_minus"}}
        circle = run(scenario_from_dict(dict(base, path={"type": "circle", "windings": 1, "duration": t_final})))
        sampled = run(scenario_from_dict(dict(base, path=sampled_unit_loop(2049, t_final))))
        assert sampled.q_n == pytest.approx(circle.q_n, rel=1e-9)


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


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_scenarios_run_within_budget(path):
    scenario = load_scenario(path)
    start = time.perf_counter()
    record = run(scenario)
    elapsed = time.perf_counter() - start
    assert scenario.runtime_budget_s is not None
    assert elapsed <= scenario.runtime_budget_s
    assert record.engine == scenario.engine


def custom_unit_loop(samples=65, duration=1.0):
    """The three-level unit loop given as a custom model sampled at `samples` times."""
    hams = []
    for t, th in zip(np.linspace(0.0, duration, samples), np.linspace(0.0, 2 * np.pi, samples)):
        c, s = np.cos(th), np.sin(th)
        m = [[1.0, c, s], [c, c * c, c * s], [s, c * s, s * s]]
        hams.append({"t": float(t), "matrix": m})
    return {"type": "custom", "hamiltonians": hams}


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

    def test_t_sweep_of_custom_model_rejected(self):
        data = {"engine": "adiabatic", "model": custom_unit_loop(257), "steps": 64,
                "initial_state": {"amplitudes": [1.0, -1.0, 0.0]}}
        with pytest.raises(ValidationError, match="no path"):
            sweep(scenario_from_dict(data), "T", [1.0, 2.0])
