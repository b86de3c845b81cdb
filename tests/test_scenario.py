import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from zenogate import cli, runner, scenario
from zenogate.errors import ParseError, ValidationError, ZeroSurvival
from zenogate.scenario import Scenario, load_scenario, scenario_digest, scenario_from_dict

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_zeno(**overrides):
    data = {
        "engine": "zeno",
        "path": {"type": "circle", "windings": 1},
        "N": 64,
        "initial_state": {"name": "E_minus"},
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_minimal_scenario_fills_defaults(self):
        s = scenario_from_dict(minimal_zeno())
        assert s.engine == "zeno"
        assert s.level == 0
        assert s.control.mode == "none"
        assert s.cluster_tol == 1e-8
        assert s.path_spec["radius"] == 1.0
        assert s.name == s.digest[:12]

    def test_unknown_top_level_key_named(self):
        for key, value in (("gama", 3.0), ("seed", 0)):  # no run reads a seed, so it is not a key
            with pytest.raises(ParseError, match=key):
                scenario_from_dict(minimal_zeno(**{key: value}))

    def test_substeps_is_not_a_key(self):
        for value in (1, 1.5):  # no run reads substeps, so any value, once valid or not, is an unknown key
            with pytest.raises(ParseError, match="substeps"):
                scenario_from_dict(minimal_zeno(substeps=value))

    def test_unknown_nested_key_named(self):
        data = minimal_zeno()
        data["control"] = {"mode": "none", "alpa": 0.5}
        with pytest.raises(ParseError, match="alpa"):
            scenario_from_dict(data)

    def test_matrix_entry_forms(self):
        data = minimal_zeno()
        data["control"] = {
            "mode": "custom",
            "hamiltonian": [[0.0, [0.0, -1.0]], [[0.0, 1.0], 0.0]],
        }
        s = scenario_from_dict(data)
        assert s.control.hamiltonian[0, 1] == pytest.approx(-1j)

    def test_yaml_file_round_trip(self, tmp_path):
        f = tmp_path / "s.yaml"
        f.write_text("engine: zeno\nN: 32\npath:\n  windings: 1\ninitial_state:\n  name: E_zero\n")
        s = load_scenario(f)
        assert s.N == 32
        assert s.initial_name == "E_zero"

    def test_malformed_yaml(self, tmp_path):
        f = tmp_path / "bad.yaml"
        f.write_text("engine: [unclosed\n")
        with pytest.raises(ParseError):
            load_scenario(f)

    @pytest.mark.parametrize("text, key, line", [
        ("engine: zeno\nN: 64\nN: 128\npath:\n  windings: 1\ninitial_state:\n  name: E_minus\n", "N", 3),
        ("engine: zeno\nN: 64\npath:\n  radius: 1.0\n  radius: 2.0\ninitial_state:\n  name: E_minus\n", "radius", 5),
    ], ids=["top_level", "section"])
    def test_repeated_key_is_refused(self, tmp_path, text, key, line):
        """YAML keeps the last of two equal keys; a scenario file refuses them, naming the key and its line."""
        f = tmp_path / "dup.yaml"
        f.write_text(text)
        with pytest.raises(ParseError, match=rf"duplicate key '{key}'\n  in .*, line {line},"):
            load_scenario(f)

    def test_merge_keys_keep_their_meaning(self, tmp_path):
        """An explicit key overrides the one a merge (<<) brings in, as in every YAML loader."""
        f = tmp_path / "merge.yaml"
        f.write_text("engine: zeno\nN: 64\npath: {<<: {windings: 1, radius: 1.0}, radius: 2.0}\n"
                     "initial_state:\n  name: E_minus\n")
        assert load_scenario(f).path_spec["radius"] == 2.0


def _loader_on(base):
    """The scenario loader's repeated-key override on another PyYAML base class."""
    return type(f"UniqueKey{base.__name__}", (base,), {"construct_mapping": scenario._UniqueKeyLoader.construct_mapping})


class TestLoaderBases:
    """Scenario files load through libyaml when PyYAML has it, through the pure-Python parser otherwise."""

    @pytest.fixture(autouse=True, params=[
        "pure_python",
        pytest.param("libyaml", marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")),
    ])
    def base(self, request, monkeypatch):
        base = yaml.SafeLoader if request.param == "pure_python" else yaml.CSafeLoader
        monkeypatch.setattr(scenario, "_UniqueKeyLoader", _loader_on(base))

    test_repeated_key_is_refused = TestParsing.test_repeated_key_is_refused
    test_merge_keys_keep_their_meaning = TestParsing.test_merge_keys_keep_their_meaning


def test_loader_takes_libyaml_when_pyyaml_has_it():
    assert issubclass(scenario._UniqueKeyLoader, yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


@pytest.mark.parametrize("name", sorted(f.name for f in SCENARIO_DIR.glob("*.yaml")))
def test_shipped_scenarios_load_alike_on_both_bases(name):
    text = (SCENARIO_DIR / name).read_text()
    assert yaml.load(text, Loader=scenario._UniqueKeyLoader) == yaml.load(text, Loader=_loader_on(yaml.SafeLoader))


class TestValidation:
    def test_engine_required(self):
        with pytest.raises(ValidationError, match="engine"):
            scenario_from_dict({"N": 4})

    def test_windings_must_match_geometry(self):
        data = minimal_zeno()
        data["path"] = {"type": "circle", "center": [3.0, 0.0], "radius": 1.0, "windings": 1}
        with pytest.raises(ValidationError, match="windings"):
            scenario_from_dict(data)

    def test_enclosing_circle_needs_nonzero_windings(self):
        data = minimal_zeno()
        data["path"] = {"type": "circle", "windings": 0}
        with pytest.raises(ValidationError):
            scenario_from_dict(data)

    @pytest.mark.parametrize("windings, n", [(64, 2**18), (100, 2**18), (-100, 2**18), (64, 129), (-64, 129)])
    def test_many_windings_validate_in_closed_form(self, windings, n):
        """Circles are validated in closed form, not on a sampled loop, so no winding count outruns the samples;
        a run grid of more than 2 |windings| steps then reads the declared windings."""
        record = runner.run(scenario_from_dict(minimal_zeno(path={"type": "circle", "windings": windings}, N=n)))
        assert record.phi_expected == pytest.approx(np.sqrt(2.0) * np.pi * windings, abs=1e-9)

    @pytest.mark.parametrize("engine, path, extra", [
        ("zeno", {"windings": 64}, {"N": 100}),  # a step of 0.64 turn would unwrap as -0.36
        ("zeno", {"windings": -3}, {"N": 5}),
        ("adiabatic", {"windings": 8, "samples": 16}, {}),  # the 15 steps would read -7 turns
        ("adiabatic", {"windings": 8, "samples": 17}, {}),  # 16 half turns, read both ways: only Zeno keeps these
        ("dissipative", {"windings": 2049}, {}),  # 4097 frame samples
        # 8 steps for 3 windings, but the steps that pass near the origin exceed half a turn: they read -1
        ("zeno", {"center": [0.5, 0.2], "radius": 1.0, "windings": -3}, {"N": 8}),
        ("adiabatic", {"center": [0.5, 0.2], "radius": 1.0, "windings": -3, "samples": 9}, {}),
    ])
    def test_run_grid_must_resolve_the_windings(self, engine, path, extra):
        """Steps of half a turn or more, which an unwrap of the samples misreads, still run the declared loop."""
        s = scenario_from_dict({**ENGINE_BASES[engine], **extra, "path": {"type": "circle", **path}})
        expected = np.sqrt(2.0) * np.pi * path["windings"]  # (1 - alpha) 2 pi windings / sqrt(2) at alpha = 0
        samples = {"zeno": s.N + 1, "adiabatic": path.get("samples"), "dissipative": 4097}[engine]
        assert runner._expected_holonomy(s, runner._frames_for(s, samples)[0]) == pytest.approx(expected, abs=1e-9)
        if engine == "dissipative":  # a dephased run reports no angle
            assert 0.0 < runner.run(s).distance < 1.0
        elif path["windings"] == 64:  # measurements 0.64 turn apart project E_minus away: nothing survives
            with pytest.raises(ZeroSurvival):
                runner.run(s)
        else:
            assert runner.run(s).phi_expected == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("path, message", [
        ({"type": "circle", "windings": 1, "duration": 1.0e-322}, "path.duration must be at least"),  # times collide
        ({"type": "polyline", "points": [[1, 0], [0, 1]], "duration": 1.0e-320}, "path.duration must be at least"),
        ({"type": "circle", "center": [1.5e308, 0.0], "radius": 1.0e308, "windings": 0}, "path: circle controls overflow"),
    ], ids=["subnormal_duration", "subnormal_polyline_duration", "overflowing_controls"])
    def test_unbuildable_run_path_is_a_validation_error(self, path, message):
        """Refused at validation: the runner would meet colliding sample times or controls beyond the largest float."""
        with pytest.raises(ValidationError, match=message):
            scenario_from_dict(minimal_zeno(path=path))

    @pytest.mark.parametrize("engine", ["zeno", "adiabatic", "dissipative"])
    def test_circle_through_critical_point_off_the_samples(self, engine):
        """The loop meets (0, 0) at phi = pi + 0.01, which no uniform sample of it hits."""
        path = {"type": "circle", "center": [np.cos(0.01), np.sin(0.01)], "radius": 1.0, "windings": 0}
        with pytest.raises(ValidationError, match="critical point"):
            scenario_from_dict({**ENGINE_BASES[engine], "path": path})

    @pytest.mark.parametrize("path", [
        {"type": "polyline", "points": [[1, 0], [-1, 0], [0, 1], [1, 0]]},
        {"type": "samples", "times": [0.0, 0.4, 1.0], "a": [1.0, -1.0, 1.0], "b": [0.5, -0.5, 0.5]},
    ], ids=["polyline", "samples"])
    @pytest.mark.parametrize("engine", ["zeno", "adiabatic", "dissipative"])
    def test_segment_through_critical_point_off_the_samples(self, engine, path):
        """A side meets (0, 0) between its knots, at t = T / 6 or 0.2 T, where no uniform grid of 129 samples lies."""
        with pytest.raises(ValidationError, match="critical point"):
            scenario_from_dict({**ENGINE_BASES[engine], "path": path})

    @pytest.mark.parametrize("kind", ["circle", "polyline"])
    def test_path_needs_two_samples(self, kind):
        path = {"type": kind, "samples": 1, **({"points": [[1, 0], [0, 1]]} if kind == "polyline" else {})}
        with pytest.raises(ValidationError, match="path.samples must be at least 2"):
            scenario_from_dict({**ENGINE_BASES["adiabatic"], "path": path})

    def test_named_state_requires_builtin_model(self):
        data = minimal_zeno()
        data["model"] = {
            "type": "custom",
            "hamiltonians": [
                {"t": 0.0, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
                {"t": 1.0, "matrix": [[0.0, 1.0], [1.0, 0.5]]},
            ],
        }
        with pytest.raises(ValidationError, match="named state"):
            scenario_from_dict(data)

    def test_unknown_named_state(self):
        with pytest.raises(ValidationError, match="initial_state.name"):
            scenario_from_dict(minimal_zeno(initial_state={"name": "E_top"}))

    def test_exactly_one_initial_form(self):
        with pytest.raises(ValidationError, match="initial_state"):
            scenario_from_dict(
                minimal_zeno(initial_state={"name": "E_minus", "amplitudes": [1, 0, 0]})
            )

    def test_positive_counts(self):
        with pytest.raises(ValidationError, match="N"):
            scenario_from_dict(minimal_zeno(N=0))
        data = minimal_zeno(engine="adiabatic", steps=-3)
        del data["N"]
        with pytest.raises(ValidationError, match="steps"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("field", ["cluster", "holonomy"])
    def test_tolerances_must_be_positive(self, field, value):
        with pytest.raises(ValidationError, match=f"tolerances.{field}"):
            scenario_from_dict(minimal_zeno(tolerances={field: value}))

    @pytest.mark.parametrize("value", [0, 0.0, -5])
    def test_runtime_budget_must_be_positive(self, value):
        with pytest.raises(ValidationError, match="runtime_budget_s must be positive"):
            scenario_from_dict(minimal_zeno(runtime_budget_s=value))

    def test_alpha_frame_needs_three_level(self):
        data = minimal_zeno(control={"mode": "alpha_frame", "alpha": 0.5})
        data["model"] = {
            "type": "custom",
            "hamiltonians": [{"t": 0.0, "matrix": [[0.0, 1.0], [1.0, 0.0]]}],
        }
        data["initial_state"] = {"amplitudes": [1.0, 0.0]}
        with pytest.raises(ValidationError, match="alpha_frame"):
            scenario_from_dict(data)

    def test_gamma_required_for_dissipative(self):
        data = minimal_zeno(engine="dissipative")
        del data["N"]
        with pytest.raises(ValidationError, match="gamma"):
            scenario_from_dict(data)

    def test_path_through_critical_point(self):
        data = minimal_zeno()
        data["path"] = {
            "type": "samples",
            "times": [0.0, 0.5, 1.0],
            "a": [1.0, 0.0, -1.0],
            "b": [0.0, 0.0, 0.0],
        }
        with pytest.raises(ValidationError):
            scenario_from_dict(data)

    def test_matrices_must_be_hermitian(self):
        lower = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(ValidationError, match="control.hamiltonian"):
            scenario_from_dict(minimal_zeno(control={"mode": "custom", "hamiltonian": lower}))
        data = minimal_zeno(initial_state={"amplitudes": [1.0, 0.0, 0.0]})
        data["model"] = {
            "type": "custom",
            "hamiltonians": [{"t": 0.0, "matrix": np.eye(3).tolist()}, {"t": 1.0, "matrix": lower}],
        }
        with pytest.raises(ValidationError, match="model.hamiltonians"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("field", ["times", "a", "b"])
    def test_sampled_path_must_be_finite(self, field):
        path = {"type": "samples", "times": [0.0, 0.5, 1.0], "a": [1.0, 0.0, -1.0], "b": [0.0, 1.0, 0.0]}
        path[field] = [path[field][0], float("nan"), path[field][2]]
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            scenario_from_dict(minimal_zeno(path=path))

    def test_amplitudes_normalized(self):
        s = scenario_from_dict(minimal_zeno(initial_state={"amplitudes": [3.0, 0.0, 0.0]}))
        assert np.linalg.norm(s.initial_amplitudes) == pytest.approx(1.0)
        # entries whose squares overflow or underflow keep their direction
        for amps, direction in (([0.8, 0.0, -1.0e200], [0.0, 0.0, -1.0]), ([1.0e-200, 0.0, 0.0], [1.0, 0.0, 0.0])):
            s = scenario_from_dict(minimal_zeno(initial_state={"amplitudes": amps}))
            assert np.abs(s.initial_amplitudes - direction).max() <= 1e-15


# A document each engine accepts, and keys that only the other engines read, with a valid value.
ENGINE_BASES = {
    "zeno": minimal_zeno(),
    "adiabatic": {"engine": "adiabatic", "path": {"type": "circle", "windings": 1}, "steps": 64,
                  "initial_state": {"name": "E_minus"}},
    "dissipative": {"engine": "dissipative", "path": {"type": "circle", "windings": 1}, "gamma": 10.0,
                    "initial_state": {"amplitudes": [1.0, 0.0, 0.0]}},
}
OTHER_ENGINES_KEYS = {
    "zeno": {"steps": 64, "gamma": 10.0, "alphas": [0.0, 1.0]},
    "adiabatic": {"N": 64, "nonselective": True, "control": {"mode": "alpha_frame", "alpha": 0.5},
                  "gamma": 10.0, "alphas": [0.0, 1.0]},
    "dissipative": {"N": 64, "level": 0, "nonselective": False},
}
WAGON_WHEEL = [[0.0, 0.0, 0.0], [0.0, 0.0, [0.0, -1.0]], [0.0, [0.0, 1.0], 0.0]]


def cli_run(tmp_path, data):
    """The exit code of `zenogate run` on `data` written as a YAML file."""
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    return cli.main(["run", str(path)])


class TestEngineContract:
    """A key that the engine, or the control mode, does not read is a ValidationError (exit 1) naming both."""

    @pytest.mark.parametrize("engine, key", [(engine, key) for engine, keys in OTHER_ENGINES_KEYS.items()
                                             for key in keys])
    def test_key_of_another_engine_is_rejected(self, tmp_path, capsys, engine, key):
        scenario_from_dict(ENGINE_BASES[engine])
        data = {**ENGINE_BASES[engine], key: OTHER_ENGINES_KEYS[engine][key]}
        with pytest.raises(ValidationError, match=f"the {engine} engine does not read '{key}'"):
            scenario_from_dict(data)
        assert cli_run(tmp_path, data) == 1
        assert capsys.readouterr().err == f"error: the {engine} engine does not read '{key}'\n"

    @pytest.mark.parametrize("control, message", [
        ({"mode": "none", "alpha": 0.5}, "control.mode none does not read control.alpha"),
        ({"mode": "wagon_wheel", "alpha": 0.5, "hamiltonian": WAGON_WHEEL},
         "control.mode wagon_wheel does not read control.alpha"),
        ({"mode": "custom", "alpha": 0.0, "hamiltonian": WAGON_WHEEL},
         "control.mode custom does not read control.alpha"),
        ({"mode": "none", "hamiltonian": WAGON_WHEEL}, "control.mode none does not read control.hamiltonian"),
        ({"mode": "alpha_frame", "alpha": 0.5, "hamiltonian": WAGON_WHEEL},
         "control.mode alpha_frame does not read control.hamiltonian"),
        ({"hamiltonian": WAGON_WHEEL}, "control.mode none does not read control.hamiltonian"),
    ], ids=["none-alpha", "wagon_wheel-alpha", "custom-alpha", "none-hamiltonian", "alpha_frame-hamiltonian",
            "default-hamiltonian"])
    def test_control_key_of_another_mode_is_rejected(self, tmp_path, capsys, control, message):
        for engine in ("zeno", "dissipative"):
            data = {**ENGINE_BASES[engine], "control": control}
            with pytest.raises(ValidationError, match=message):
                scenario_from_dict(data)
            assert cli_run(tmp_path, data) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_wagon_wheel_needs_three_level(self, tmp_path, capsys):
        data = minimal_zeno(control={"mode": "wagon_wheel", "hamiltonian": WAGON_WHEEL},
                            initial_state={"amplitudes": [1.0, 0.0, 0.0]},
                            model={"type": "custom", "hamiltonians": [{"t": 0.0, "matrix": np.eye(3).tolist()},
                                                                      {"t": 1.0, "matrix": np.eye(3).tolist()}]})
        del data["path"]
        scenario_from_dict({**data, "control": {"mode": "custom", "hamiltonian": WAGON_WHEEL}})
        with pytest.raises(ValidationError, match="control.mode wagon_wheel requires the three_level model"):
            scenario_from_dict(data)
        assert cli_run(tmp_path, data) == 1
        assert "wagon_wheel" in capsys.readouterr().err

    @pytest.mark.parametrize("frame_method", ["analytic", "tracked"])
    def test_wagon_wheel_takes_no_frame_method(self, tmp_path, capsys, frame_method):
        data = minimal_zeno(control={"mode": "wagon_wheel", "hamiltonian": WAGON_WHEEL})
        scenario_from_dict(data)
        data["frame_method"] = frame_method
        with pytest.raises(ValidationError, match="wagon_wheel builds its own frames and takes no frame_method"):
            scenario_from_dict(data)
        assert cli_run(tmp_path, data) == 1
        assert "frame_method" in capsys.readouterr().err


class TestDigest:
    def test_stable_under_key_reordering(self):
        a = {"engine": "zeno", "N": 8, "path": {"windings": 1, "type": "circle"}}
        b = {"path": {"type": "circle", "windings": 1}, "N": 8, "engine": "zeno"}
        assert scenario_digest(a) == scenario_digest(b)

    def test_sensitive_to_values(self):
        a = {"engine": "zeno", "N": 8}
        b = {"engine": "zeno", "N": 16}
        assert scenario_digest(a) != scenario_digest(b)


    @pytest.mark.parametrize(
        "name, digest",
        [
            ("adiabatic_slow_loop", "89133a113ee7c9902c8d9c895c9f3eded37000a455babf1a2e4f382a6506ebc1"),
            ("dephasing_superposition", "aef54c349288171b26974ff9d2d6ea718c123bed58a8240388dcfbf448919465"),
            ("dissipative_gate", "22e78b737dff12d435d4a1c756ecf5850bbfd8b7be5abf5e6ae1a0283beb2b59"),
            ("wagon_wheel", "43ce284358347218792c824e3037e560b0d9b7796da7bd5555730ab4585bb0c0"),
            ("zeno_alpha_half", "1bd4e400572ee685a1ef4c53647afefd97afe3f8b93135c529d348e2a2808132"),
            ("zeno_no_winding", "2fe376acb4945337da8ad443c0dda637ac8d07b07c55816731a148a29ddb1c46"),
            ("zeno_winding_one", "04668bc697cc2b6bdd1cd2c3cfdf9b1db49d3406c922538cb60e739e8d470625"),
            ("zeno_winding_two", "192634e059aecd3be98d6ee258a334c77cb11206d079525e01001a06b75d4f3e"),
        ],
    )
    def test_shipped_scenario_digests_unchanged(self, name, digest):
        scenario = load_scenario(SCENARIO_DIR / f"{name}.yaml")
        assert scenario.digest == digest

    @pytest.mark.parametrize(
        "name, axis, value, digest",
        [
            ("zeno_winding_one", "N", 64, "414975df43d048f2178c98085c1948e579f9a3c16150001a86f81d19d91a7c4f"),
            ("dissipative_gate", "gamma", 1e4, "e524f3d097e7e394e708ca448c2be8b41708c14e97abbe458b156d4851eddf2d"),
            ("adiabatic_slow_loop", "T", 2.0, "bcbeaf280f38cd40e2f100954ba63f0fc54857844c23038296e19f6ac8433fb3"),
            ("zeno_alpha_half", "alpha", 0.3, "9c56f340510ed5bffaf62dca289c685b864bf0dec3cdf9577bcefd517d53ec85"),
        ],
    )
    def test_derived_scenario_digests_unchanged(self, name, axis, value, digest):
        derived = runner._derive(load_scenario(SCENARIO_DIR / f"{name}.yaml"), axis, value)
        assert derived.digest == digest == scenario_digest(derived.raw)
        assert derived.name == name

    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")))
    def test_assembled_from_one_encoding_per_key(self, name):
        with open(SCENARIO_DIR / f"{name}.yaml") as fh:
            data = yaml.safe_load(fh)
        data["control"] = {**data.get("control", {}), "alpha": np.float64(0.25)}  # numpy scalars encode too
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
        assert scenario_digest(data) == hashlib.sha256(canonical.encode()).hexdigest()

    def test_derived_digest_of_unnamed_scenario_names_it(self):
        base = scenario_from_dict(minimal_zeno())
        derived = runner._derive(base, "N", 128)
        assert derived.digest == scenario_digest(minimal_zeno(N=128)) != base.digest
        assert derived.name == derived.digest[:12]

    def test_unnamed_scenario_is_named_by_its_digest(self):
        data = minimal_zeno()
        scenario = scenario_from_dict(data)
        assert scenario.name == scenario_digest(data)[:12] == scenario.digest[:12]


class TestBuildPath:
    def test_resampling_keeps_geometry(self):
        s = scenario_from_dict(minimal_zeno())
        p1 = s.build_path(samples=65)
        p2 = s.build_path(samples=257)
        assert p1.times.size == 65
        assert p2.times.size == 257
        assert p1.radius().max() == pytest.approx(1.0)

    def test_duration_override(self):
        s = scenario_from_dict(minimal_zeno(path={"type": "circle", "windings": 1, "duration": 7.0}))
        p = s.build_path(samples=65)
        assert p.duration == pytest.approx(7.0)
