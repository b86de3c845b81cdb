from pathlib import Path

import numpy as np
import pytest

from zenogate.errors import ParseError, ValidationError
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
        with pytest.raises(ValidationError, match="steps"):
            scenario_from_dict(minimal_zeno(steps=-3))

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("field", ["cluster", "holonomy"])
    def test_tolerances_must_be_positive(self, field, value):
        with pytest.raises(ValidationError, match=f"tolerances.{field}"):
            scenario_from_dict(minimal_zeno(tolerances={field: value}))

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
