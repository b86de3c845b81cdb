import csv
import subprocess
import sys

import pytest

from zenogate import cli
from zenogate.checks import MAX_CASES, CheckResult
from zenogate.scenario import MAX_COUNT


def write_scenario(tmp_path, text, name="s.yaml"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


GOOD = """\
engine: zeno
path:
  windings: 1
N: 1024
initial_state:
  name: E_minus
"""


SAMPLED = "  type: samples\n  times: {}\n  a: [1, 0]\n  b: [0, 1]\n"
ADIABATIC = GOOD.replace("engine: zeno\n", "engine: adiabatic\n").replace("N: 1024\n", "")
DISSIPATIVE = GOOD.replace("engine: zeno\n", "engine: dissipative\ngamma: 100.0\n").replace("N: 1024\n", "")
MALFORMED = {
    "alphas_repeated": DISSIPATIVE.replace("gamma: 100.0\n", "gamma: 100.0\nalphas: [0.5, 0.5]\n"),
    "points_mapping": GOOD.replace("  windings: 1\n", "  type: polyline\n  points: {a: 1}\n"),
    "times_mapping": GOOD.replace("  windings: 1\n", SAMPLED.format("{}")),
    "times_null": GOOD.replace("  windings: 1\n", SAMPLED.format("null")),
    "times_single": GOOD.replace("  windings: 1\n", "  type: samples\n  times: [0]\n  a: [1]\n  b: [1]\n"),
    "cluster_zero": GOOD + "tolerances:\n  cluster: 0\n",
    "cluster_negative": GOOD + "tolerances:\n  cluster: -1\n",
    "holonomy_zero": GOOD + "tolerances:\n  holonomy: 0\n",
    "holonomy_negative": GOOD + "tolerances:\n  holonomy: -1\n",
    # counts too large for any grid, refused before anything is allocated
    "N_huge": GOOD.replace("N: 1024", "N: 1.0e+308"),
    "N_too_large": GOOD.replace("N: 1024", "N: 1.0e+15"),
    "N_above_bound": GOOD.replace("N: 1024", f"N: {MAX_COUNT + 1}"),
    "adiabatic_steps_huge": ADIABATIC + "steps: 1.0e+308\n",
    "adiabatic_steps_above_bound": ADIABATIC + f"steps: {MAX_COUNT + 1}\n",
    "adiabatic_default_steps_huge": ADIABATIC.replace("  windings: 1\n", "  windings: 1\n  duration: 1.0e+300\n"),
    "dissipative_steps_huge": DISSIPATIVE + "steps: 1.0e+308\n",
    "dissipative_default_steps_too_large": DISSIPATIVE.replace("gamma: 100.0", "gamma: 1.0e+15"),
    "dissipative_default_steps_huge": DISSIPATIVE.replace("gamma: 100.0", "gamma: 1.0e+308"),
    "dissipative_weight_gap_huge": DISSIPATIVE + "alphas: [0.0, 1.0e+200]\n",
}


class TestRunCommand:
    def test_success_and_output_file(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, GOOD)
        out = tmp_path / "r.csv"
        code = cli.main(["run", scenario, "--out", str(out)])
        assert code == 0
        assert "p_N=" in capsys.readouterr().out
        assert out.exists()

    def test_parse_error_exit_1(self, tmp_path, capsys):
        for key, value in (("gama", 3), ("seed", 0)):
            scenario = write_scenario(tmp_path, GOOD + f"{key}: {value}\n")
            assert cli.main(["run", scenario]) == 1
            assert f"unknown key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [GOOD + "N: 128\n", GOOD.replace("  windings: 1\n", "  windings: 1\n  windings: 2\n")],
                             ids=["top_level", "section"])
    def test_repeated_key_exit_1(self, tmp_path, capsys, text):
        assert cli.main(["run", write_scenario(tmp_path, text)]) == 1
        assert "found duplicate key" in capsys.readouterr().err

    def test_validation_error_exit_1(self, tmp_path):
        bad = GOOD.replace("windings: 1", "windings: 1\n  center: [3.0, 0.0]")
        scenario = write_scenario(tmp_path, bad)
        assert cli.main(["run", scenario]) == 1

    @pytest.mark.parametrize(
        "extra",
        [
            "engine: dissipative\ngamma: 100.0\nalphas: [0.0]\n",  # one weight, two levels
            "control:\n  mode: custom\n  hamiltonian: [[0, 1, 0], [0, 0, 0], [0, 0, 0]]\n",
        ],
    )
    def test_inconsistent_inputs_exit_1(self, tmp_path, extra):
        text = GOOD.replace("engine: zeno\n", "").replace("N: 1024\n", "") if extra.startswith("engine") else GOOD
        assert cli.main(["run", write_scenario(tmp_path, text + extra)]) == 1

    def test_malformed_number_exit_1(self, tmp_path, capsys):
        assert cli.main(["run", write_scenario(tmp_path, GOOD.replace("N: 1024", "N: 64.7"))]) == 1
        assert "N must be an integer" in capsys.readouterr().err

    def test_non_finite_sampled_path_exit_1(self, tmp_path, capsys):
        path = "  type: samples\n  times: [0, .nan, 1]\n  a: [1, 0, -1]\n  b: [0, 1, 0]\n"
        text = GOOD.replace("  windings: 1\n", path).replace("N: 1024", "N: 64")
        assert cli.main(["run", write_scenario(tmp_path, text)]) == 1
        assert "times must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_scenario_exit_1(self, tmp_path, capsys, text):
        assert cli.main(["run", write_scenario(tmp_path, text)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file_exit_1(self):
        assert cli.main(["run", "/nonexistent/s.yaml"]) == 1

    def test_directory_path_exit_1(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_explicit_steps_over_stiffness_budget_exit_2(self, tmp_path, capsys):
        text = DISSIPATIVE.replace("gamma: 100.0", "gamma: 1.0e+15") + "steps: 512\n"
        assert cli.main(["run", write_scenario(tmp_path, text)]) == 2
        assert "increase steps" in capsys.readouterr().err

    def test_engine_error_exit_2(self, tmp_path, capsys):
        # E_plus lives in the other eigenspace: the first projection kills it
        scenario = write_scenario(tmp_path, GOOD.replace("E_minus", "E_plus"))
        assert cli.main(["run", scenario]) == 2
        assert "engine error" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_prints_slope(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, GOOD)
        code = cli.main(["sweep", scenario, "--axis", "N", "--values", "64,128,256"])
        assert code == 0
        out = capsys.readouterr().out
        assert "loglog_slope[survival_deficit]" in out

    def test_custom_model_t_sweep_exit_2(self, tmp_path, capsys):
        """A custom model has no path for the T axis to edit: an axis/engine mismatch, refused before any run."""
        rows = "[[1, 1, 0], [1, 1, 0], [0, 0, 0]]"
        text = (
            "engine: adiabatic\nsteps: 16\ninitial_state:\n  amplitudes: [1, -1, 0]\nmodel:\n  type: custom\n"
            f"  hamiltonians:\n    - {{t: 0.0, matrix: {rows}}}\n    - {{t: 1.0, matrix: {rows}}}\n"
        )
        scenario = write_scenario(tmp_path, text)
        assert cli.main(["run", scenario]) == 0
        capsys.readouterr()
        assert cli.main(["sweep", scenario, "--axis", "T", "--values", "1,2"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("engine error: axis 'T'")

    def test_t_axis_step_count_overflow_exit_1(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, ADIABATIC + "steps: 64\n")
        assert cli.main(["sweep", scenario, "--axis", "T", "--values", "1e308"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_values_exit_1(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, GOOD)
        assert cli.main(["sweep", scenario, "--axis", "N", "--values", "64,abc"]) == 1
        assert capsys.readouterr().err.startswith("error: --values")

    @pytest.mark.parametrize("axis, values", [("N", ("64,128", "64.0,128")), ("steps", ("512,1024", "512.0,1.024e3"))])
    def test_integral_floats_run_as_counts(self, tmp_path, axis, values):
        scenario = write_scenario(tmp_path, GOOD if axis == "N" else DISSIPATIVE)
        outs = []
        for i, text in enumerate(values):
            out = tmp_path / f"sweep{i}.csv"
            assert cli.main(["sweep", scenario, "--axis", axis, "--values", text, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_fractional_count_exit_1(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, GOOD)
        assert cli.main(["sweep", scenario, "--axis", "N", "--values", "64.5"]) == 1
        assert capsys.readouterr().err.strip() == "error: N must be an integer, got 64.5"

    def test_no_values_exit_1(self, tmp_path, capsys):
        scenario, out = write_scenario(tmp_path, GOOD), tmp_path / "sweep.csv"
        assert cli.main(["sweep", scenario, "--axis", "N", "--values", ",", "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == "error: a sweep along 'N' needs at least one value"
        assert not out.exists()

    def test_repeated_values_print_no_slope(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, GOOD)
        assert cli.main(["sweep", scenario, "--axis", "N", "--values", "64,64"]) == 0
        assert "loglog_slope" not in capsys.readouterr().out

    def test_axis_mismatch_exit_2(self, tmp_path):
        scenario = write_scenario(tmp_path, GOOD)
        assert cli.main(["sweep", scenario, "--axis", "gamma", "--values", "1,2"]) == 2


class TestCheckCommand:
    def test_check_passes(self, capsys):
        assert cli.main(["check", "--cases", "8", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "invariant checks passed" in out

    def test_check_failure_exit_3(self, monkeypatch, capsys):
        def fake(cases, seed):
            return [CheckResult(name="stub", passed=False, bound=0.0, worst=1.0)]

        monkeypatch.setattr(cli, "run_checks", fake)
        assert cli.main(["check"]) == 3
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_no_probes_exit_1(self, capsys, cases):
        assert cli.main(["check", "--cases", cases]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == f"error: cases must be at least 1, got {cases}"
        assert "passed" not in captured.out

    def test_negative_seed_exit_1(self, capsys):
        assert cli.main(["check", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: seed must be a non-negative integer, got -1"
        assert captured.out == ""

    def test_case_count_above_bound_exit_1(self, capsys):
        cases = MAX_CASES + 1
        assert cli.main(["check", "--cases", str(cases)]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == f"error: cases must be at most {MAX_CASES}, got {cases}"
        assert "passed" not in captured.out


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--cases", "x"], "argument --cases: invalid int value: 'x'"),
            (["run"], "the following arguments are required: scenario"),
            (["sweep", "s.yaml", "--axis", "N"], "the following arguments are required: --values"),
            ([], "the following arguments are required: command"),
            (["frobnicate"], "invalid choice: 'frobnicate'"),
        ],
    )
    def test_malformed_command_line_exit_1(self, capsys, argv, message):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: zenogate")
        assert message in err

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: zenogate")

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        """The parser is built once per process; each call still reads only its own arguments."""
        assert cli.build_parser() is cli.build_parser()
        scenario = write_scenario(tmp_path, GOOD)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["run", scenario, "--timing", "--out", str(a)]) == 0
        assert cli.main(["run", scenario, "--out", str(b)]) == 0
        assert cli.main(["--help"]) == 0
        assert cli.main(["sweep", scenario, "--axis", "N", "--values", "64,128"]) == 0
        assert "loglog_slope[" in capsys.readouterr().out
        (timed,), (untimed,) = (list(csv.DictReader(f.read_text().splitlines())) for f in (a, b))
        assert timed["wall_ms"] != "" and untimed["wall_ms"] == ""
        assert {k: v for k, v in timed.items() if k != "wall_ms"} == {k: v for k, v in untimed.items() if k != "wall_ms"}


def test_console_entry_point(tmp_path):
    scenario = write_scenario(tmp_path, GOOD)
    proc = subprocess.run(
        [sys.executable, "-m", "zenogate", "run", scenario],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "phi_principal=" in proc.stdout


def test_console_usage_error_exit_1():
    proc = subprocess.run([sys.executable, "-m", "zenogate", "check", "--cases", "x"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "invalid int value: 'x'" in proc.stderr


def test_console_negative_seed_exit_1():
    proc = subprocess.run([sys.executable, "-m", "zenogate", "check", "--seed", "-1"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: seed must be a non-negative integer, got -1\n"
