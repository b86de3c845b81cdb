import subprocess
import sys

import pytest

from zenogate import cli
from zenogate.checks import CheckResult


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
MALFORMED = {
    "alphas_repeated": GOOD.replace("engine: zeno\n", "engine: dissipative\ngamma: 100.0\nalphas: [0.5, 0.5]\n"),
    "points_mapping": GOOD.replace("  windings: 1\n", "  type: polyline\n  points: {a: 1}\n"),
    "times_mapping": GOOD.replace("  windings: 1\n", SAMPLED.format("{}")),
    "times_null": GOOD.replace("  windings: 1\n", SAMPLED.format("null")),
    "times_single": GOOD.replace("  windings: 1\n", "  type: samples\n  times: [0]\n  a: [1]\n  b: [1]\n"),
    "cluster_zero": GOOD + "tolerances:\n  cluster: 0\n",
    "cluster_negative": GOOD + "tolerances:\n  cluster: -1\n",
    "holonomy_zero": GOOD + "tolerances:\n  holonomy: 0\n",
    "holonomy_negative": GOOD + "tolerances:\n  holonomy: -1\n",
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
        text = GOOD.replace("engine: zeno\n", "") if extra.startswith("engine") else GOOD
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

    def test_custom_model_t_sweep_exit_1(self, tmp_path):
        rows = "[[1, 1, 0], [1, 1, 0], [0, 0, 0]]"
        text = (
            "engine: adiabatic\nsteps: 16\ninitial_state:\n  amplitudes: [1, -1, 0]\nmodel:\n  type: custom\n"
            f"  hamiltonians:\n    - {{t: 0.0, matrix: {rows}}}\n    - {{t: 1.0, matrix: {rows}}}\n"
        )
        scenario = write_scenario(tmp_path, text)
        assert cli.main(["run", scenario]) == 0
        assert cli.main(["sweep", scenario, "--axis", "T", "--values", "1,2"]) == 1

    def test_malformed_values_exit_1(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, GOOD)
        assert cli.main(["sweep", scenario, "--axis", "N", "--values", "64,abc"]) == 1
        assert capsys.readouterr().err.startswith("error: --values")

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


def test_console_entry_point(tmp_path):
    scenario = write_scenario(tmp_path, GOOD)
    proc = subprocess.run(
        [sys.executable, "-m", "zenogate", "run", scenario],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "phi_principal=" in proc.stdout
