"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q

Asserts that every metric of BENCHMARK.json prints by name with its unit,
that no traced function's self time exceeds its total time, that traced and
untraced passes give the same gate_dist_max, and that the benchmark refuses
to run without the zenogate sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _printed_units(lines) -> dict:
    """First token -> third token of every report line (name, value, unit)."""
    return {tokens[0]: tokens[2] for tokens in (line.split() for line in lines) if len(tokens) >= 3}


def _check_result(proc, section: str) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    printed = _printed_units(lines[:-1])
    assert set(result["metrics"]) == {spec["name"] for spec in MANIFEST[section]}
    for spec in MANIFEST[section]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        assert printed.get(spec["name"]) == spec["unit"], spec["name"]
    assert printed["fail_frac"] == "1"
    assert printed["angle_err_max"] == "rad"
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_workload_reports_every_metric(workload):
    plain = _check_result(_bench(workload, 0), "end_to_end")
    _check_result(_bench(workload, 1), "per_layer")

    traced = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace1.json").read_text())
    for name, stats in traced["functions"].items():
        assert stats["self_s"] <= stats["total_s"] + 1e-12, name
    assert traced["traced"]["gate_dist_max"] == traced["untraced"]["gate_dist_max"]
    assert traced["traced"]["gate_dist_max"] == plain["metrics"]["gate_dist_max"]["value"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in MANIFEST["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(MANIFEST["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
