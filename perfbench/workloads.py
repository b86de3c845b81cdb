"""Seeded workloads of the benchmark and the accuracy gates their results must meet.

A workload is a list of tasks built from a seed.  Generated scenarios are
plain dicts sent through `scenario_from_dict`, and shipped scenario files go
through `zenogate.cli.main(["run", file])`, exactly as a user would send
them.  The seed draws loop scale, start angle, orientation, winding sign,
dephasing weight order, state phases and a basis unitary.  The three-level
physics is invariant under all of these, so the work per pass and every
accuracy figure repeat across seeds while the inputs change; only the
alpha values of the alpha sweep and the probes of the invariant suite
change what is computed.

Gates mirror the acceptance criteria:

* angle within 1e-3 per winding at N = 2^14, scaled as 1/N (criteria 1, 2);
* adiabatic gate fidelity >= 0.999 (criterion 4);
* fitted slopes: -1 +- 0.15 in N (criterion 3), +2 +- 0.2 for escape
  against 1/T (criterion 4), -1 +- 0.3 in gamma (criterion 7);
* distances strictly decreasing in gamma and trace drift <= 1e-9 (criterion 7);
* every invariant check passes (criterion 9).

A run also fails when it raises, exits non-zero, or leaves empty a field its
gate needs; an empty `phi_principal` where `phi_expected` is set is such a
failure, whatever the gate's distance.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from zenogate import checks, cli, runner
from zenogate.scenario import load_scenario, scenario_from_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ROOT_ANGLE = np.sqrt(2.0) * np.pi  # gate angle of one winding
REFERENCE_N = 2**14

# ---------------------------------------------------------------------------
# Pass outcome and gates
# ---------------------------------------------------------------------------

@dataclass
class PassOutcome:
    """Gate verdicts and accuracy figures of one pass over a workload."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    angle_errors: list = field(default_factory=list)
    slope_errors: list = field(default_factory=list)

    def attempt(self, label: str, problems: list):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def judge_record(self, label: str, rec: dict, n_meas: int):
        problems = []
        distance = rec.get("distance")
        if distance is None:
            problems.append("distance empty")
        else:
            self.distances.append(distance)
        expected = rec.get("phi_expected")
        phi = rec.get("phi_principal")
        if expected is not None and phi is None:
            problems.append("phi_principal empty")
        elif expected is not None:
            err = abs(phi + 2 * np.pi * np.round((expected - phi) / (2 * np.pi)) - expected)
            turns = max(1.0, np.ceil(abs(expected) / ROOT_ANGLE - 1e-9))
            tol = 1e-3 * turns * (REFERENCE_N / n_meas if rec["engine"] == "zeno" else 1.0)
            self.angle_errors.append(err)
            if not err <= tol:
                problems.append(f"angle error {err:.3e} > {tol:.1e}")
        if rec["engine"] == "adiabatic" and not (rec.get("fidelity") or 0.0) >= 0.999:
            problems.append(f"fidelity {rec.get('fidelity')} < 0.999")
        drift = rec.get("trace_drift")
        if drift is not None and not drift <= 1e-9:
            problems.append(f"trace drift {drift:.2e} > 1e-9")
        self.attempt(label, problems)

    def judge_slope(self, label: str, slope, theory: float, bound: float):
        if slope is None:
            self.attempt(label, ["slope empty"])
            return
        err = abs(slope - theory)
        self.slope_errors.append(err)
        self.attempt(label, [] if err <= bound else [f"slope {slope:.4f} not within {bound} of {theory}"])


def _record_dict(rec) -> dict:
    return {k: getattr(rec, k) for k in runner.CSV_COLUMNS if k != "scenario_id"}


def _parse_cli_line(text: str) -> dict:
    fields = dict(pair.split("=", 1) for pair in text.split())
    rec = {}
    for key, value in fields.items():
        rec[key] = value if key in ("scenario_id", "engine", "axis") else float(value)
    return rec


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def _raised(exc: Exception) -> list:
    return [f"raised {type(exc).__name__}: {exc}"]


class FileRun:
    """A shipped scenario file run through the CLI."""

    def __init__(self, name: str):
        self.label = name
        self.path = SCENARIOS / f"{name}.yaml"

    def describe(self) -> str:
        return f"cli run scenarios/{self.path.name}"

    def validate(self):
        self.scenario = load_scenario(self.path)

    def execute(self, out: PassOutcome):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(["run", str(self.path)])
        except Exception as exc:  # a raising run is a counted failure, not an abort
            out.attempt(self.label, _raised(exc))
            return
        if code != 0:
            out.attempt(self.label, [f"exit code {code}: {buf.getvalue().strip()}"])
            return
        rec = _parse_cli_line(buf.getvalue().strip().splitlines()[-1])
        out.judge_record(self.label, rec, self.scenario.N)


class Run:
    """One generated scenario through `runner.run`."""

    def __init__(self, label: str, data: dict):
        self.label = label
        self.data = data

    def describe(self) -> str:
        return self.label

    def validate(self):
        self.scenario = scenario_from_dict(self.data, source=self.label)

    def execute(self, out: PassOutcome):
        try:
            rec = _record_dict(runner.run(self.scenario))
        except Exception as exc:
            out.attempt(self.label, _raised(exc))
            return
        out.judge_record(self.label, rec, self.scenario.N)
        return rec


class Sweep:
    """A generated scenario swept along one axis through `runner.sweep`.

    `slopes` maps a fitted slope name to its (theory, bound) gate.
    """

    def __init__(self, label: str, data: dict, axis: str, values, slopes: dict, decreasing=False):
        self.label = label
        self.data = data
        self.axis = axis
        self.values = list(values)
        self.slopes = slopes
        self.decreasing = decreasing

    def describe(self) -> str:
        return f"{self.label}: {self.axis} in {[float(v) for v in self.values]}"

    def validate(self):
        self.scenario = scenario_from_dict(self.data, source=self.label)

    def execute(self, out: PassOutcome):
        try:
            summary = runner.sweep(self.scenario, self.axis, self.values)
        except Exception as exc:
            out.attempt(self.label, _raised(exc))
            return
        n_meas = self.scenario.N
        for rec in summary.records:
            if self.axis == "N":
                n_meas = int(rec.axis_value)
            out.judge_record(f"{self.label} {self.axis}={rec.axis_value:g}", _record_dict(rec), n_meas)
        for name, (theory, bound) in self.slopes.items():
            out.judge_slope(f"{self.label} slope[{name}]", summary.slopes.get(name), theory, bound)
        if self.decreasing:
            dists = [r.distance for r in summary.records]
            ok = all(a is not None and b is not None and a > b for a, b in zip(dists, dists[1:]))
            out.attempt(f"{self.label} distances decreasing", [] if ok else [f"distances {dists}"])


class EscapeSeries:
    """Adiabatic runs at several durations; escape must fall as T^-2 (criterion 4)."""

    def __init__(self, label: str, runs: list, durations: list):
        self.label = label
        self.runs = runs
        self.durations = durations

    def describe(self) -> str:
        return f"{self.label}: T in {[round(t, 4) for t in self.durations]}"

    def validate(self):
        for task in self.runs:
            task.validate()

    def execute(self, out: PassOutcome):
        qs = [task.execute(out) for task in self.runs]
        if any(rec is None or rec.get("q_n") is None or rec["q_n"] <= 0 for rec in qs):
            out.attempt(f"{self.label} slope[escape]", ["escape probability empty"])
            return
        x = np.log(1.0 / np.asarray(self.durations))
        slope = float(np.polyfit(x, np.log([rec["q_n"] for rec in qs]), 1)[0])
        out.judge_slope(f"{self.label} slope[escape]", slope, 2.0, 0.2)


class Checks:
    """The built-in invariant suite with the workload seed."""

    label = "run_checks"

    def __init__(self, cases: int, seed: int):
        self.cases = cases
        self.seed = seed

    def describe(self) -> str:
        return f"run_checks(cases={self.cases}, seed={self.seed})"

    def validate(self):
        pass

    def execute(self, out: PassOutcome):
        try:
            results = checks.run_checks(cases=self.cases, seed=self.seed)
        except Exception as exc:
            out.attempt(self.label, _raised(exc))
            return
        for res in results:
            out.attempt(f"check {res.name}", [] if res.passed else [res.line()])


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def _scaled_circle(rng) -> dict:
    """One loop around the origin, centre offset along +a; draws differ by scale or mirror image."""
    radius = float(rng.uniform(0.5, 2.0))
    sign = int(rng.choice([-1, 1]))
    return {"type": "circle", "center": [0.3 * radius, 0.0], "radius": radius,
            "windings": sign, "duration": 1.0}


def _sampled_loop(rng, duration: float, samples: int):
    """Unit loop as explicit samples, with drawn start angle and orientation."""
    start = float(rng.uniform(0.0, 2 * np.pi))
    orientation = int(rng.choice([-1, 1]))
    theta = start + orientation * 2 * np.pi * np.linspace(0.0, 1.0, samples)
    path = {
        "type": "samples",
        "times": (duration * np.linspace(0.0, 1.0, samples)).tolist(),
        "a": np.cos(theta).tolist(),
        "b": np.sin(theta).tolist(),
    }
    return path, start, orientation


def _entries(vector) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vector, dtype=complex)]


def _haar_unitary(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _custom_model(u: np.ndarray, duration: float, samples: int) -> dict:
    """Unit three-level loop H = 2 e+ e+^dag, conjugated by `u`, sampled in time."""
    items = []
    for t, th in zip(duration * np.linspace(0.0, 1.0, samples), np.linspace(0.0, 2 * np.pi, samples)):
        e_plus = np.array([1.0, np.cos(th), np.sin(th)]) / np.sqrt(2.0)
        h = u @ (2.0 * np.outer(e_plus, e_plus)) @ u.conj().T
        items.append({"t": float(t), "matrix": [_entries(row) for row in h]})
    return {"type": "custom", "hamiltonians": items}


def _custom_initial(u: np.ndarray) -> dict:
    e_minus = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)  # degenerate level at angle 0
    return {"amplitudes": _entries(u @ e_minus)}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _zeno_gates(rng, tiny: bool, seed: int) -> list:
    files = ["wagon_wheel"] if tiny else [
        "zeno_winding_one", "zeno_winding_two", "zeno_no_winding",
        "zeno_alpha_half", "wagon_wheel", "dephasing_superposition",
    ]
    n_values = [2**k for k in ((6, 7) if tiny else range(8, 16))]
    # The program extracts an angle only from a gate within `tolerances.holonomy`
    # of a subspace rotation (default 1e-2); at N = 2^8 the gate lies 0.021 away.
    base = {"engine": "zeno", "path": _scaled_circle(rng), "N": n_values[0],
            "initial_state": {"name": "E_minus"}, "tolerances": {"holonomy": 0.05}}
    alphas = sorted(float(rng.uniform(lo, lo + 0.2)) for lo in (0.15, 0.45, 0.75))
    alpha_base = {"engine": "zeno", "path": _scaled_circle(rng), "N": 2**8 if tiny else REFERENCE_N,
                  "control": {"mode": "alpha_frame", "alpha": alphas[0]},
                  "initial_state": {"name": "E_minus"}}
    return [FileRun(name) for name in files] + [
        Sweep("zeno N sweep", base, "N", n_values,
              {"distance": (-1.0, 0.15), "survival_deficit": (-1.0, 0.15)}),
        Sweep("zeno alpha sweep", alpha_base, "alpha", alphas[:2] if tiny else alphas, {}),
    ]


def _adiabatic_sweep(rng, tiny: bool, seed: int) -> list:
    turns = (2, 4) if tiny else (100, 141, 200)
    durations = [2 * np.pi * (n + 0.25) for n in turns]
    runs = []
    for n, t_final in zip(turns, durations):
        path, _, _ = _sampled_loop(rng, t_final, 2049)
        data = {"engine": "adiabatic", "path": path, "steps": int(t_final / 0.02),
                "initial_state": {"name": "E_minus"}}
        runs.append(Run(f"adiabatic T=2pi*{n + 0.25}", data))
    series = EscapeSeries("adiabatic T sweep", runs, durations)
    return [series] if tiny else [FileRun("adiabatic_slow_loop"), series]


def _dissipative_sweep(rng, tiny: bool, seed: int) -> list:
    with open(SCENARIOS / "dissipative_gate.yaml") as fh:
        data = yaml.safe_load(fh)
    circle = data["path"]
    path, start, orientation = _sampled_loop(rng, float(circle["duration"]), 4097)
    # the lab-frame state co-rotates with the loop: rotate the (|2>, |3>) plane
    amps = np.array(data["initial_state"]["amplitudes"], dtype=complex)
    amps[2] *= orientation
    c, s = np.cos(start), np.sin(start)
    amps[1], amps[2] = c * amps[1] - s * amps[2], s * amps[1] + c * amps[2]
    amps *= np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    alphas = list(data["alphas"])
    rng.shuffle(alphas)
    data.update(path=path, alphas=alphas, initial_state={"amplitudes": _entries(amps)})
    gammas = (10.0, 30.0) if tiny else (100.0, 300.0, 1000.0)
    return [Sweep("dissipative gamma sweep", data, "gamma", gammas,
                  {"distance": (-1.0, 0.3)}, decreasing=True)]


def _tracked_custom(rng, tiny: bool, seed: int) -> list:
    u = _haar_unitary(rng, 3)
    n_values = (32, 64) if tiny else (256, 512, 1024, 2048)
    zeno = {"engine": "zeno", "model": _custom_model(u, 1.0, n_values[-1] + 1), "N": n_values[0],
            "initial_state": _custom_initial(u)}
    t_final = 2 * np.pi * ((2 if tiny else 25) + 0.25)
    adiabatic = {"engine": "adiabatic", "model": _custom_model(u, t_final, 2049),
                 "steps": int(t_final / 0.02), "initial_state": _custom_initial(u)}
    # Level 1: at level 0 a tracked frame reports an angle in another gauge than
    # phi_expected (see perfbench/README.md), so the run follows the single level.
    tracked_n = (64, 128) if tiny else (2048, 4096)
    tracked = {"engine": "zeno", "path": _scaled_circle(rng), "N": tracked_n[0],
               "frame_method": "tracked", "level": 1, "initial_state": {"name": "E_plus"}}
    return [
        Sweep("custom zeno N sweep", zeno, "N", n_values,
              {"distance": (-1.0, 0.15), "survival_deficit": (-1.0, 0.15)}),
        Run("custom adiabatic", adiabatic),
        Sweep("tracked zeno N sweep", tracked, "N", tracked_n, {"distance": (-1.0, 0.15)}),
        Checks(8 if tiny else 100, seed),
    ]


TASKS_BY_WORKLOAD = {
    "zeno_gates": _zeno_gates,
    "adiabatic_sweep": _adiabatic_sweep,
    "dissipative_sweep": _dissipative_sweep,
    "tracked_custom": _tracked_custom,
}


class Workload:
    """Tasks of one named workload, built from a seed (the reasons are in BENCHMARK.json)."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        if name not in TASKS_BY_WORKLOAD:
            raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(TASKS_BY_WORKLOAD)}")
        self.tasks = TASKS_BY_WORKLOAD[name](np.random.default_rng(seed), tiny, seed)

    def validate(self):
        """Parse and validate every scenario of the workload (part of set-up)."""
        for task in self.tasks:
            task.validate()

    def run_pass(self, recorder=None) -> PassOutcome:
        out = PassOutcome()
        for index, task in enumerate(self.tasks):
            if recorder is not None:
                recorder.run = f"{index}:{task.label}"
            task.execute(out)
        return out

    def contents(self) -> list:
        """One line per task, for the report."""
        return [task.describe() for task in self.tasks]
