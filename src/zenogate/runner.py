"""Experiment orchestration: single runs, sweeps, and result emission.

`run` dispatches a validated Scenario to its engine and returns a
ResultRecord of plot-ready scalars; `sweep` repeats a scenario along one
axis and fits log-log convergence slopes; `emit` writes records as CSV or a
JSON document.  All computation is pure (nothing is written unless `emit`
is called) and deterministic for a fixed scenario.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import dissipative as dis
from . import zeno as zn
from .adiabatic import gauge_decompose, propagate_exact
from .errors import AxisMismatch, NotASubspaceRotation, ValidationError
from .linalg import spectral_norm, state_fidelity, trace_distance
from .scenario import Scenario, scenario_from_dict
from .spectral import (
    FramePath,
    OperatorPath,
    _plane_rotation_stack,
    frame_path_analytic_three_level,
    instantaneous_spectra,
    three_level_eigenbasis,
    three_level_generators,
    three_level_hamiltonian,
    three_level_projectors,
    track_levels,
)

CSV_COLUMNS = (
    "scenario_id", "engine", "axis", "axis_value", "p_N", "q_n", "fidelity",
    "phi_principal", "phi_expected", "distance", "trace_drift", "wall_ms",
)


@dataclass
class ResultRecord:
    """Scalar outcomes of one engine run (absent quantities stay None)."""

    scenario_id: str
    digest: str
    engine: str
    axis: str = ""
    axis_value: float | None = None
    p_N: float | None = None
    q_n: float | None = None
    fidelity: float | None = None
    phi_principal: float | None = None
    phi_expected: float | None = None
    distance: float | None = None
    trace_drift: float | None = None
    wall_ms: float | None = None

    def as_row(self, include_timing: bool = False) -> list:
        vals = {
            "scenario_id": self.scenario_id,
            "engine": self.engine,
            "axis": self.axis,
            "axis_value": self.axis_value,
            "p_N": self.p_N,
            "q_n": self.q_n,
            "fidelity": self.fidelity,
            "phi_principal": self.phi_principal,
            "phi_expected": self.phi_expected,
            "distance": self.distance,
            "trace_drift": self.trace_drift,
            "wall_ms": self.wall_ms if include_timing else None,
        }
        return [_format_value(vals[c]) for c in CSV_COLUMNS]


@dataclass
class SweepSummary:
    """Per-value records of a sweep plus fitted log-log slopes."""

    axis: str
    records: list
    slopes: dict = field(default_factory=dict)


def _format_value(v) -> str:
    if v is None or v == "":
        return "" if v is None else str(v)
    if isinstance(v, str):
        return v
    return f"{float(v):.12g}"


# ---------------------------------------------------------------------------
# Context assembly
# ---------------------------------------------------------------------------

def _model_hamiltonian(scenario: Scenario, path):
    """The model's H(t) as a callable on a whole time grid; (a, b) interpolate linearly between path samples."""
    if scenario.model_type == "custom":
        times, mats = zip(*scenario.model_hamiltonians)
        return OperatorPath(times=times, operators=np.stack(mats)).at
    return lambda t: three_level_hamiltonian(np.interp(t, path.times, path.a), np.interp(t, path.times, path.b))


def _frames_for(scenario: Scenario, samples: int):
    """(path, frames, energies) on a uniform grid with the requested number of samples.

    `path` is None for a custom model; `energies[k, n]` is the energy of
    tracked level n at sample k (None for closed-form frames).
    Inputs that do not fit the model's levels or dimension raise ValidationError.
    """
    path = None if scenario.model_type == "custom" else scenario.build_path(samples=samples)
    dim = 3 if path is not None else scenario.model_hamiltonians[0][1].shape[0]
    for where, m in (("initial_state.amplitudes", scenario.initial_amplitudes),
                     ("control.hamiltonian", scenario.control.hamiltonian)):
        if m is not None and m.shape[0] != dim:
            raise ValidationError(f"{where} has dimension {m.shape[0]}, the model has dimension {dim}")
    energies = None
    if path is not None and scenario.control.mode == "wagon_wheel":
        theta0 = float(path.theta()[0])
        frames = zn.wagon_wheel_frames(scenario.control.hamiltonian, path.times, three_level_projectors(theta0))
    elif scenario.frame_method == "analytic":
        frames = frame_path_analytic_three_level(path)
    else:
        times = np.linspace(0.0, scenario.model_hamiltonians[-1][0], samples) if path is None else path.times
        spectra = instantaneous_spectra(_model_hamiltonian(scenario, path)(times), scenario.cluster_tol)
        frames, order = track_levels(times, spectra)
        energies = np.take_along_axis(spectra.energies, order, axis=1)
    if scenario.level >= frames.nlevels:
        raise ValidationError(f"level {scenario.level} does not exist: the model has {frames.nlevels} levels")
    return path, frames, energies


def _initial_vector(scenario: Scenario, path) -> np.ndarray:
    if scenario.initial_amplitudes is not None:
        return scenario.initial_amplitudes
    theta0 = float(path.theta()[0])
    ep, em, ez = three_level_eigenbasis(theta0)
    return {"E_plus": ep, "E_minus": em, "E_zero": ez}[scenario.initial_name]


def _expected_holonomy(scenario: Scenario, path) -> float | None:
    """Predicted unwrapped subspace rotation angle, when the model admits one."""
    if scenario.model_type != "three_level" or scenario.level != 0:
        return None
    if scenario.control.mode not in ("none", "alpha_frame") and scenario.engine != "adiabatic":
        return None
    theta = path.theta()
    alpha = scenario.control.alpha if scenario.control.mode == "alpha_frame" else 0.0
    if scenario.engine == "adiabatic":
        alpha = 0.0
    return float((1.0 - alpha) * (theta[-1] - theta[0]) / np.sqrt(2.0))


def _record_angle(record: ResultRecord, scenario: Scenario, path, frames: FramePath, gate, tol: float):
    """Fill the angle fields from `gate`, the run's lab-frame operator on the followed level.

    The angle is read in the gauge of the closed-form frame, the one
    `phi_expected` assumes.  A tracked W(T) is another gauge: its
    maximal-overlap continuity already carries the holonomy, so W(T)^dag
    would strip the angle off.
    """
    if scenario.model_type != "three_level" or scenario.level != 0:
        return
    theta = path.theta()
    gens = three_level_generators(float(theta[0]))
    if scenario.control.mode == "wagon_wheel":
        wt = frames.frames[-1]  # closed form exp(-2i H_0 T)
    else:
        wt = _plane_rotation_stack(gens.frame_generator, theta[-1:] - theta[0])[0]
    try:
        record.phi_principal = zn.holonomy_angle(wt.conj().T @ gate, gens.subspace_generator, tol=tol)
    except NotASubspaceRotation:
        pass
    record.phi_expected = _expected_holonomy(scenario, path)


def _record_dephased_prediction(record: ResultRecord, h0, frames: FramePath, rho0, rho):
    """Compare rho with the nonselective Zeno limit W(T) U_Z P[rho0] U_Z^dag W(T)^dag.

    U_Z composes the Zeno gates of every level; P is the dephasing onto the
    initial eigenspaces.
    """
    uz = np.eye(frames.dim, dtype=complex)
    for n in range(frames.nlevels):
        uz = zn.zeno_unitary(zn.zeno_hamiltonian(h0, frames, n)) @ uz
    u = frames.frames[-1] @ uz
    pred = u @ zn.nonselective_step(rho0, frames.projectors0) @ u.conj().T
    record.distance = trace_distance(rho, pred)
    record.fidelity = state_fidelity(rho, pred)


# ---------------------------------------------------------------------------
# Engine runs
# ---------------------------------------------------------------------------

def _run_zeno(scenario: Scenario, record: ResultRecord):
    n = scenario.N
    path, frames, _ = _frames_for(scenario, samples=n + 1)
    h0 = zn.control_hamiltonian(scenario.control, path)
    psi0 = _initial_vector(scenario, path)

    if scenario.nonselective:
        rho0 = np.outer(psi0, psi0.conj())
        rho = zn.nonselective_zeno_evolution(h0, frames, n, rho0)
        _record_dephased_prediction(record, h0, frames, rho0, rho)
        record.trace_drift = abs(float(np.trace(rho).real) - 1.0)
        return

    zr = zn.projected_evolution(h0, frames, scenario.level, n, psi0)
    record.p_N = zr.survival_probability
    wt = frames.frames[-1]
    p0 = frames.projectors0[scenario.level]
    gate_limit = zn.zeno_unitary(zn.zeno_hamiltonian(h0, frames, scenario.level))
    record.distance = spectral_norm(zr.final_operator - wt @ gate_limit @ p0)
    pred_state = wt @ (gate_limit @ psi0)
    record.fidelity = float(abs(pred_state.conj() @ zr.conditional_state) ** 2)
    _record_angle(record, scenario, path, frames, zr.final_operator, scenario.holonomy_tol)


def _run_adiabatic(scenario: Scenario, record: ResultRecord):
    path, frames, energies = _frames_for(scenario, samples=scenario.path_spec.get("samples") or 2049)
    duration = float(frames.times[-1])
    steps = scenario.steps if scenario.steps is not None else max(1024, int(np.ceil(duration * 100)))
    if energies is None:
        r = path.radius()
        energies = np.column_stack([np.zeros_like(r), 2.0 * r])

    result = propagate_exact(_model_hamiltonian(scenario, path), duration, steps)
    decomp = gauge_decompose(result, frames, energies)
    psi0 = _initial_vector(scenario, path)
    p0 = frames.projectors0[scenario.level]
    psi = decomp.gauge_evolution @ psi0
    record.q_n = float(np.real(psi.conj() @ (psi - p0 @ psi)))
    gate = p0 @ zn.zeno_unitary(zn.zeno_hamiltonian(None, frames, scenario.level)) @ p0
    evolved = decomp.gauge_evolution @ p0
    # |<G, U_G P>|^2 / (|G|^2 |U_G P|^2) with Frobenius products: at most 1 by
    # Cauchy-Schwarz, and leakage still lowers it because U_G is unitary.
    overlap = abs(np.vdot(gate, evolved)) ** 2
    record.fidelity = float(overlap / (np.vdot(gate, gate).real * np.vdot(evolved, evolved).real))
    record.distance = spectral_norm(p0 @ decomp.gauge_evolution @ p0 - gate)
    tol = max(scenario.holonomy_tol, 10.0 * record.distance)
    _record_angle(record, scenario, path, frames, result.unitary @ p0, tol)


def _dissipative_defaults(scenario: Scenario, duration: float, gap_sq: float) -> int:
    if scenario.steps is not None:
        return scenario.steps
    stiff = int(np.ceil(scenario.gamma * gap_sq * duration / dis.STIFFNESS_BUDGET))
    return max(512, stiff)


def _run_dissipative(scenario: Scenario, record: ResultRecord):
    reference_samples = 4097
    path, frames, _ = _frames_for(scenario, samples=reference_samples)
    duration = float(frames.times[-1])
    h0 = zn.control_hamiltonian(scenario.control, path)
    alphas = tuple(float(i) for i in range(frames.nlevels)) if scenario.alphas is None else scenario.alphas
    if len(alphas) != frames.nlevels:
        raise ValidationError(f"alphas needs one weight per level: {len(alphas)} given, {frames.nlevels} levels")

    if scenario.model_type == "three_level":
        def projectors_at(t):
            theta = np.arctan2(np.interp(t, path.times, path.b), np.interp(t, path.times, path.a))
            return three_level_projectors(theta)
    else:
        projectors_at = dis.projectors_from_frames(frames)

    try:
        diss = dis.DissipatorSpec(gamma=scenario.gamma, alphas=alphas, projectors_at=projectors_at)
    except ValueError as exc:
        raise ValidationError(f"alphas: {exc}") from exc
    steps = _dissipative_defaults(scenario, duration, diss.max_weight_gap_sq())
    psi0 = _initial_vector(scenario, path)
    rho0 = np.outer(psi0, psi0.conj())
    traj = dis.integrate_master(h0, diss, rho0, duration, steps, store_every=steps)
    record.trace_drift = traj.trace_drift
    _record_dephased_prediction(record, h0, frames, rho0, traj.final)


_ENGINES = {"zeno": _run_zeno, "adiabatic": _run_adiabatic, "dissipative": _run_dissipative}


def run(scenario: Scenario) -> ResultRecord:
    """Execute one scenario and return its result record (pure compute)."""
    record = ResultRecord(scenario_id=scenario.name, digest=scenario.digest, engine=scenario.engine)
    start = time.perf_counter()
    _ENGINES[scenario.engine](scenario, record)
    record.wall_ms = 1000.0 * (time.perf_counter() - start)
    return record


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

_AXES = {
    "N": ("zeno",),
    "gamma": ("dissipative",),
    "alpha": ("zeno",),
    "T": ("zeno", "adiabatic", "dissipative"),
    "steps": ("adiabatic", "dissipative"),
}


def _derive(scenario: Scenario, axis: str, value) -> Scenario:
    """The scenario with `axis` set to `value`; `scenario.raw` stays as it is, only the edited section is copied."""
    data = dict(scenario.raw)
    if axis == "N":
        data["N"] = int(value)
    elif axis == "gamma":
        data["gamma"] = float(value)
    elif axis == "alpha":
        data["control"] = {**data.get("control", {}), "alpha": float(value)}
    elif axis == "steps":
        data["steps"] = int(value)
    elif axis == "T":
        base = scenario.build_path(samples=2).duration  # only the end time is read
        data["path"] = {**data.get("path", {}), "duration": float(value)}
        if scenario.steps is not None:
            data["steps"] = max(1, int(np.ceil(scenario.steps * float(value) / base)))
    return scenario_from_dict(data, source=f"<sweep {axis}={value}>")


def _loglog_slope(xs, ys) -> float | None:
    pts = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None and x > 0 and y > 0]
    if len(pts) < 2:
        return None
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


def sweep(scenario: Scenario, axis: str, values) -> SweepSummary:
    """Run the scenario once per axis value; fit slopes on convergence axes."""
    if axis not in _AXES:
        raise AxisMismatch(f"unknown sweep axis {axis!r}")
    if scenario.engine not in _AXES[axis]:
        raise AxisMismatch(f"axis {axis!r} does not apply to the {scenario.engine} engine")
    if axis == "alpha" and scenario.control.mode != "alpha_frame":
        raise AxisMismatch("axis 'alpha' requires control.mode = alpha_frame")
    values = sorted(values)
    records = []
    for v in values:
        derived = _derive(scenario, axis, v)
        rec = run(derived)
        rec.axis = axis
        rec.axis_value = float(v)
        records.append(rec)
    slopes = {}
    xs = [r.axis_value for r in records]
    if axis == "N":
        slopes["survival_deficit"] = _loglog_slope(xs, [None if r.p_N is None else 1.0 - r.p_N for r in records])
        slopes["distance"] = _loglog_slope(xs, [r.distance for r in records])
    elif axis == "gamma":
        slopes["distance"] = _loglog_slope(xs, [r.distance for r in records])
    elif axis == "T":
        slopes["escape"] = _loglog_slope(xs, [r.q_n for r in records])
        slopes["distance"] = _loglog_slope(xs, [r.distance for r in records])
    return SweepSummary(axis=axis, records=records, slopes={k: v for k, v in slopes.items() if v is not None})


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit(records, out_path, fmt: str = "csv", include_timing: bool = False):
    """Write records to `out_path` as CSV or a JSON document.

    Output is byte-stable for identical inputs; measured wall time is
    emitted only when `include_timing` is set, because it would break that
    stability.  I/O failures propagate as the interpreter's OSError.
    """
    records = list(records)
    if fmt == "csv":
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in records:
                writer.writerow(rec.as_row(include_timing=include_timing))
    elif fmt == "json-like":
        docs = []
        for rec in records:
            doc = {c: v for c, v in zip(CSV_COLUMNS, rec.as_row(include_timing=include_timing))}
            doc["digest"] = rec.digest
            docs.append(doc)
        with open(out_path, "w") as fh:
            json.dump(docs, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise ValidationError(f"unknown emit format {fmt!r}")
