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
from functools import partial

import numpy as np

from . import dissipative as dis
from . import zeno as zn
from .adiabatic import PropagatorResult, gauge_decompose, propagate_exact, rotating_generator
from .errors import AxisMismatch, NotASubspaceRotation, ValidationError
from .linalg import _range_basis, spectral_norm, state_fidelity, trace_distance
from .scenario import ENGINE_KEYS, MAX_COUNT, Scenario, _derived, _number
from .spectral import (ClosedFormHamiltonian, FramePath, _circle_controls, _knot_controls, _rotations,
                       frame_path_analytic_three_level, instantaneous_spectra, three_level_eigenbasis,
                       three_level_generators, three_level_hamiltonian, three_level_projectors, three_level_propagators,
                       track_levels)

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
        hidden = () if include_timing else ("wall_ms",)
        return [_format_value(None if c in hidden else getattr(self, c)) for c in CSV_COLUMNS]


@dataclass
class SweepSummary:
    """Per-value records of a sweep plus fitted log-log slopes."""

    axis: str
    records: list
    slopes: dict = field(default_factory=dict)


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return f"{float(v):.12g}"


# ---------------------------------------------------------------------------
# Context assembly
# ---------------------------------------------------------------------------

def _model_hamiltonian(scenario: Scenario, path):
    """The model's H(t) as a callable on a whole time grid.

    A built-in path is followed as declared, whatever grid `path` (read for
    T alone) samples: a circle on the circle itself, at the fraction t / T
    of the loop, and a polyline or samples path linearly between its knots.
    """
    if scenario.model_type == "custom":
        return scenario.model_hamiltonians.at

    spec = scenario.path_spec
    if scenario._knots is not None:
        controls = _knot_controls(scenario._knots, path.duration)
    else:
        on_circle = _circle_controls(spec["center"], spec["radius"], spec["windings"])

        def controls(t):
            return on_circle(np.asarray(t) / spec["duration"])

    return ClosedFormHamiltonian(lambda t: three_level_hamiltonian(*controls(t)),
                                 lambda t, dts: three_level_propagators(*controls(t), dts))


def _frames_for(scenario: Scenario, samples: int):
    """(path, frames, energies) on a uniform grid with the requested number of samples.

    `path` is None for a custom model; `energies[k, n]` is the energy of
    tracked level n at sample k (None for closed-form frames).
    Inputs that do not fit the model's levels or dimension raise ValidationError.
    """
    path = None if scenario.model_type == "custom" else scenario.build_path(samples=samples)
    dim = 3 if path is not None else scenario.model_hamiltonians.operators.shape[-1]
    for where, m in (("initial_state.amplitudes", scenario.initial_amplitudes),
                     ("control.hamiltonian", scenario.control.hamiltonian)):
        if m is not None and m.shape[0] != dim:
            raise ValidationError(f"{where} has dimension {m.shape[0]}, the model has dimension {dim}")
    energies = None
    if scenario.control.mode == "wagon_wheel":
        projectors0 = three_level_projectors(path.theta()[0])
        frames = zn.wagon_wheel_frames(scenario.control.hamiltonian, path.times, projectors0)
    elif scenario.frame_method == "analytic":
        frames = frame_path_analytic_three_level(path)
    else:
        times = np.linspace(0.0, scenario.model_hamiltonians.times[-1], samples) if path is None else path.times
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
    """Predicted unwrapped rotation angle of three-level level 0, when its control admits one."""
    if scenario.control.mode not in ("none", "alpha_frame"):
        return None
    theta = path.theta()
    return float((1.0 - scenario.control.alpha) * (theta[-1] - theta[0]) / np.sqrt(2.0))


def _record_angle(record: ResultRecord, scenario: Scenario, path, frames: FramePath, gate, tol: float):
    """Fill the angle fields from `gate`, the run's lab-frame operator on the followed level.

    The angle is read in the gauge of the run's closed-form frame (analytic
    or wagon-wheel), the one `phi_expected` assumes.  A tracked W(T) is
    another gauge: its maximal-overlap continuity already carries the
    holonomy, so W(T)^dag would strip the angle off; the analytic W(T)
    stands in for it.
    """
    if scenario.model_type != "three_level" or scenario.level != 0:
        return
    gens = three_level_generators(float(path.theta()[0]))
    wt = (frames if scenario.frame_method == "analytic" else frame_path_analytic_three_level(path)).final
    try:
        record.phi_principal = zn.holonomy_angle(wt.conj().T @ gate, gens.subspace_generator, tol=tol)
    except NotASubspaceRotation:
        pass
    record.phi_expected = _expected_holonomy(scenario, path)


def _route(scenario: Scenario, path, frames: FramePath):
    """The run's route: rotation-angle form (`zn._RotationRun`) where it has one, else `zn._SampledRun`.

    Three-level runs with analytic frames and control none or alpha_frame have that form, and so have wagon-wheel
    runs: their frames turn about H_0 by phi = 2t, and H_0 = (1/2) dphi/dt H_0, so alpha = 1/2 and K = -H_0.
    """
    if scenario.control.mode == "wagon_wheel":
        return zn._RotationRun(frames, 0.5)
    analytic = scenario.model_type == "three_level" and scenario.frame_method == "analytic"
    if analytic and scenario.control.mode in ("none", "alpha_frame"):
        return zn._RotationRun(frames, scenario.control.alpha)
    h0 = zn.control_hamiltonian(scenario.control, path)
    return zn._SampledRun(h0, frames, rotating_generator(h0, frames))


def _record_dephased_prediction(record: ResultRecord, gate_of, frames: FramePath, rho0, result: zn.MasterResult):
    """Compare result.final with the nonselective Zeno limit W(T) U_Z P[rho0] U_Z^dag W(T)^dag; copy its drift.

    U_Z is the product of the level gates `gate_of(n)` of H_Z[n] = P_n(0) K P_n(0) (blocks on orthogonal
    P_n(0) commute), K the run's rotating-frame generator; P is the dephasing onto the initial eigenspaces.
    """
    u = frames.final
    for n in range(frames.nlevels):
        u = u @ gate_of(n)
    pred = u @ zn.nonselective_step(rho0, frames.projectors0) @ u.conj().T
    record.distance = trace_distance(result.final, pred)
    record.fidelity = state_fidelity(result.final, pred)
    record.trace_drift = result.trace_drift


# ---------------------------------------------------------------------------
# Engine runs
# ---------------------------------------------------------------------------

def _run_zeno(scenario: Scenario, record: ResultRecord):
    n, level = scenario.N, scenario.level
    path, frames, _ = _frames_for(scenario, samples=n + 1)
    psi0 = _initial_vector(scenario, path)
    route = _route(scenario, path, frames)
    step = _constant_step(scenario, frames, route)
    repeats = None if step is None else n  # one step factor taken n times
    factors = partial(route.factors if step is None else step, n)

    if scenario.nonselective:
        rho0 = np.outer(psi0, psi0.conj())
        result = zn._nonselective(frames, factors(np.eye(frames.dim)), rho0, repeats)
        _record_dephased_prediction(record, route.gate, frames, rho0, result)
        return

    q = _range_basis(frames.projectors0[level])
    zr = zn._selective(frames, q, factors(q), psi0, repeats)
    record.p_N = zr.survival_probability
    limit = frames.final @ route.gate(level)  # W(T) U_Z, the lab-frame Zeno limit
    record.distance = spectral_norm(zr.final_operator - limit @ frames.projectors0[level])
    record.fidelity = float(abs((limit @ psi0).conj() @ zr.conditional_state) ** 2)
    _record_angle(record, scenario, path, frames, zr.final_operator, scenario.holonomy_tol)


def _bounded_count(count: float) -> int:
    """int(count) for a derived step count; ValidationError when it exceeds MAX_COUNT or is NaN."""
    if not count <= MAX_COUNT:
        raise ValidationError(f"the derived step count {count:.3g} exceeds the bound {MAX_COUNT}")
    return int(count)


def _step_count(scenario: Scenario, floor: int, estimate: float) -> int:
    """The scenario's `steps`, else max(floor, ceil(estimate)); ValidationError when that exceeds MAX_COUNT."""
    if scenario.steps is not None:
        return scenario.steps
    return _bounded_count(max(float(floor), float(np.ceil(estimate))))


def _constant_step(scenario: Scenario, frames: FramePath, route):
    """(n, basis=None) -> Q^dag exp(-i K T / n) Q, a (1, r, r) stack, when the rotating-frame generator K is constant.

    K is constant for a wagon-wheel control (K = -H_0) and for a rotation-form run (`_route`) on a circle
    around the origin, where dtheta/dt = 2 pi windings / T.  A Zeno run turns about its frame generator G by
    (alpha - 1) phi(T) / n; an adiabatic run adds the model's H and turns about K T = 2 r T P_+(theta_0) -
    2 pi windings g, formed without dtheta/dt (inf at tiny T), by 1 / n.  Both go through `spectral._rotations`.
    None for every other run (dissipative runs keep `dis.integrate_rotating` and do not ask).
    """
    if not isinstance(route, zn._RotationRun):
        return None
    spec = scenario.path_spec
    if scenario.control.mode != "wagon_wheel" and (spec["type"] != "circle" or spec["center"] != [0.0, 0.0]):
        return None
    if scenario.engine == "adiabatic":
        kt = (2.0 * spec["radius"] * spec["duration"] * frames.projectors0[1]  # level 1 has energy 2r
              - 2.0 * np.pi * spec["windings"] * frames.generator)
        rotations, angle = _rotations(kt), 1.0
    else:
        rotations, angle = frames.rotations, (route.alpha - 1.0) * frames.phi[-1]
    return lambda n, basis=None: rotations(np.array([angle / n]), basis)


def _run_adiabatic(scenario: Scenario, record: ResultRecord):
    """Propagate H(t), then strip the frame and the dynamical phases (`gauge_decompose`).

    Two routes: a circle around the origin with analytic frames in closed
    form, U(T) = W(T) exp(-i K T) (`_constant_step`), exact whatever `steps`
    (only recorded) is, with `estimated_error` 0.0; every other run by
    `propagate_exact` on the model's H(t) (`_model_hamiltonian`), which
    follows the declared loop: `path.samples` places only the frame samples.
    """
    path, frames, energies = _frames_for(scenario, samples=scenario.path_spec.get("samples") or 2049)
    duration = float(frames.times[-1])
    steps = _step_count(scenario, 1024, 100.0 * duration)
    if energies is None:
        r = path.radius()
        energies = np.column_stack([np.zeros_like(r), 2.0 * r])

    route = _route(scenario, path, frames)
    step = _constant_step(scenario, frames, route)
    if step is None:
        result = propagate_exact(_model_hamiltonian(scenario, path), duration, steps)
    else:
        result = PropagatorResult(unitary=frames.final @ step(1)[0], step_count=steps, t_final=duration, _h_of_t=None)
    decomp = gauge_decompose(result, frames, energies)
    psi0 = _initial_vector(scenario, path)
    p0 = frames.projectors0[scenario.level]
    psi = decomp.gauge_evolution @ psi0
    record.q_n = float(np.real(psi.conj() @ (psi - p0 @ psi)))
    gate = p0 @ route.gate(scenario.level) @ p0
    evolved = decomp.gauge_evolution @ p0
    # |<G, U_G P>|^2 / (|G|^2 |U_G P|^2) with Frobenius products: at most 1 by
    # Cauchy-Schwarz, and leakage still lowers it because U_G is unitary.
    overlap = abs(np.vdot(gate, evolved)) ** 2
    record.fidelity = float(overlap / (np.vdot(gate, gate).real * np.vdot(evolved, evolved).real))
    record.distance = spectral_norm(p0 @ decomp.gauge_evolution @ p0 - gate)
    tol = max(scenario.holonomy_tol, 10.0 * record.distance)
    _record_angle(record, scenario, path, frames, result.unitary @ p0, tol)


def _run_dissipative(scenario: Scenario, record: ResultRecord):
    """Integrate in the frame rotating with the projectors (`dis.integrate_rotating`).

    Frames and K(t) are sampled on 4097 points.  The step count is `steps`
    when given, else max(512, the least count the engine's budget admits):
    records at 512 steps lie within 1.3e-6 of those at 4096, on paths with
    corners too.
    """
    path, frames, _ = _frames_for(scenario, samples=4097)
    duration = float(frames.times[-1])
    alphas = tuple(float(i) for i in range(frames.nlevels)) if scenario.alphas is None else scenario.alphas
    if len(alphas) != frames.nlevels:
        raise ValidationError(f"alphas needs one weight per level: {len(alphas)} given, {frames.nlevels} levels")

    try:
        needed = dis.fewest_steps(scenario.gamma, alphas, duration, dis.EXPONENTIAL_BUDGET)
    except ValueError as exc:
        raise ValidationError(f"alphas: {exc}") from exc
    steps = _step_count(scenario, 512, needed)
    psi0 = _initial_vector(scenario, path)
    rho0 = np.outer(psi0, psi0.conj())
    route = _route(scenario, path, frames)
    result = dis.integrate_rotating(route.rotating_generator(), frames, scenario.gamma, alphas, rho0, steps)
    _record_dephased_prediction(record, route.gate, frames, rho0, result)


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

AXIS_KEYS = {"N": "N", "gamma": "gamma", "alpha": "control", "T": "path", "steps": "steps"}  # the key each axis edits


def _derive(scenario: Scenario, axis: str, value) -> Scenario:
    """The scenario with `axis` set to `value`, derived from the validated `scenario`.

    Only the edited key (`N`, `gamma`, `control`, `steps`, or `path` plus
    `steps` on a T sweep) is parsed and encoded again, then every cross-field
    rule re-runs; the rest keeps the parse and canonical JSON `scenario` had
    when it was validated.  `scenario.raw` stays as it is.  Counts must be
    integral: N = 64.5 raises ValidationError rather than running N = 64.
    """
    raw = scenario.raw
    if axis == "N":
        edits = {"N": _number(value, "N", integral=True)}
    elif axis == "gamma":
        edits = {"gamma": float(value)}
    elif axis == "alpha":
        edits = {"control": {**raw.get("control", {}), "alpha": float(value)}}
    elif axis == "steps":
        edits = {"steps": _number(value, "steps", integral=True)}
    else:
        base = scenario.build_path(samples=2).duration  # only the end time is read
        edits = {"path": {**raw.get("path", {}), "duration": float(value)}}
        if scenario.steps is not None:
            edits["steps"] = max(1, _bounded_count(float(np.ceil(scenario.steps * float(value) / base))))
    return _derived(scenario, edits)


def _loglog_slope(xs, ys) -> float | None:
    """Least-squares slope of log y over log x on the positive points; None unless two distinct x remain."""
    pts = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None and x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


def sweep(scenario: Scenario, axis: str, values) -> SweepSummary:
    """Run the scenario once per axis value; fit slopes on convergence axes (ValidationError without values)."""
    if axis not in AXIS_KEYS:
        raise AxisMismatch(f"unknown sweep axis {axis!r}")
    if AXIS_KEYS[axis] not in ENGINE_KEYS[scenario.engine]:
        raise AxisMismatch(f"axis {axis!r} does not apply to the {scenario.engine} engine")
    if axis == "T" and scenario.model_type == "custom":
        raise AxisMismatch("axis 'T' edits the path, and a custom model has none: its last sample time is T")
    if axis == "alpha" and scenario.control.mode != "alpha_frame":
        raise AxisMismatch("axis 'alpha' requires control.mode = alpha_frame")
    values = sorted(values)
    if not values:
        raise ValidationError(f"a sweep along {axis!r} needs at least one value")
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
