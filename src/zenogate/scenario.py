"""Scenario files: schema, parsing, validation.

A scenario is a YAML document (flat keys with nested sections) declaring the
model, control path, engine, and numerical knobs of one experiment.  Unknown
keys are rejected outright (ParseError) because a silently ignored typo can
poison a whole physics sweep; constraint violations raise ValidationError
naming the offending field.

Schema (defaults in parentheses)::

    name: str                     # optional identifier; defaults to digest prefix
    engine: adiabatic | zeno | dissipative
    model:
      type: three_level | custom  (three_level)   # a custom model takes no path: its last t is the duration
      hamiltonians:               # custom only: sampled Hermitian H(t) at distinct t, linearly interpolated
        - {t: 0.0, matrix: [[...], ...]}
    path:
      type: circle | polyline | samples   (circle)
      center: [a, b]              ([0, 0])
      radius: r                   (1.0)
      windings: m                 (1)   # signed loops around the origin; 0 if not enclosing
      duration: T                 (1.0)   # a samples path is rescaled to T (default: its last time)
      samples: K                  (engine-dependent)
      points: [[a, b], ...]       # polyline corners
      times/a/b: [...]            # explicit samples
    control:
      mode: none | alpha_frame | wagon_wheel | custom   (none)
      alpha: x                    # alpha_frame strength
      hamiltonian: [[...], ...]   # constant Hermitian matrix for wagon_wheel/custom
    N: 4096                       # zeno: number of measurements
    steps: int                    # integrator steps (engine-dependent default)
    gamma: rate                   # dissipative
    alphas: [0.0, 1.0, ...]       # dissipative: one dephasing weight per level (0..nlevels-1)
    initial_state:
      name: E_plus | E_minus | E_zero   # three_level eigenvectors at the path start
      amplitudes: [...]                 # or explicit amplitudes
    level: 0                      # eigenspace index followed by the run
    nonselective: false           # zeno: evolve a density matrix, outcomes unread
    frame_method: analytic | tracked    (analytic for three_level, tracked for custom)
    runtime_budget_s: float       # optional declared runtime bound
    tolerances:                   # each > 0
      cluster: 1e-8
      holonomy: 1e-2

Every number must be finite, and counts (N, steps, level, windings,
samples) integral; `name` is a string or a number.  Matrix entries are real
numbers or two-element ``[re, im]`` lists; every matrix must be Hermitian to
``linalg.HERMITICITY_TOL``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import CriticalPoint, ParseError, ValidationError
from .linalg import HERMITICITY_TOL, hermiticity_defect
from .spectral import ParameterPath, circle_path, polyline_path, winding_number
from .zeno import ControlConfig

ENGINES = ("adiabatic", "zeno", "dissipative")
NAMED_STATES = ("E_plus", "E_minus", "E_zero")

_TOP_KEYS = {
    "name", "engine", "model", "path", "control", "N", "steps",
    "gamma", "alphas", "initial_state", "level", "nonselective",
    "frame_method", "runtime_budget_s", "tolerances",
}
_SECTION_KEYS = {
    "model": {"type", "hamiltonians"},
    "path": {"type", "center", "radius", "windings", "duration", "samples", "points", "times", "a", "b"},
    "control": {"mode", "alpha", "hamiltonian"},
    "initial_state": {"name", "amplitudes"},
    "tolerances": {"cluster", "holonomy"},
}


def _reject_unknown(section: dict, allowed: set, where: str):
    for key in section:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in {where}")


def _number(value, where: str, integral: bool = False):
    """Scalar field `where` as a finite float, or as an int when `integral`; ValidationError otherwise."""
    try:
        real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.inf
    if not math.isfinite(x) or (integral and not x.is_integer()):
        raise ValidationError(f"{where} must be {'an integer' if integral else 'a finite number'}, got {value!r}")
    return int(value) if integral else x


def _parse_entry(value, where: str) -> complex:
    """One matrix or vector entry: a real number or an [re, im] pair."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return complex(value)
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return complex(float(value[0]), float(value[1]))
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParseError(f"matrix entry in {where} must be a number or [re, im], got {value!r}")


def _numbers(value, where: str) -> np.ndarray:
    """List field `where` (nested for points) as a float array; ValidationError unless it holds only real numbers."""
    try:
        x = np.asarray(value) if isinstance(value, (list, tuple)) else None
    except ValueError:  # ragged nesting
        x = None
    if x is None or x.dtype.kind not in "iuf":
        raise ValidationError(f"{where} must be a list of numbers")
    return x.astype(float)


def parse_matrix(rows, where: str) -> np.ndarray:
    try:
        m = np.array([[_parse_entry(v, where) for v in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:  # a ragged row list is a ValueError
        raise ParseError(f"{where} is not a matrix (list of rows)") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{where} must be square, got shape {m.shape}")
    return m


def scenario_digest(data: dict) -> str:
    """Content hash of a scenario document, stable under key reordering."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class Scenario:
    """Validated scenario ready for the runner."""

    engine: str
    name: str
    digest: str
    model_type: str = "three_level"
    model_hamiltonians: list = field(default_factory=list)  # [(t, matrix), ...]
    path_spec: dict = field(default_factory=dict)
    control: ControlConfig = field(default_factory=ControlConfig)
    N: int = 4096
    steps: int | None = None
    gamma: float | None = None
    alphas: tuple | None = None
    initial_name: str | None = None
    initial_amplitudes: np.ndarray | None = None
    level: int = 0
    nonselective: bool = False
    frame_method: str = "analytic"
    runtime_budget_s: float | None = None
    cluster_tol: float = 1e-8
    holonomy_tol: float = 1e-2
    raw: dict = field(default_factory=dict)

    def build_path(self, samples: int | None = None) -> ParameterPath:
        """Materialize the declared parameter path, optionally resampled (circle and polyline paths)."""
        spec = dict(self.path_spec)
        if samples is not None:
            spec["samples"] = samples
        kind = spec["type"]
        if kind == "circle":
            return circle_path(
                center=spec["center"], radius=spec["radius"], windings=spec["windings"],
                duration=spec["duration"], samples=spec["samples"],
            )
        if kind == "polyline":
            return polyline_path(spec["points"], duration=spec["duration"], samples=spec["samples"])
        path = ParameterPath(times=spec["times"], a=spec["a"], b=spec["b"])
        if "duration" not in spec:
            return path
        return ParameterPath(times=path.times * (spec["duration"] / path.duration), a=path.a, b=path.b)


def _require(condition: bool, message: str):
    if not condition:
        raise ValidationError(message)


def _require_hermitian(m: np.ndarray, where: str):
    _require(bool(np.isfinite(m).all()), f"{where} must be finite")
    defect = hermiticity_defect(m)
    _require(defect <= HERMITICITY_TOL, f"{where} must be Hermitian: defect {defect:.3e} > {HERMITICITY_TOL:.1e}")


def scenario_from_dict(data: dict, source: str = "<dict>") -> Scenario:
    """Validate a scenario document and fill defaults."""
    if not isinstance(data, dict):
        raise ParseError(f"{source}: scenario document must be a mapping")
    _reject_unknown(data, _TOP_KEYS, source)
    for section, allowed in _SECTION_KEYS.items():
        if section in data:
            if not isinstance(data[section], dict):
                raise ParseError(f"section {section!r} in {source} must be a mapping")
            _reject_unknown(data[section], allowed, f"section {section!r} of {source}")

    engine = data.get("engine")
    if engine not in ENGINES:
        raise ValidationError(f"engine must be one of {ENGINES}, got {engine!r}")

    model = data.get("model", {})
    model_type = model.get("type", "three_level")
    _require(model_type in ("three_level", "custom"), f"model.type must be three_level or custom, got {model_type!r}")
    model_hams = []
    if model_type == "custom":
        samples = model.get("hamiltonians")
        _require(isinstance(samples, (list, tuple)) and samples, "model.hamiltonians must be a non-empty list")
        dim = None
        for i, item in enumerate(samples):
            if not isinstance(item, dict) or set(item) != {"t", "matrix"}:
                raise ParseError(f"model.hamiltonians[{i}] must be a {{t, matrix}} mapping")
            m = parse_matrix(item["matrix"], f"model.hamiltonians[{i}].matrix")
            if dim is None:
                dim = m.shape[0]
            _require(m.shape[0] == dim, "model.hamiltonians matrices must share one dimension")
            model_hams.append((_number(item["t"], f"model.hamiltonians[{i}].t"), m))
        model_hams.sort(key=lambda p: p[0])
        _require(model_hams[0][0] == 0.0, "model.hamiltonians must start at t = 0")
        _require(len({t for t, _ in model_hams}) == len(model_hams), "model.hamiltonians times must be distinct")
        _require_hermitian(np.stack([m for _, m in model_hams]), "model.hamiltonians")

    pspec = dict(data.get("path", {}))
    ptype = pspec.setdefault("type", "circle")
    _require(ptype in ("circle", "polyline", "samples"), f"path.type must be circle, polyline or samples, got {ptype!r}")
    if ptype == "circle":
        pspec.setdefault("center", [0.0, 0.0])
        pspec.setdefault("radius", 1.0)
        pspec.setdefault("windings", 1)
        pspec.setdefault("duration", 1.0)
        center = pspec["center"]
        _require(isinstance(center, (list, tuple)) and len(center) == 2, "path.center must be [a, b]")
        pspec["center"] = [_number(c, "path.center") for c in center]
        pspec["radius"] = _number(pspec["radius"], "path.radius")
        _require(pspec["radius"] > 0, "path.radius must be positive")
        pspec["windings"] = _number(pspec["windings"], "path.windings", integral=True)
    elif ptype == "polyline":
        _require("points" in pspec, "path.points is required for a polyline path")
        pspec["points"] = _numbers(pspec["points"], "path.points")
        pspec.setdefault("duration", 1.0)
    else:
        for key in ("times", "a", "b"):
            _require(key in pspec, f"path.{key} is required for sampled paths")
            pspec[key] = _numbers(pspec[key], f"path.{key}")
    for key in ("duration", "samples"):
        if key in pspec:
            pspec[key] = _number(pspec[key], f"path.{key}", integral=key == "samples")
    _require(pspec.get("duration", 1.0) > 0, "path.duration must be positive")

    n_meas = _number(data.get("N", 4096), "N", integral=True)
    _require(n_meas >= 1, "N must be a positive integer")
    steps = data.get("steps")
    if steps is not None:
        steps = _number(steps, "steps", integral=True)
        _require(steps >= 1, "steps must be a positive integer")
    level = _number(data.get("level", 0), "level", integral=True)
    _require(level >= 0, "level must be nonnegative")
    nonselective = data.get("nonselective", False)
    _require(isinstance(nonselective, bool), "nonselective must be true or false")
    frame_method = data.get("frame_method", "analytic" if model_type == "three_level" else "tracked")
    _require(frame_method in ("analytic", "tracked"), "frame_method must be analytic or tracked")
    if model_type == "custom":
        _require(frame_method == "tracked", "custom models support only tracked frames")

    gamma = data.get("gamma")
    alphas = data.get("alphas")
    if engine == "dissipative":
        _require(gamma is not None, "gamma is required for the dissipative engine")
    if gamma is not None:
        gamma = _number(gamma, "gamma")
        _require(gamma >= 0, "gamma must be nonnegative")
    if alphas is not None:
        _require(isinstance(alphas, (list, tuple)), "alphas must be a list of weights")
        alphas = tuple(_number(a, "alphas") for a in alphas)

    cspec = data.get("control", {})
    mode = cspec.get("mode", "none")
    cham = None
    if "hamiltonian" in cspec:
        cham = parse_matrix(cspec["hamiltonian"], "control.hamiltonian")
        _require_hermitian(cham, "control.hamiltonian")
    try:
        control = ControlConfig(mode=mode, alpha=_number(cspec.get("alpha", 0.0), "control.alpha"), hamiltonian=cham)
    except ValueError as exc:
        raise ValidationError(f"control: {exc}") from exc
    if control.mode == "alpha_frame":
        _require(model_type == "three_level", "control.mode alpha_frame requires the three_level model")

    istate = data.get("initial_state", {"name": "E_minus"})
    iname = istate.get("name")
    iamps = istate.get("amplitudes")
    _require((iname is None) != (iamps is None), "initial_state needs exactly one of name, amplitudes")
    if iname is not None:
        _require(iname in NAMED_STATES, f"initial_state.name must be one of {NAMED_STATES}, got {iname!r}")
        _require(model_type == "three_level", f"named state {iname!r} does not exist for a custom model")
    amps = None
    if iamps is not None:
        _require(isinstance(iamps, (list, tuple)), "initial_state.amplitudes must be a list")
        amps = np.array([_parse_entry(v, "initial_state.amplitudes") for v in iamps], dtype=complex)
        _require(bool(np.isfinite(amps).all()), "initial_state.amplitudes must be finite")
        norm = np.linalg.norm(amps)
        _require(norm > 0, "initial_state.amplitudes must be nonzero")
        amps = amps / norm

    tols = data.get("tolerances", {})
    cluster_tol = _number(tols.get("cluster", 1e-8), "tolerances.cluster")
    holonomy_tol = _number(tols.get("holonomy", 1e-2), "tolerances.holonomy")
    _require(cluster_tol > 0, "tolerances.cluster must be positive")
    _require(holonomy_tol > 0, "tolerances.holonomy must be positive")
    budget = data.get("runtime_budget_s")
    name = data.get("name", "")
    _require(isinstance(name, (str, int, float)), "name must be a string or a number")

    digest = scenario_digest(data)
    scenario = Scenario(
        engine=engine,
        name=str(name) or digest[:12],
        digest=digest,
        model_type=model_type,
        model_hamiltonians=model_hams,
        path_spec=pspec,
        control=control,
        N=n_meas,
        steps=steps,
        gamma=gamma,
        alphas=alphas,
        initial_name=iname,
        initial_amplitudes=amps,
        level=level,
        nonselective=nonselective,
        frame_method=frame_method,
        runtime_budget_s=None if budget is None else _number(budget, "runtime_budget_s"),
        cluster_tol=cluster_tol,
        holonomy_tol=holonomy_tol,
        raw=data,
    )

    # The declared path must actually be constructible (winding/enclosure
    # consistency, no critical point) before the runner ever sees it.
    if model_type == "three_level":
        try:
            path = scenario.build_path(samples=pspec.get("samples", 129))
        except (ValueError, CriticalPoint) as exc:
            raise ValidationError(f"path: {exc}") from exc
        if ptype == "circle" and path.closed:
            _require(
                winding_number(path) == pspec["windings"],
                f"path.windings = {pspec['windings']} does not match the loop's actual winding",
            )
    # A custom model's sampled times fix its duration, so a path would be silently ignored.
    if model_type == "custom":
        _require("path" not in data, "a custom model takes no path section")
        _require(model_hams[-1][0] > 0, "model.hamiltonians must span a positive duration")
    return scenario


def load_scenario(path) -> Scenario:
    """Load and validate a scenario YAML file."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(data, source=str(path))
