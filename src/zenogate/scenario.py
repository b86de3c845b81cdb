"""Scenario files: schema, parsing, validation.

A scenario is a YAML document (flat keys with nested sections) declaring the
model, control path, engine, and numerical knobs of one experiment.  Unknown
keys are rejected outright (ParseError) because a silently ignored typo can
poison a whole physics sweep; so is a key given twice in one mapping, which
YAML would resolve silently to its last value.  A key that the engine
(``ENGINE_KEYS``, ``UNREAD_SUBKEYS`` inside sections) or the control mode
(``CONTROL_KEYS``) does not read, and every other constraint violation,
raise ValidationError naming the offending field.

Schema (defaults in parentheses; a key marked with engines is read by those
engines only, the others by every engine)::

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
      samples: K                  (2049)   # adiabatic: uniform frame times every path type is resampled to
      points: [[a, b], ...]       # polyline corners
      times/a/b: [...]            # explicit samples
    control:                      # zeno and dissipative
      mode: none | alpha_frame | wagon_wheel | custom   (none)
      alpha: x                    # alpha_frame only: strength (0)
      hamiltonian: [[...], ...]   # wagon_wheel and custom only: constant Hermitian matrix
    N: 4096                       # zeno: number of measurements
    steps: int                    # adiabatic and dissipative: integrator steps (engine-dependent default)
    gamma: rate                   # dissipative
    alphas: [0.0, 1.0, ...]       # dissipative: one dephasing weight per level (0..nlevels-1)
    initial_state:
      name: E_plus | E_minus | E_zero   # three_level eigenvectors at the path start
      amplitudes: [...]                 # or explicit amplitudes
    level: 0                      # zeno and adiabatic: eigenspace index followed by the run
    nonselective: false           # zeno: evolve a density matrix, outcomes unread
    frame_method: analytic | tracked    (analytic for three_level, tracked for custom)
    runtime_budget_s: float       # optional declared runtime bound, > 0
    tolerances:                   # each > 0
      cluster: 1e-8
      holonomy: 1e-2              # zeno and adiabatic: angle read from a gate this close to a rotation

Every number must be finite, and counts (N, steps, level, windings,
samples) integral and at most ``MAX_COUNT`` in magnitude, as is every
step count the runner derives; `name` is a string or a number.  Matrix
entries are real numbers or two-element ``[re, im]`` lists; every matrix
must be Hermitian to ``linalg.HERMITICITY_TOL``.  The alpha_frame and
wagon_wheel controls need the three_level model, and wagon_wheel builds its
own frames, so it takes no frame_method.
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
from .spectral import (OperatorPath, ParameterPath, _circle_controls, _knot_path, _polyline_knots, _resampled,
                       circle_path)
from .zeno import ControlConfig

_SHARED_KEYS = {"engine", "name", "model", "path", "frame_method", "initial_state", "tolerances", "runtime_budget_s"}
ENGINE_KEYS = {  # the top-level keys each engine reads; any other key is rejected
    "adiabatic": frozenset(_SHARED_KEYS | {"level", "steps"}),
    "zeno": frozenset(_SHARED_KEYS | {"N", "level", "nonselective", "control"}),
    "dissipative": frozenset(_SHARED_KEYS | {"gamma", "alphas", "steps", "control"}),
}
UNREAD_SUBKEYS = {  # the section keys an engine does not read, in a section it reads; rejected too
    "adiabatic": {},
    "zeno": {"path": frozenset({"samples"})},  # measurements sample the path at N + 1 times
    "dissipative": {"path": frozenset({"samples"}), "tolerances": frozenset({"holonomy"})},  # 4097 samples; no angle
}
ENGINES = tuple(ENGINE_KEYS)
CONTROL_KEYS = {"none": {"mode"}, "alpha_frame": {"mode", "alpha"},  # the control sub-keys each mode reads
                "wagon_wheel": {"mode", "hamiltonian"}, "custom": {"mode", "hamiltonian"}}
MAX_COUNT = 2**22  # bound on every count, so no grid is sized beyond what a run can allocate
NAMED_STATES = ("E_plus", "E_minus", "E_zero")

_SECTION_KEYS = {
    "model": {"type", "hamiltonians"},
    "path": {"type", "center", "radius", "windings", "duration", "samples", "points", "times", "a", "b"},
    "control": set().union(*CONTROL_KEYS.values()),
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
    if integral and abs(x) > MAX_COUNT:
        raise ValidationError(f"{where} must be at most {MAX_COUNT} in magnitude, got {value!r}")
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


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def _digest(encoded: dict) -> str:
    """sha256 of the canonical document whose top-level keys have the canonical JSON `encoded[key]`.

    The pieces go to the hash one by one: a custom model's encoding runs to hundreds of kB, and joining them
    would copy it once more per derived scenario.
    """
    digest = hashlib.sha256(b"{")
    for n, key in enumerate(sorted(encoded)):
        digest.update(f"{',' if n else ''}{_canonical(key)}:".encode())
        digest.update(encoded[key].encode())
    digest.update(b"}")
    return digest.hexdigest()


def scenario_digest(data: dict) -> str:
    """Content hash of a scenario document, stable under key reordering.

    The sha256 of ``json.dumps(data, sort_keys=True, separators=(",", ":"),
    default=str)``, assembled from one encoding per top-level (string) key,
    which gives the same bytes; a derived scenario re-encodes only the keys
    it edits.
    """
    return _digest({key: _canonical(value) for key, value in data.items()})


@dataclass
class Scenario:
    """Validated scenario ready for the runner."""

    engine: str
    name: str
    digest: str
    model_type: str
    model_hamiltonians: OperatorPath | None  # a custom model's sampled H(t); None for the three-level model
    path_spec: dict
    control: ControlConfig
    N: int
    steps: int | None
    gamma: float | None
    alphas: tuple | None
    initial_name: str | None
    initial_amplitudes: np.ndarray | None
    level: int
    nonselective: bool
    frame_method: str
    runtime_budget_s: float | None
    cluster_tol: float
    holonomy_tol: float
    raw: dict
    _encoded: dict = field(default_factory=dict, repr=False, compare=False)  # canonical JSON of each key of `raw`
    _knots: ParameterPath | None = field(default=None, repr=False, compare=False)  # of a polyline or samples path

    def build_path(self, samples: int) -> ParameterPath:
        """Materialize the declared parameter path on `samples` uniform times.

        A polyline or `samples` path is piecewise linear between its knots,
        checked once at validation: (a, b) are interpolated onto the uniform
        grid, and a `samples` path's times are rescaled to `duration` when one is given.
        """
        spec = self.path_spec
        if spec["type"] == "circle":
            return circle_path(spec["center"], spec["radius"], spec["windings"], spec["duration"], samples)
        return _resampled(self._knots, samples, spec.get("duration", self._knots.duration))


def _require(condition: bool, message: str):
    if not condition:
        raise ValidationError(message)


def _require_hermitian(m: np.ndarray, where: str):
    _require(bool(np.isfinite(m).all()), f"{where} must be finite")
    defect = hermiticity_defect(m)
    _require(defect <= HERMITICITY_TOL, f"{where} must be Hermitian: defect {defect:.3e} > {HERMITICITY_TOL:.1e}")


# Each top-level key has one parser: parse(data, fields) -> the Scenario fields
# it sets, where `fields` holds those of the keys parsed before it.  Rules
# that involve several keys live in the parser of the later key or in
# `_assemble`, so a derived scenario re-runs exactly the parsers of the keys
# it edits, then every cross-field rule.

def _parse_engine(data, fields):
    engine = data.get("engine")
    if engine not in ENGINES:
        raise ValidationError(f"engine must be one of {ENGINES}, got {engine!r}")
    unread = sorted(data.keys() - ENGINE_KEYS[engine])
    if unread:
        raise ValidationError(f"the {engine} engine does not read {unread[0]!r}")
    return {"engine": engine}


def _parse_model(data, fields):
    model = data.get("model", {})
    model_type = model.get("type", "three_level")
    _require(model_type in ("three_level", "custom"), f"model.type must be three_level or custom, got {model_type!r}")
    model_hams = None
    if model_type == "custom":
        samples = model.get("hamiltonians")
        _require(isinstance(samples, (list, tuple)) and samples, "model.hamiltonians must be a non-empty list")
        dim, pairs = None, []
        for i, item in enumerate(samples):
            if not isinstance(item, dict) or set(item) != {"t", "matrix"}:
                raise ParseError(f"model.hamiltonians[{i}] must be a {{t, matrix}} mapping")
            m = parse_matrix(item["matrix"], f"model.hamiltonians[{i}].matrix")
            if dim is None:
                dim = m.shape[0]
            _require(m.shape[0] == dim, "model.hamiltonians matrices must share one dimension")
            pairs.append((_number(item["t"], f"model.hamiltonians[{i}].t"), m))
        pairs.sort(key=lambda p: p[0])
        _require(pairs[0][0] == 0.0, "model.hamiltonians must start at t = 0")
        _require(len({t for t, _ in pairs}) == len(pairs), "model.hamiltonians times must be distinct")
        stack = np.stack([m for _, m in pairs])
        _require_hermitian(stack, "model.hamiltonians")
        model_hams = OperatorPath(times=[t for t, _ in pairs], operators=stack)
    return {"model_type": model_type, "model_hamiltonians": model_hams}


def _reject_unread_subkeys(data, fields, section: str):
    """ValidationError naming the first key of `section` that the engine does not read (`UNREAD_SUBKEYS`)."""
    unread = sorted(data.get(section, {}).keys() & UNREAD_SUBKEYS[fields["engine"]].get(section, set()))
    if unread:
        raise ValidationError(f"the {fields['engine']} engine does not read {section}.{unread[0]}")


def _parse_path(data, fields):
    _reject_unread_subkeys(data, fields, "path")
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
    _require(pspec.get("duration", 1.0) >= np.finfo(float).tiny, "path.duration must be at least 2.2e-308")
    _require(pspec.get("samples", 2) >= 2, "path.samples must be at least 2")
    knots = None
    if fields["model_type"] == "three_level":
        try:  # in closed form, once per parsed path: no critical point between samples either
            if ptype == "circle":
                _circle_controls(pspec["center"], pspec["radius"], pspec["windings"])
            elif ptype == "polyline":
                knots = _polyline_knots(pspec["points"])
            else:
                knots = _knot_path(pspec["times"], pspec["a"], pspec["b"])
        except (ValueError, CriticalPoint) as exc:
            raise ValidationError(f"path: {exc}") from exc
    return {"path_spec": pspec, "_knots": knots}


def _parse_n(data, fields):
    n_meas = _number(data.get("N", 4096), "N", integral=True)
    _require(n_meas >= 1, "N must be a positive integer")
    return {"N": n_meas}


def _parse_steps(data, fields):
    steps = data.get("steps")
    if steps is not None:
        steps = _number(steps, "steps", integral=True)
        _require(steps >= 1, "steps must be a positive integer")
    return {"steps": steps}


def _parse_level(data, fields):
    level = _number(data.get("level", 0), "level", integral=True)
    _require(level >= 0, "level must be nonnegative")
    return {"level": level}


def _parse_nonselective(data, fields):
    nonselective = data.get("nonselective", False)
    _require(isinstance(nonselective, bool), "nonselective must be true or false")
    return {"nonselective": nonselective}


def _parse_frame_method(data, fields):
    frame_method = data.get("frame_method", "analytic" if fields["model_type"] == "three_level" else "tracked")
    _require(frame_method in ("analytic", "tracked"), "frame_method must be analytic or tracked")
    if fields["model_type"] == "custom":
        _require(frame_method == "tracked", "custom models support only tracked frames")
    return {"frame_method": frame_method}


def _parse_gamma(data, fields):
    gamma = data.get("gamma")
    if fields["engine"] == "dissipative":
        _require(gamma is not None, "gamma is required for the dissipative engine")
    if gamma is not None:
        gamma = _number(gamma, "gamma")
        _require(gamma >= 0, "gamma must be nonnegative")
    return {"gamma": gamma}


def _parse_alphas(data, fields):
    alphas = data.get("alphas")
    if alphas is not None:
        _require(isinstance(alphas, (list, tuple)), "alphas must be a list of weights")
        alphas = tuple(_number(a, "alphas") for a in alphas)
    return {"alphas": alphas}


def _parse_control(data, fields):
    cspec = data.get("control", {})
    mode = cspec.get("mode", "none")
    _require(mode in tuple(CONTROL_KEYS), f"control: unknown control mode {mode!r}")
    unread = sorted(cspec.keys() - CONTROL_KEYS[mode])
    if unread:
        raise ValidationError(f"control.mode {mode} does not read control.{unread[0]}")
    if mode in ("alpha_frame", "wagon_wheel"):
        _require(fields["model_type"] == "three_level", f"control.mode {mode} requires the three_level model")
    if mode == "wagon_wheel":
        _require("frame_method" not in data, "control.mode wagon_wheel builds its own frames and takes no frame_method")
    cham = None
    if "hamiltonian" in cspec:
        cham = parse_matrix(cspec["hamiltonian"], "control.hamiltonian")
        _require_hermitian(cham, "control.hamiltonian")
    try:
        control = ControlConfig(mode=mode, alpha=_number(cspec.get("alpha", 0.0), "control.alpha"), hamiltonian=cham)
    except ValueError as exc:
        raise ValidationError(f"control: {exc}") from exc
    return {"control": control}


def _parse_initial_state(data, fields):
    istate = data.get("initial_state", {"name": "E_minus"})
    iname = istate.get("name")
    iamps = istate.get("amplitudes")
    _require((iname is None) != (iamps is None), "initial_state needs exactly one of name, amplitudes")
    if iname is not None:
        _require(iname in NAMED_STATES, f"initial_state.name must be one of {NAMED_STATES}, got {iname!r}")
        _require(fields["model_type"] == "three_level", f"named state {iname!r} does not exist for a custom model")
    amps = None
    if iamps is not None:
        _require(isinstance(iamps, (list, tuple)), "initial_state.amplitudes must be a list")
        amps = np.array([_parse_entry(v, "initial_state.amplitudes") for v in iamps], dtype=complex)
        _require(bool(np.isfinite(amps).all()), "initial_state.amplitudes must be finite")
        scale = np.abs(amps).max(initial=0.0)  # scaling first keeps the norm from overflowing or underflowing
        _require(scale > 0, "initial_state.amplitudes must be nonzero")
        amps = amps / scale
        amps = amps / np.linalg.norm(amps)
    return {"initial_name": iname, "initial_amplitudes": amps}


def _parse_tolerances(data, fields):
    _reject_unread_subkeys(data, fields, "tolerances")
    tols = data.get("tolerances", {})
    cluster_tol = _number(tols.get("cluster", 1e-8), "tolerances.cluster")
    holonomy_tol = _number(tols.get("holonomy", 1e-2), "tolerances.holonomy")
    _require(cluster_tol > 0, "tolerances.cluster must be positive")
    _require(holonomy_tol > 0, "tolerances.holonomy must be positive")
    return {"cluster_tol": cluster_tol, "holonomy_tol": holonomy_tol}


def _parse_name(data, fields):
    # The displayed name falls back to the digest prefix, so `_assemble` sets it.
    _require(isinstance(data.get("name", ""), (str, int, float)), "name must be a string or a number")
    return {}


def _parse_runtime_budget(data, fields):
    budget = data.get("runtime_budget_s")
    budget = None if budget is None else _number(budget, "runtime_budget_s")
    _require(budget is None or budget > 0, "runtime_budget_s must be positive")
    return {"runtime_budget_s": budget}


_PARSERS = {  # every top-level key, in the order of validation
    "engine": _parse_engine,
    "model": _parse_model,
    "path": _parse_path,
    "N": _parse_n,
    "steps": _parse_steps,
    "level": _parse_level,
    "nonselective": _parse_nonselective,
    "frame_method": _parse_frame_method,
    "gamma": _parse_gamma,
    "alphas": _parse_alphas,
    "control": _parse_control,
    "initial_state": _parse_initial_state,
    "tolerances": _parse_tolerances,
    "name": _parse_name,
    "runtime_budget_s": _parse_runtime_budget,
}


def _assemble(data: dict, fields: dict, encoded: dict) -> Scenario:
    """The Scenario of document `data`, whose keys parse to `fields` and encode to `encoded`.

    Names it, digests it and checks the rules that span several keys.
    """
    digest = _digest(encoded)
    scenario = Scenario(**{**fields, "name": str(data.get("name", "")) or digest[:12], "digest": digest,
                           "raw": data, "_encoded": encoded})
    # A custom model's sampled times fix its duration, so a path would be silently ignored.
    if scenario.model_type == "custom":
        _require("path" not in data, "a custom model takes no path section")
        _require(scenario.model_hamiltonians.times[-1] > 0, "model.hamiltonians must span a positive duration")
    return scenario


def scenario_from_dict(data: dict, source: str = "<dict>") -> Scenario:
    """Validate a scenario document and fill defaults."""
    if not isinstance(data, dict):
        raise ParseError(f"{source}: scenario document must be a mapping")
    _reject_unknown(data, _PARSERS.keys(), source)
    for section, allowed in _SECTION_KEYS.items():
        if section in data:
            if not isinstance(data[section], dict):
                raise ParseError(f"section {section!r} in {source} must be a mapping")
            _reject_unknown(data[section], allowed, f"section {section!r} of {source}")
    fields = {}
    for parse in _PARSERS.values():
        fields.update(parse(data, fields))
    return _assemble(data, fields, {key: _canonical(value) for key, value in data.items()})


def _derived(base: Scenario, edits: dict) -> Scenario:
    """`base` with the top-level keys of `edits` replaced by the given values.

    Only the edited keys are parsed and JSON-encoded again; the others keep
    `base`'s parse and encodings (shared, not copied).  `edits` must hold
    known keys, and sections as mappings of known keys.
    """
    data = {**base.raw, **edits}
    fields = dict(vars(base))
    for key, parse in _PARSERS.items():
        if key in edits:
            fields.update(parse(data, fields))
    return _assemble(data, fields, {**base._encoded, **{key: _canonical(value) for key, value in edits.items()}})


class _UniqueKeyLoader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """Safe YAML loader, libyaml's when PyYAML has it, that refuses a scalar key given twice in one mapping.

    Merge keys (<<) keep their meaning; the override names `SafeConstructor`, so it fits either base.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError("while constructing a mapping", node.start_mark,
                                                            f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return yaml.constructor.SafeConstructor.construct_mapping(self, node, deep=deep)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario YAML file (ParseError for malformed YAML or a repeated key)."""
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(data, source=str(path))
