"""Mutation fuzzing of the scenario boundary.

Each shipped scenario, shrunk to N = 16 and steps = 64 so that a run stays
short, is mutated.  Only ZenogateError subclasses may escape
`scenario_from_dict` and `run`, and `zenogate run` must exit as documented:
0 on success, 1 on a parse or validation error, 2 on an engine error.
Mutations that are malformed by construction must exit 1.  No mutation
raises a count, because large counts are legitimate work.
"""

import contextlib
import copy
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from zenogate import cli
from zenogate.errors import ParseError, ValidationError, ZenogateError
from zenogate.runner import run
from zenogate.scenario import scenario_from_dict

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BASES = {
    path.stem: {**yaml.safe_load(path.read_text()), "N": 16, "steps": 64}
    for path in sorted(SCENARIO_DIR.glob("*.yaml"))
}
SECTIONS = ("model", "path", "control", "initial_state", "tolerances")
NON_FINITE = (math.nan, math.inf, -math.inf)
JUNK = (*NON_FINITE, "abc", {"x": 1}, [1.0, 2.0, 3.0], [], True, 0, -1, 0.5)


def locations(node, prefix=()):
    """(path, value) of every mapping entry and list item below `node`, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,), value
        yield from locations(value, prefix + (key,))


def replaced(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def documented_exit(doc) -> int:
    """The exit code `zenogate run` documents for `doc`, from calling the library directly."""
    try:
        run(scenario_from_dict(copy.deepcopy(doc)))
    except (ParseError, ValidationError):
        return 1
    except ZenogateError:
        return 2
    return 0


def cli_exit(doc):
    """(exit code, stderr) of `zenogate run` on `doc` written as a YAML file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path)])
    return code, err.getvalue()


def _numeric_leaf(data, doc, values):
    leaves = [path for path, value in locations(doc) if is_number(value)]
    return replaced(doc, data.draw(st.sampled_from(leaves)), data.draw(st.sampled_from(values)))


def _list_or_section(data, doc, value):
    # alphas is optional: null there asks for the default weights
    spots = [path for path, v in locations(doc) if isinstance(v, list) and path != ("alphas",)]
    spots += [(key,) for key in SECTIONS if key in doc]
    return replaced(doc, data.draw(st.sampled_from(spots)), value)


def _count(data, doc):
    bad = {"N": (0, -1, 2.5, True), "steps": (0, -4, 0.5, False), "level": (-1, 1.5, True),
           "samples": (0, -2, 1.5, True), "windings": (0.5, True, False)}
    field = data.draw(st.sampled_from(sorted(bad)))
    path = ("path", field) if field in ("samples", "windings") else (field,)
    return replaced(doc, path, data.draw(st.sampled_from(bad[field])))


def _with_control_matrix(doc, rows):
    """`doc` with `rows` as its control matrix, keeping its control mode (custom if it has none)."""
    return {**doc, "control": {**doc.get("control", {"mode": "custom"}), "hamiltonian": rows}}


def _matrix(data, doc):
    lengths = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(lambda ls: set(ls) != {len(ls)}))
    return _with_control_matrix(doc, [[0.0] * n for n in lengths])


def _dimension(data, doc):
    dim = data.draw(st.sampled_from([1, 2, 4]))
    if data.draw(st.booleans()):
        return _with_control_matrix(doc, np.eye(dim).tolist())
    return {**doc, "initial_state": {"amplitudes": [1.0] * dim}}


def _unknown_key(data, doc):
    where = data.draw(st.sampled_from([None] + [key for key in SECTIONS if key in doc]))
    if where is None:
        return {**doc, "bogus": 1}
    return replaced(doc, (where,), {**doc[where], "bogus": 1})


def _repeated_alphas(data, doc):
    weight = data.draw(st.floats(-10.0, 10.0))
    return {**doc, "engine": "dissipative", "gamma": doc.get("gamma", 1.0), "alphas": [weight, weight]}


def _tolerance(data, doc):
    field = data.draw(st.sampled_from(["cluster", "holonomy"]))
    return {**doc, "tolerances": {field: data.draw(st.sampled_from([0.0, -0.0, -1e-3, -1.0]))}}


MALFORMED = {
    "non_finite": lambda data, doc: _numeric_leaf(data, doc, NON_FINITE),
    "wrong_type": lambda data, doc: _numeric_leaf(data, doc, ("abc", [1.0, 2.0, 3.0], {"x": 1})),
    "null_for_list": lambda data, doc: _list_or_section(data, doc, None),
    "mapping_for_list": lambda data, doc: _list_or_section(data, doc, {"x": 1}),
    "bad_count": _count,
    "ragged_matrix": _matrix,
    "wrong_dimension": _dimension,
    "unknown_key": _unknown_key,
    "repeated_alphas": _repeated_alphas,
    "non_positive_tolerance": _tolerance,
}


@pytest.mark.parametrize("name", sorted(BASES))
def test_shipped_scenarios_exit_as_documented(name):
    code, _ = cli_exit(BASES[name])
    assert code == documented_exit(BASES[name]) in (0, 2)  # dissipative_gate is too stiff for 64 steps


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_scenarios_exit_1(kind, data):
    doc = MALFORMED[kind](data, BASES[data.draw(st.sampled_from(sorted(BASES)))])
    assert documented_exit(doc) == 1
    code, err = cli_exit(doc)
    assert code == 1
    assert err.startswith("error:")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_mutation_exits_as_documented(data):
    doc = BASES[data.draw(st.sampled_from(sorted(BASES)))]
    path = data.draw(st.sampled_from([path for path, _ in locations(doc)]))
    doc = replaced(doc, path, data.draw(st.sampled_from(JUNK)))
    code, _ = cli_exit(doc)
    assert code == documented_exit(doc) in (0, 1, 2)
