"""Span and call-count recorder wrapped around zenogate's public functions.

`Recorder.install` rebinds, in every zenogate module namespace, each name
that refers to a public function some zenogate module defines, so calls made
through `from .x import f` bindings are seen as well as calls through module
attributes.  `zenogate.__main__` is skipped because importing it runs the
CLI.  `DissipatorSpec.lindblad_op` and the callable returned by
`control_hamiltonian` are wrapped too.

Functions evaluated once per time sample only count their calls; their time
stays in the caller's self time.  Every other function records a span
(id, parent id, name, start, end, run label, work, bytes) kept in memory.
A span's self time is its duration minus that of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
import types
from collections import Counter, defaultdict

# Called once per time sample (or once per matrix inside such a call): counted, not spanned.
COUNT_ONLY = frozenset({
    "spectral.three_level_hamiltonian",
    "spectral.three_level_projectors",
    "spectral.three_level_eigenbasis",
    "spectral.instantaneous_spectrum",
    "linalg.spectral_norm",
    "linalg.as_complex_matrix",
    "linalg.assert_hermitian",
    "linalg.hermiticity_defect",
    "zeno.nonselective_step",
    "dissipative.DissipatorSpec.lindblad_op",
    "zeno.control_h0",
    "scenario.parse_matrix",
})

# The argument that sizes a call's work, and the name of that work: a matrix
# stack (work = its length, bytes = stack + result) or an integer count.
WORK = {
    "linalg.expm_hermitian_stack": ("hs", "matrices"),
    "adiabatic.ordered_product": ("stack", "matrices"),
    "adiabatic.propagate_exact": ("steps", "steps"),
    "dissipative.integrate_master": ("steps", "steps"),
    "zeno.projected_evolution": ("N", "measurements"),
    "zeno.nonselective_zeno_evolution": ("N", "measurements"),
}

SPAN_FIELDS = ("id", "parent", "name", "start", "end", "run", "work", "bytes")


def _zenogate_modules():
    import zenogate

    names = sorted(m.name for m in pkgutil.iter_modules(zenogate.__path__) if m.name != "__main__")
    return [zenogate] + [importlib.import_module(f"zenogate.{name}") for name in names]


def _qualified(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Recorder:
    """In-memory trace of one process; install around the code to observe."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.errors = Counter()
        self.names = set()
        self.run = ""
        self._current = None
        self._next_id = 0
        self._restore = []

    # -- installation --------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("recorder is already installed")
        modules = _zenogate_modules()
        targets = {}
        for mod in modules:
            for obj in vars(mod).values():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("zenogate.")
                    and not obj.__name__.startswith("_")
                ):
                    targets[id(obj)] = obj
        wrappers = {key: self._wrap(fn, _qualified(fn)) for key, fn in targets.items()}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        from zenogate.dissipative import DissipatorSpec

        original = DissipatorSpec.lindblad_op
        self._restore.append((DissipatorSpec, "lindblad_op", original))
        DissipatorSpec.lindblad_op = self._counter(original, "dissipative.DissipatorSpec.lindblad_op")

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore = []

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            return self._counter(fn, name)
        wrapped = self._spanner(fn, name)
        if name == "zeno.control_hamiltonian":
            self.names.add("zeno.control_h0")

            @functools.wraps(fn)
            def control(*args, **kwargs):
                h0 = wrapped(*args, **kwargs)
                return None if h0 is None else self._counter(h0, "zeno.control_h0")

            return control
        return wrapped

    def _counter(self, fn, name):
        self.names.add(name)
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, fn, name):
        self.names.add(name)
        param = WORK.get(name, (None,))[0]
        signature = inspect.signature(fn) if param else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self.calls[name] += 1
            parent = self._current
            span_id = self._next_id
            self._next_id += 1
            self._current = span_id
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = clock()
                self._current = parent
            work = nbytes = 0
            if param:
                value = signature.bind(*args, **kwargs).arguments[param]
                if hasattr(value, "shape"):
                    work, nbytes = int(value.shape[0]), int(value.nbytes + result.nbytes)
                else:
                    work = int(value)
            self.spans.append((span_id, parent, name, start, end, self.run, work, nbytes))
            return result

        return spanned

    # -- reporting -----------------------------------------------------------

    def function_stats(self) -> dict:
        """Per function: calls, errors, total_s, self_s, work, bytes."""
        spans = self.spans
        child_time = defaultdict(float)
        for _, parent, _, start, end, *_ in spans:
            if parent is not None:
                child_time[parent] += end - start
        stats = {
            name: {"calls": self.calls[name], "errors": self.errors[name],
                   "total_s": 0.0, "self_s": 0.0, "work": 0, "bytes": 0}
            for name in self.names
        }
        for span_id, _, name, start, end, _, work, nbytes in spans:
            s = stats[name]
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[span_id]
            s["work"] += work
            s["bytes"] += nbytes
        return stats

    def work_under(self, name: str, ancestor: str) -> int:
        """Work of `name` spans that have an `ancestor` span above them."""
        by_id = {span[0]: span for span in self.spans}
        total = 0
        for span in self.spans:
            if span[2] != name:
                continue
            parent = span[1]
            while parent is not None:
                above = by_id[parent]
                if above[2] == ancestor:
                    total += span[6]
                    break
                parent = above[1]
        return total

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
