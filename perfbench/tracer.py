"""Spans around the package's public functions, installed from outside.

``Tracer.install`` wraps every public function and public method (and
``__init__``) defined in the layer modules, then rebinds each name under
which the package, or a module of this benchmark, imported the original.
The source is not edited.  Each call becomes a span (name, start, end,
parent, op id) kept in memory; self time is a span's duration minus the
time its child spans cover.  One thread runs, so nothing waits and no
wait time is recorded.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "groupoid", "twist", "steinberg", "normalizers", "isotropy",
          "linalg", "modrep", "induction", "ideals")

# Scalar arithmetic costs about as much per call as a wrapper does, so a
# span per field operation would measure the tracer, not the layer.
UNTRACED_CLASSES = {("linalg", "Field")}

# Private helpers traced because a per-layer counter needs them: the
# GF(2) bitset closure is called directly by the submodule enumeration.
PRIVATE_TRACED = {("modrep", "_gf2_closure")}

# Layer metrics that are the inclusive time of the outermost calls of one
# function (a recursive or cached call inside a call of the same function
# is not counted twice).
INCLUSIVE = {
    "steinberg.presentation_s": ["steinberg.presentation_of_B"],
    "isotropy.inclusion_s": ["isotropy.Inclusion.__init__"],
    "isotropy.isotropy_data_s": ["isotropy.Inclusion.isotropy_data"],
    "isotropy.projection_s": ["isotropy.Inclusion.projection_matrix"],
    "induction.bimodule_s": ["induction.imprimitivity_bimodule"],
    "induction.induce_s": ["induction.induce"],
    "induction.certificate_s": ["induction.verify_res_ind_roundtrip",
                                "induction.verify_ind_res_embedding",
                                "induction.verify_germ_induction_equivalence"],
    "modrep.enumeration_s": ["modrep.all_invariant_subspaces"],
    "ideals.induced_ideal_s": ["ideals.induced_ideal"],
    "normalizers.semigroup_s": ["normalizers.verify_inverse_semigroup"],
    "cli.parse_s": ["cli.parse"],
}


def _layer_modules():
    return {name: importlib.import_module(f"groupoidalg.{name}") for name in LAYERS}


def _traced(layer, name, owner=None):
    if owner is not None and (layer, owner) in UNTRACED_CLASSES:
        return False
    return not name.startswith("_") or name == "__init__" or (layer, name) in PRIVATE_TRACED


class Tracer:
    """Collects spans and per-layer counters for the calls it wraps."""

    def __init__(self):
        self.names = []  # span name by index
        self.spans = []  # (name index, start, end, parent span, op id, raised)
        self.keep_spans = True  # False: update the counters but keep no spans
        self.op = None
        self._stack = []  # [span id, start, time covered by child spans]
        self._active = defaultdict(int)  # open spans per name
        self._patches = []
        self.calls = defaultdict(int)  # per layer
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.inclusive_s = defaultdict(float)  # per span name, outermost calls only
        self.counts = defaultdict(int)  # per span name
        self.top_s = 0.0  # time covered by spans that have no parent
        self.rref_cells = 0
        self.closures = 0
        self.subspaces_kept = 0
        self.closure_elements = 0
        self._last_raised = None

    # -- installation ---------------------------------------------------------

    def install(self, extra_namespaces=()):
        """Wrap the layer modules and rebind imported names everywhere."""
        replaced = {}
        for layer, mod in _layer_modules().items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if _traced(layer, attr):
                        replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._patch(mod, attr, replaced[id(obj)])
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "groupoidalg" or n.startswith("groupoidalg.")]
        for ns in list(namespaces) + list(extra_namespaces):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replaced and getattr(ns, attr) is not replaced[id(obj)]:
                    self._patch(ns, attr, replaced[id(obj)])

    def _wrap_class(self, layer, cls):
        skip_init = dataclasses.is_dataclass(cls)
        for attr, raw in list(vars(cls).items()):
            if not _traced(layer, attr, cls.__name__) or (attr == "__init__" and skip_init):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, name):
        index = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            keep = tracer.keep_spans
            span_id = len(tracer.spans) if keep else -1
            if keep:
                tracer.spans.append(None)
            tracer._active[index] += 1
            frame = [span_id, time.perf_counter(), 0.0]
            stack.append(frame)
            raised = False
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised = True
                # count an error once, in the span where it was raised
                if exc is not tracer._last_raised:
                    tracer._last_raised = exc
                    tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                start = frame[1]
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                else:
                    tracer.top_s += duration
                tracer._active[index] -= 1
                if tracer._active[index] == 0:
                    tracer.inclusive_s[name] += duration
                tracer.counts[name] += 1
                tracer.calls[layer] += 1
                tracer.self_s[layer] += duration - frame[2]
                if keep:
                    tracer.spans[span_id] = (index, start, end, parent, tracer.op, raised)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- results --------------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-layer metrics per pass (every total divided by ``passes``)."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer] / passes, "count")
            out[f"{layer}.self_s"] = (self.self_s[layer] / passes, "s")
            out[f"{layer}.errors"] = (self.errors[layer] / passes, "count")
        out["linalg.rref_calls"] = (self.counts["linalg.rref"] / passes, "count")
        out["linalg.rref_cells"] = (self.rref_cells / passes, "count")
        out["steinberg.convolve_calls"] = (self.counts["steinberg.convolve"] / passes, "count")
        for metric, names in INCLUSIVE.items():
            out[metric] = (sum(self.inclusive_s[n] for n in names) / passes, "s")
        out["modrep.closures"] = (self.closures / passes, "count")
        out["modrep.closure_yield"] = (
            self.subspaces_kept / self.closures if self.closures else 0.0, "ratio")
        out["ideals.induced_ideal_calls"] = (self.counts["ideals.induced_ideal"] / passes, "count")
        out["normalizers.closure_elements"] = (self.closure_elements / passes, "count")
        return out

    def total_self_s(self):
        return sum(self.self_s.values())

    def write_spans(self, path):
        """One JSON object per span; times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (index, start, end, parent, op, raised) in enumerate(self.spans):
                fh.write(json.dumps({
                    "span": span_id, "name": self.names[index],
                    "start": round(start - origin, 7), "end": round(end - origin, 7),
                    "parent": parent, "op": op, "error": raised,
                }) + "\n")


# -- counters read from arguments and results -----------------------------------


def _count_rref(tracer, args, kwargs):
    # every caller passes a list or tuple; an iterator is left unread
    rows = args[0] if args else kwargs["rows"]
    if isinstance(rows, (list, tuple)) and rows:
        tracer.rref_cells += len(rows) * len(rows[0])


def _count_closure(tracer, args, kwargs):
    # closure_under hands GF(2) work with dim > 0 to _gf2_closure, which
    # counts it; every other call is one closure computed here.
    field = args[3] if len(args) > 3 else kwargs["field"]
    dim = args[2] if len(args) > 2 else kwargs["dim"]
    if not (field.p == 2 and dim):
        tracer.closures += 1


def _count_gf2_closure(tracer, args, kwargs):
    tracer.closures += 1


def _count_kept(tracer, args, kwargs, result):
    tracer.subspaces_kept += len(result)


def _count_semigroup(tracer, args, kwargs, result):
    tracer.closure_elements += len(result.elements)


_BEFORE = {
    "linalg.rref": _count_rref,
    "modrep.closure_under": _count_closure,
    "modrep._gf2_closure": _count_gf2_closure,
}
_AFTER = {
    "modrep.all_invariant_subspaces": _count_kept,
    "normalizers.verify_inverse_semigroup": _count_semigroup,
}
