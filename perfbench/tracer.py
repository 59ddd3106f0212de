"""Layer tracing for the benchmark, installed from outside the package.

The tracer wraps every public function and public method of the seven
surfbraid modules (the layers) and records a span for each call that crosses
into a layer: a call whose caller is already inside the same layer is passed
straight through, so spans mark layer boundaries only. Spans are kept in
memory as parallel arrays (name, start, end, parent, request) and written out
when the run ends; self times and the layer counters are accumulated as the
spans close.

Word operators (``*``, ``~``, ``**``) and other dunder methods are not
wrapped: they are far too hot, and their cost lands in the caller's self
time.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

# Dependency order: importing a layer in this order runs only that layer's
# own module code, so each import span belongs to one layer.
LAYERS = ("words", "presentations", "nilpotent", "finite", "klein", "series",
          "cli")

# Layer counters named in BENCHMARK.json, beside .calls, .self_s, .errors.
COUNTERS = ("words.letters_out", "nilpotent.words_in", "finite.points_built",
            "finite.homs_found", "finite.image_points", "klein.fiber_letters",
            "series.generators_out", "cli.indeterminate")

# Spans beyond this many are aggregated but not kept, to bound memory.
MAX_SPANS = 2_000_000

_LRU = type(functools.lru_cache(maxsize=None)(lambda: None))


def fiber_letters(e) -> int:
    """Fiber letters over all levels of a normal form."""
    total = 0
    while e.level > 1:
        total += len(e.fiber)
        e = e.base
    return total


def _count(mods: Dict[str, types.ModuleType], layer: str, qual: str,
           args: tuple, out) -> List[Tuple[str, int]]:
    """Counter increments for one boundary call, from its arguments and
    result."""
    if layer == "words":
        if qual in ("free_reduce", "substitute"):
            return [("words.letters_out", len(out))]
    elif layer == "nilpotent":
        if qual == "nilpotent_quotient":
            return [("nilpotent.words_in", len(args[0].relators))]
        if qual == "NilpotentImage.add_words":
            return [("nilpotent.words_in", len(args[1]))]
    elif layer == "finite":
        fin = mods["finite"]
        models = (out if isinstance(out, list) else [out])
        built = sum(m.npoints for m in models
                    if isinstance(m, fin.FiniteModel))
        inc = [("finite.points_built", built)] if built else []
        if qual == "hom_search":
            inc.append(("finite.homs_found", len(out)))
        if isinstance(out, fin.SubgroupImage):
            inc.append(("finite.image_points", len(out)))
        return inc
    elif layer == "klein":
        if qual == "normal_form":
            return [("klein.fiber_letters", fiber_letters(out))]
    elif layer == "series":
        descs = out if isinstance(out, (tuple, list)) else (out,)
        gens = sum(len(d.normal_generators) for d in descs
                   if isinstance(d, mods["finite"].SubgroupDescription))
        if gens:
            return [("series.generators_out", gens)]
    elif layer == "cli":
        if qual == "SuiteResult.run" and \
                args[0].claims[-1]["verdict"] == mods["cli"].INDETERMINATE:
            return [("cli.indeterminate", 1)]
    return []


class Tracer:
    """Span recorder and per-layer accumulator. ``install`` patches the
    layers; ``uninstall`` restores every patched attribute."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.spans_seen = 0
        self.request = -1
        # open spans: [index, layer, child seconds, start]
        self._stack: List[list] = []
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._undo: List[Tuple[object, str, object]] = []
        self.modules: Dict[str, types.ModuleType] = {}

    # -- spans --------------------------------------------------------------
    def _open(self, name: str, layer: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = -1
        if len(self.span_start) < MAX_SPANS:
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_request.append(self.request)
            self.span_end.append(0.0)
            t = time.perf_counter()
            self.span_start.append(t)
        else:
            t = time.perf_counter()
        self.spans_seen += 1
        self._stack.append([idx, layer, 0.0, t])

    def _close(self, call: bool = True) -> None:
        t = time.perf_counter()
        idx, layer, child, t0 = self._stack.pop()
        dur = t - t0
        if idx >= 0:
            self.span_end[idx] = t
        self.self_s[layer] += dur - child
        self.calls[layer] += call
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, layer: str, qual: str, fn: Callable) -> Callable:
        name = f"{layer}.{qual}"
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self._close()
            for key, inc in _count(self.modules, layer, qual, args, out):
                self.counts[key] += inc
            return out

        return traced

    # -- patching -----------------------------------------------------------
    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        """Import every layer under an import span, then wrap its public
        functions and methods, and rebind the names other modules imported
        from it. Import spans add to self time but not to calls."""
        for layer in LAYERS:
            self._open(f"{layer}.import", layer)
            try:
                self.modules[layer] = importlib.import_module(
                    f"surfbraid.{layer}")
            finally:
                self._close(call=False)
        wrapped: Dict[int, Callable] = {}
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, (types.FunctionType, _LRU)) and \
                        obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(layer, attr, obj)
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        # names bound by "from .layer import name" in other modules
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(obj, staticmethod):
                self._set(cls, attr,
                          staticmethod(self._wrap(layer, qual, obj.__func__)))
            elif isinstance(obj, types.FunctionType):
                self._set(cls, attr, self._wrap(layer, qual, obj))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    # -- results ------------------------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        for key in COUNTERS:
            out[key] = self.counts[key]
        return out

    def dump(self, path: str) -> None:
        """Write the kept spans to an .npz file: the span name table and one
        array per column (name index, start, end, parent index, request)."""
        import numpy as np
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.asarray(self.span_name),
                 start=np.asarray(self.span_start),
                 end=np.asarray(self.span_end),
                 parent=np.asarray(self.span_parent),
                 request=np.asarray(self.span_request),
                 spans_seen=np.array(self.spans_seen))


def merge_metrics(parts: List[Dict[str, float]]) -> Dict[str, float]:
    """Sum layer metrics from several traced processes."""
    total: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total
