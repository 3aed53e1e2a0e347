"""Spans and counters recorded by wrapping each circmix module's public
functions from the outside; nothing inside the program changes.

A wrapper replaces the function under every name a circmix module looks it
up by (``fold`` imports ``distance`` from ``graphs``, so ``fold.distance`` is
patched too), and ``restore`` puts every original back.  Spans live in
memory as ``[task, span, parent, name, start, end]`` rows until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("kernels", "reconfig", "fold", "graphs", "planar", "files", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None
        self.counters = Counter()
        self.keys = set()
        self._patched = []  # (namespace dict, attribute, original)

    # -- counters computed from arguments and results ----------------------

    def _after(self, name, fn, args, kwargs, result):
        if name == "kernels.enumerate_states":
            rows = int(result.shape[0])
            self.counters["states_enumerated"] += rows
            # computed, not measured: the state table plus its int64 codes
            table = int(result.nbytes) + 8 * rows
            self.counters["state_table_bytes"] = max(self.counters["state_table_bytes"], table)
        elif name == "kernels.first_unbalanced_state":
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            total, chunk = bound.arguments["states"].shape[0], bound.arguments["chunk"]
            scanned = total if result is None else min(total, (result[0] // chunk + 1) * chunk)
            self.counters["states_scanned"] += scanned
        elif name == "graphs.canonical_key":
            self.keys.add(result)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            row = [tracer.task, span, parent, name, perf_counter(), None]
            tracer.spans.append(row)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                row[5] = perf_counter()
            tracer._after(name, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function defined in each layer module."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"circmix.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    originals[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "circmix" and not modname.startswith("circmix."):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patched.append((namespace, attr, obj))
                    namespace[attr] = originals[obj]

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-function inclusive seconds (outermost call of each name only),
        self seconds and calls, and per-layer self seconds."""
        children = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        inclusive, own, calls = Counter(), Counter(), Counter()
        layer_self = Counter()
        for task, span, parent, name, start, end in self.spans:
            calls[name] += 1
            self_s = (end - start) - children[span]
            own[name] += self_s
            layer_self[name.split(".", 1)[0]] += self_s
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][3] != name:
                ancestor = self.spans[ancestor][2]
            if ancestor is None:
                inclusive[name] += end - start
        return {"inclusive_s": inclusive, "self_s": own, "calls": calls,
                "layer_self_s": layer_self}
