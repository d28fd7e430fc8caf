"""Span tracing around the public functions of each betamix layer.

The tracer replaces each public function and public method of the layer
modules with a wrapper that records a span (name, start, end, parent span and
the operation it belongs to), rebinding every module attribute that refers to
the original, so calls made through ``from .x import f`` names are traced
too.  Spans stay in memory until the run ends.  Nothing inside ``src/`` is
changed: only calls that cross a public function boundary are seen.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("pmf", "mixing", "coupling", "blocking", "entropy", "bounds", "regression",
          "simulate", "cli")


def _public_callables(layer: str):
    """(owner, attribute, function, span name) for each public function of a layer."""
    module = importlib.import_module(f"betamix.{layer}")
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj, f"{layer}.{attr}"
        elif inspect.isclass(obj):
            for meth, val in vars(obj).items():
                fn = val.__func__ if isinstance(val, staticmethod) else val
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield obj, meth, val, f"{layer}.{attr}.{meth}"


class Tracer:
    """Records spans while installed; ``on_return`` maps span names to result hooks."""

    def __init__(self, on_return=None):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.op_id = 0
        self._stack = []
        self._on_return = on_return or {}
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, self._on_return.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if hook is not None:
                hook(result)
            return result

        return traced

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            for owner, attr, val, name in list(_public_callables(layer)):
                if isinstance(val, staticmethod):
                    new = staticmethod(self._wrap(name, val.__func__))
                else:
                    new = self._wrap(name, val)
                    replaced[id(val)] = (val, new)
                self._undo.append((owner, attr, val))
                setattr(owner, attr, new)
        # names imported from another module are separate bindings of the same function
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "betamix" and not mod_name.startswith("betamix."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """span name -> [calls, self seconds]; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child[k]
        return out
