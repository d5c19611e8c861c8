"""In-memory span tracer that wraps plantedscan's public functions from outside.

install() replaces every public function defined in the package with a
timing wrapper, in every ``plantedscan.*`` module namespace that binds the
name (so ``harness.sample_null`` and ``scan.entropy_h_vec`` are traced as
well as the defining modules' own bindings).  Calls made through a module
global therefore record a span wherever the call site lives, and a later
refactor that moves a call into another module keeps its span.
uninstall() puts the original functions back, so untraced work runs the
unmodified code; clearing ``active`` makes installed wrappers call straight
through without recording.

Spans are columns of integers (perf_counter_ns start and end, parent span,
top-level call id, name id, and the time covered by direct children); a
span's self time is its duration minus that covered time.  Hooks keyed by
function name turn a finished call's arguments and result into exact counts
(pairs sampled, subsets evaluated, ...).
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from collections import Counter
from typing import Callable

import numpy as np

Hook = Callable[["Tracer", tuple, dict, object, int], None]


class Tracer:
    def __init__(self, package: str, hooks: dict[str, Hook]):
        self.package = package
        self.hooks = hooks
        self.labels: list[str] = []        # span name id -> "module.function"
        self.functions: list[str] = []     # span name id -> bare function name
        self.call_id = -1
        self.active = True                 # False: wrappers call straight through
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts; wrappers stay installed."""
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.call = array("q")
        self.child = array("q")
        self.name = array("i")
        self.counts = Counter()

    # -- patching ---------------------------------------------------------

    def _modules(self) -> list[types.ModuleType]:
        prefix = self.package + "."
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == self.package or key.startswith(prefix))]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not (value.__module__ or "").startswith(self.package)):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self._wrap(value)
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, fn: Callable) -> Callable:
        module = fn.__module__.removeprefix(self.package + ".")
        name_id = len(self.labels)
        self.labels.append(f"{module}.{fn.__name__}")
        self.functions.append(fn.__name__)
        hook = self.hooks.get(fn.__name__)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            parent = stack[-1] if stack else -1
            tracer.name.append(name_id)
            tracer.parent.append(parent)
            tracer.call.append(tracer.call_id)
            tracer.child.append(0)
            tracer.end.append(0)
            stack.append(idx)
            t0 = clock()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.end[idx] = t1
                if parent >= 0:
                    tracer.child[parent] += t1 - t0
            if hook is not None:
                hook(tracer, args, kwargs, result, t1 - t0)
            return result

        return traced

    # -- summaries --------------------------------------------------------

    def by_function(self, call_scale: np.ndarray) -> dict[str, dict[str, float]]:
        """Per bare function name: span count, inclusive and self seconds, each
        span's time multiplied by call_scale[its top-level call id]."""
        if not len(self.start):
            return {}
        names = np.frombuffer(self.name, dtype=np.int32)
        scale = call_scale[np.frombuffer(self.call, dtype=np.int64)]
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64) - start) * scale
        own = dur - np.frombuffer(self.child, dtype=np.int64) * scale
        calls = np.bincount(names, minlength=len(self.labels))
        busy = np.bincount(names, weights=dur, minlength=len(self.labels))
        self_ns = np.bincount(names, weights=own, minlength=len(self.labels))
        out: dict[str, dict[str, float]] = {}
        for i, fn in enumerate(self.functions):
            if calls[i]:
                acc = out.setdefault(fn, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                acc["calls"] += int(calls[i])
                acc["busy_s"] += float(busy[i]) / 1e9
                acc["self_s"] += float(self_ns[i]) / 1e9
        return out

    def save(self, path: str) -> None:
        """Write the spans as columns of an uncompressed .npz file."""
        np.savez(path, labels=np.array(self.labels), name=np.frombuffer(self.name, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 call=np.frombuffer(self.call, dtype=np.int64))
