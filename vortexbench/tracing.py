"""Spans around vortexre's public functions, kept in memory.

`install` wraps every public function of the traced modules at each
vortexre module attribute that refers to it, so a call is seen at the
name its caller looks up (``vortexre.search.potential_gradient``,
``vortexre.hermite.normal_form``, ``vortexre._kernels.terms_mul``...).
Nothing under src/ changes.

A call becomes a span (name, start, end, parent, child time).  Functions
called hundreds of thousands of times per job (the kernels, the potential
derivatives, the vortex field) are kept as one aggregate per
(parent span, name) instead, so memory stays flat.  A span's self time is
its duration minus that of its direct children, so the self times of a
job's subtree add up to the job's duration.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# module -> layer name used in span and metric names
LAYERS = {
    "vortexre.cli": "cli",
    "vortexre.halfangle": "halfangle",
    "vortexre.polynomials": "polynomials",
    "vortexre._kernels": "kernels",
    "vortexre.groebner": "groebner",
    "vortexre.hermite": "hermite",
    "vortexre.potential": "potential",
    "vortexre.search": "search",
    "vortexre.dynamics": "dynamics",
    "vortexre.plotting": "plotting",
}
# rationals run inside operators and errors holds only exception types:
# neither has a call boundary worth a span.
HOT = {"potential.potential_gradient", "potential.potential_hessian",
       "search.rotation_distance", "dynamics.vortex_field"}
# spans that also record len() of their result
SIZED = {"hermite.quotient_basis", "search.find_all_critical_points"}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []   # [name, start, end, parent, child_seconds, size]
        self.stack = []
        self.hot = {}     # (parent, name) -> [calls, seconds]
        self.kernels_traced = False

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, 0.0, None])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx, size=None):
        span = self.spans[idx]
        span[2] = self.clock()
        span[5] = size
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def span_wrapper(self, name, fn):
        sized = name in SIZED

        def traced(*args, **kwargs):
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, len(result) if sized and result is not None else None)

        return traced

    def hot_wrapper(self, name, fn):
        clock, stack, spans, hot = self.clock, self.stack, self.spans, self.hot

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                parent = stack[-1] if stack else -1
                bucket = hot.get((parent, name))
                if bucket is None:
                    hot[(parent, name)] = [1, dt]
                else:
                    bucket[0] += 1
                    bucket[1] += dt
                if parent >= 0:
                    spans[parent][4] += dt

        return traced

    # -- queries ---------------------------------------------------------

    def ancestors(self, idx):
        while idx >= 0:
            yield self.spans[idx][0]
            idx = self.spans[idx][3]

    def summary(self):
        """{name: [calls, seconds, self seconds]} over spans and aggregates."""
        out = {}
        for name, start, end, _, child, _ in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        for (_, name), (calls, seconds) in self.hot.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += seconds
            row[2] += seconds
        return out

    def dump(self):
        return {
            "spans": [{"id": i, "name": s[0], "start": s[1], "end": s[2],
                       "parent": s[3], "self": s[2] - s[1] - s[4], "size": s[5]}
                      for i, s in enumerate(self.spans)],
            "aggregates": [{"parent": p, "name": n, "calls": c, "seconds": t}
                           for (p, n), (c, t) in self.hot.items()],
        }


def _targets():
    """{function object: traced name} for the public functions of each layer."""
    found = {}
    for modname, layer in LAYERS.items():
        try:
            module = importlib.import_module(modname)
        except ImportError:
            continue   # a layer folded away reports its metrics as absent
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                continue
            home = getattr(obj, "__module__", None) or ""
            # kernels are counted where callers enter the dispatch module
            if home == modname or (layer == "kernels" and home.startswith(modname)):
                found.setdefault(obj, f"{layer}.{attr}")
    return found


def install(tracer):
    """Replace each target at every vortexre attribute bound to it."""
    targets = _targets()
    tracer.kernels_traced = any(n.startswith("kernels.") for n in targets.values())
    wrappers = {}
    for fn, name in targets.items():
        layer = name.split(".", 1)[0]
        make = tracer.hot_wrapper if (layer == "kernels" or name in HOT) \
            else tracer.span_wrapper
        wrappers[id(fn)] = make(name, fn)
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("vortexre") or module is None:
            continue
        if modname.startswith("vortexre._kernels."):
            continue   # the backends' internal calls stay untraced
        for attr, obj in list(vars(module).items()):
            # ids are unique among live objects, and every target is alive
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return sorted(set(targets.values()))
