"""Per-layer metrics derived from the spans of one traced round.

Times are inclusive seconds over the round unless the name says self;
counts are calls over the round.  README.md lists which end-to-end
metric each one should move.
"""

from __future__ import annotations

import statistics


def _parents(tracer):
    """Name of the direct parent span of every span (None at top level)."""
    names = [s[0] for s in tracer.spans]
    return [names[s[3]] if s[3] >= 0 else None for s in tracer.spans]


def metrics(tracer):
    summary = tracer.summary()
    parents = _parents(tracer)

    def calls(name):
        return summary.get(name, [0, 0.0, 0.0])[0]

    def seconds(name):
        return summary.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(prefix):
        """Self time of every function whose name starts with prefix."""
        return sum(row[2] for name, row in summary.items() if name.startswith(prefix))

    def calls_from(name, parent):
        n = sum(1 for s, p in zip(tracer.spans, parents) if s[0] == name and p == parent)
        n += sum(c for (pidx, hname), (c, _) in tracer.hot.items()
                 if hname == name and pidx >= 0 and tracer.spans[pidx][0] == parent)
        return n

    def calls_within(name, ancestor):
        return sum(c for (pidx, hname), (c, _) in tracer.hot.items()
                   if hname == name and ancestor in tracer.ancestors(pidx))

    def sizes(name):
        return [s[5] for s in tracer.spans if s[0] == name and s[5] is not None]

    found = sum(sizes("search.find_all_critical_points"))
    solves = calls("dynamics.newton_solve")
    qdims = sizes("hermite.quotient_basis")
    values = {
        "cli.self_s": (self_seconds("cli."), "s"),
        "halfangle.build_s": (seconds("halfangle.build_equal_weight_system"), "s"),
        "polynomials.exact_divide_calls": (calls("polynomials.exact_divide"), "count"),
        "polynomials.exact_divide_s": (seconds("polynomials.exact_divide"), "s"),
        "groebner.buchberger_s": (seconds("groebner.buchberger"), "s"),
        "groebner.spolys": (calls("groebner.s_polynomial"), "count"),
        "groebner.normal_forms": (calls_from("groebner.normal_form",
                                             "groebner.buchberger"), "count"),
        "hermite.trace_s": (seconds("hermite.hermite_matrix"), "s"),
        "hermite.reductions": (calls_from("groebner.normal_form",
                                          "hermite.hermite_matrix"), "count"),
        "hermite.signature_s": (seconds("hermite.signature_and_rank"), "s"),
        "hermite.quotient_dim": (statistics.median(qdims) if qdims else 0, "count"),
        "potential.gradient_calls": (calls("potential.potential_gradient"), "count"),
        "potential.gradient_s": (seconds("potential.potential_gradient"), "s"),
        "potential.hessian_calls": (calls("potential.potential_hessian"), "count"),
        "potential.hessian_s": (seconds("potential.potential_hessian"), "s"),
        "potential.classify_s": (seconds("potential.classify"), "s"),
        "search.find_s": (self_seconds("search.find_all_critical_points"), "s"),
        "search.rotation_distance_calls": (calls("search.rotation_distance"), "count"),
        "search.families_s": (seconds("search.group_into_families"), "s"),
        "search.export_s": (seconds("search.export_critical_points"), "s"),
        "search.grads_per_point": (
            calls_within("potential.potential_gradient",
                         "search.find_all_critical_points") / found if found else 0.0,
            "count/point"),
        "dynamics.newton_s": (seconds("dynamics.newton_solve"), "s"),
        "dynamics.newton_iters": (
            calls_from("dynamics.re_jacobian", "dynamics.newton_solve") / solves
            if solves else 0.0, "count/solve"),
        "dynamics.stability_s": (seconds("dynamics.full_system_stability"), "s"),
        "dynamics.integrate_s": (seconds("dynamics.integrate_vortices"), "s"),
        "dynamics.field_calls": (calls("dynamics.vortex_field"), "count"),
    }
    kernels = [row for name, row in summary.items() if name.startswith("kernels.")]
    if tracer.kernels_traced:
        values["kernels.calls"] = (sum(r[0] for r in kernels), "count")
        values["kernels.s"] = (sum((r[1] for r in kernels), 0.0), "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in sorted(values.items())}


def accounting(tracer):
    """Per job: wall time, and the self time each layer and the benchmark's
    own job span take of it.  The self times add up to the job's time."""
    jobs = []
    children = {}
    for idx, s in enumerate(tracer.spans):
        children.setdefault(s[3], []).append(idx)
    hot_by_parent = {}
    for (pidx, name), (_, t) in tracer.hot.items():
        hot_by_parent.setdefault(pidx, []).append((name, t))
    for idx, s in enumerate(tracer.spans):
        if s[3] != -1 or not s[0].startswith("job."):
            continue
        by_layer = {}
        todo = [idx]
        while todo:
            k = todo.pop()
            span = tracer.spans[k]
            layer = span[0].split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + span[2] - span[1] - span[4]
            for name, t in hot_by_parent.get(k, []):
                hl = name.split(".", 1)[0]
                by_layer[hl] = by_layer.get(hl, 0.0) + t
            todo += children.get(k, [])
        wall = s[2] - s[1]
        jobs.append({"job": s[0], "wall_s": wall, "self_s": by_layer,
                               "unaccounted_s": wall - sum(by_layer.values())})
    return jobs
