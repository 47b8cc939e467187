"""Spans around roadmnet's layer boundaries, recorded from outside the program.

The benchmark opens a span around every call it makes into roadmnet
(``Tracer.call``).  For the traced run, ``instrument`` additionally replaces
each public entry point at every roadmnet module that imports it by name, so
calls the library makes internally are spanned too; ``restore`` puts the
originals back.  No file of the program is changed.

A span is ``[name, start, end, parent, pass_id]``; spans stay in memory and are
written out once the run ends.  Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# The layer metrics every traced result carries, with unit and direction.
# Zero is a valid value; a missing metric is an error.
PER_LAYER = [
    ("milp.solve.calls", "count", "lower"),
    ("milp.solve.s", "s", "lower"),
    ("milp.solve.self_s", "s", "lower"),
    ("milp.highs.calls", "count", "lower"),
    ("milp.highs.s", "s", "lower"),
    ("milp.highs.per_solve", "ratio", "lower"),
    ("milp.bnb.nodes", "count", "lower"),
    ("milp.solve.not_optimal", "count", "lower"),
    ("milp.gap", "ratio", "lower"),
    ("design.build.calls", "count", "lower"),
    ("design.build.s", "s", "lower"),
    ("design.model.vars", "count", "lower"),
    ("design.model.cons", "count", "lower"),
    ("design.model.nnz", "count", "lower"),
    ("design.model.vars.T", "count", "lower"),
    ("design.model.vars.R", "count", "lower"),
    ("design.model.vars.P", "count", "lower"),
    ("design.model.vars.X", "count", "lower"),
    ("design.model.vars.W", "count", "lower"),
    ("design.model.vars.H", "count", "lower"),
    ("design.model.vars.Y", "count", "lower"),
    ("algorithms.design_optimal.s", "s", "lower"),
    ("algorithms.design_simple.s", "s", "lower"),
    ("algorithms.design_greedy.s", "s", "lower"),
    ("algorithms.design_legacy.s", "s", "lower"),
    ("operation.operate.calls", "count", "lower"),
    ("operation.operate.s", "s", "lower"),
    ("operation.extract_plan.calls", "count", "lower"),
    ("operation.extract_plan.s", "s", "lower"),
    ("operation.expand_link_path.calls", "count", "lower"),
    ("operation.expand_link_path.s", "s", "lower"),
    ("operation.evaluate_transient.calls", "count", "lower"),
    ("operation.evaluate_transient.s", "s", "lower"),
    ("topology.regen_adjacency.calls", "count", "lower"),
    ("topology.regen_adjacency.s", "s", "lower"),
    ("topology.shortest_path.calls", "count", "lower"),
    ("topology.shortest_path.s", "s", "lower"),
    ("io.load_inputs.s", "s", "lower"),
    ("io.load_design.s", "s", "lower"),
    ("io.save_design.s", "s", "lower"),
    ("io.design_doc.bytes", "bytes", "lower"),
    ("verify.oracle.calls", "count", "lower"),
    ("verify.oracle.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

FAMILIES = "TRPXWHY"

# Spans whose count and total time become "<name>.calls" / "<name>.s".
_TIMED = (
    "milp.solve", "milp.highs", "design.build", "algorithms.design_optimal",
    "algorithms.design_simple", "algorithms.design_greedy",
    "algorithms.design_legacy", "operation.operate", "operation.extract_plan",
    "operation.expand_link_path", "operation.evaluate_transient",
    "topology.regen_adjacency", "topology.shortest_path", "io.load_inputs",
    "io.load_design", "io.save_design", "verify.oracle",
)


class NullTracer:
    """The untraced run: calls go straight through."""

    pass_id = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.largest: dict[int, dict[str, int]] = {}

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.pass_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def count(self, name, value):
        self.counters[self.pass_id][name] += value

    def note_solve(self, result):
        c = self.counters[self.pass_id]
        c["milp.bnb.nodes"] += result.nodes
        if result.status != "optimal":
            c["milp.solve.not_optimal"] += 1
        if result.objective_value is not None and result.best_bound is not None:
            gap = abs(result.objective_value - result.best_bound)
            c["milp.gap"] = max(c["milp.gap"], gap / max(1.0, abs(result.objective_value)))

    def note_model(self, dm):
        """Keep the size of the largest design model built in this pass."""
        variables = dm.model.variables
        best = self.largest.get(self.pass_id)
        if best is not None and best["vars"] >= len(variables):
            return
        constraints = dm.model.constraints
        size = {
            "vars": len(variables),
            "cons": len(constraints),
            "nnz": sum(len(con.coeffs) for con in constraints),
        }
        for fam in FAMILIES:
            size[fam] = sum(1 for v in variables if v.name.startswith(fam + "_"))
        self.largest[self.pass_id] = size

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def instrument(tracer: Tracer):
    """Span every public entry point at each module importing it by name.

    Returns a function that restores the originals.
    """
    import scipy.optimize

    from roadmnet import algorithms, design, milp, operation, verify

    saved = []

    def patch(module, attr, name, after=None):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            out = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(out)
            return out

        saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    for module in (algorithms, operation):
        patch(module, "solve", "milp.solve", tracer.note_solve)
        patch(module, "build_design_model", "design.build", tracer.note_model)
        patch(module, "shortest_path", "topology.shortest_path")
    patch(algorithms, "operate", "operation.operate")
    patch(design, "regen_adjacency", "topology.regen_adjacency")
    patch(verify, "regen_adjacency", "topology.regen_adjacency")
    patch(operation, "expand_link_path", "operation.expand_link_path")
    patch(operation, "extract_plan", "operation.extract_plan")
    patch(milp, "linprog", "milp.highs")
    # solve_with_scipy_milp imports milp lazily from scipy.optimize.
    patch(scipy.optimize, "milp", "milp.highs")

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


def self_times(spans) -> list[float]:
    """Duration minus child coverage, per span (children nest, one thread)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per-layer metrics of every traced pass (everything but trace.*)."""
    calls: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    total: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    solve_self: dict[int, float] = defaultdict(float)
    for (name, start, end, _, p), own in zip(tracer.spans, self_times(tracer.spans)):
        calls[p][name] += 1
        total[p][name] += end - start
        if name == "milp.solve":
            solve_self[p] += own
    result = {}
    for p in calls:
        out: dict[str, float] = {}
        for name in _TIMED:
            out[name + ".calls"] = calls[p][name]
            out[name + ".s"] = total[p][name]
        out["milp.solve.self_s"] = solve_self[p]
        solves = calls[p]["milp.solve"]
        out["milp.highs.per_solve"] = calls[p]["milp.highs"] / solves if solves else 0.0
        counters = tracer.counters[p]
        for key in ("milp.bnb.nodes", "milp.solve.not_optimal", "milp.gap",
                    "io.design_doc.bytes"):
            out[key] = counters.get(key, 0.0)
        size = tracer.largest.get(p, {})
        for key in ("vars", "cons", "nnz"):
            out["design.model." + key] = size.get(key, 0)
        for fam in FAMILIES:
            out["design.model.vars." + fam] = size.get(fam, 0)
        result[p] = out
    return result


def coverage(tracer: Tracer, pass_id: int, wall: float) -> float:
    """Share of a pass's wall time inside its top-level spans."""
    top = sum(e - s for _, s, e, parent, p in tracer.spans if p == pass_id and parent < 0)
    return top / wall if wall > 0 else 0.0
