"""The traced benchmark run patches roadmnet names module by module.

``perfbench/spans.py`` replaces entry points such as
``operation.extract_plan`` or ``design.regen_adjacency`` by attribute name, so
a refactor that moves or renames one of them must fail here rather than break
``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import importlib.util
import os
import threading
from collections import defaultdict

from roadmnet import FailureScenario, algorithms, design, milp, operation, verify
from roadmnet.topology import enumerate_failures

from instances import toy_network

NF = FailureScenario.no_failure()
SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "spans.py",
)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooked_names():
    return [
        (module, attr, getattr(module, attr))
        for module in (algorithms, design, milp, operation, verify)
        for attr in sorted(vars(module))
        if callable(getattr(module, attr))
    ]


def test_instrument_spans_the_library_and_restores_it():
    spans = load_spans()
    before = hooked_names()
    tracer = spans.Tracer()
    topology, demands, costs = toy_network()
    failures = enumerate_failures(topology)
    solves = []  # milp.solve spans recorded after each call

    def solve_spans():
        solves.append(sum(span[0] == "milp.solve" for span in tracer.spans))

    restore = spans.instrument(tracer)
    try:
        _, plans = algorithms.design_optimal(topology, demands, costs)
        solve_spans()
        for concurrent in (False, True):
            operation.transient_reports(topology, demands, plans[NF], failures,
                                        concurrent=concurrent)
            solve_spans()
        algorithms.design_legacy(topology, demands, costs)
        solve_spans()
    finally:
        restore()
    assert hooked_names() == before
    seen = {span[0] for span in tracer.spans}
    assert {"milp.solve", "milp.highs", "design.build", "operation.operate",
            "operation.extract_plan", "topology.regen_adjacency",
            "topology.shortest_path"} <= seen
    assert tracer.largest[tracer.pass_id]["vars"] > 0
    # Each transient rating and each legacy step is one solve per failure state.
    assert [b - a for a, b in zip(solves, solves[1:])] == [len(failures)] * 3


def test_the_sibling_thread_never_enters_the_tracer(grid_inputs, monkeypatch):
    """Tracer keeps one span stack, so only the calling thread may open spans:
    every LP runs there, each one milp.highs span."""
    spans = load_spans()
    tracer = spans.Tracer()
    opened_on = []
    real_call = tracer.call

    def call(name, fn, *args, **kwargs):
        opened_on.append((name, threading.current_thread()))
        return real_call(name, fn, *args, **kwargs)

    tracer.call = call
    restore = spans.instrument(tracer)
    try:
        algorithms.design_optimal(*grid_inputs)
    finally:
        restore()
    highs = [thread for name, thread in opened_on if name == "milp.highs"]
    assert highs and all(thread is threading.main_thread() for thread in highs)
    assert len(highs) == tracer.counters[tracer.pass_id]["milp.bnb.nodes"]
    children = defaultdict(list)
    for name, start, end, parent, _ in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]
        children[parent].append((start, end))
    for intervals in children.values():
        intervals.sort()
        assert all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))
