"""The traced benchmark run patches roadmnet names module by module.

``perfbench/spans.py`` replaces entry points such as
``operation.extract_plan`` or ``design.regen_adjacency`` by attribute name, so
a refactor that moves or renames one of them must fail here rather than break
``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import importlib.util
import os

from roadmnet import algorithms, design, milp, operation, verify

from instances import toy_network

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
    restore = spans.instrument(tracer)
    try:
        algorithms.design_optimal(*toy_network())
    finally:
        restore()
    assert hooked_names() == before
    seen = {span[0] for span in tracer.spans}
    assert {"milp.solve", "milp.highs", "design.build", "operation.operate",
            "operation.extract_plan", "topology.regen_adjacency"} <= seen
    assert tracer.largest[tracer.pass_id]["vars"] > 0
