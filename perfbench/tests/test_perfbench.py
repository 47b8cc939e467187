"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
import run  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_seed_gives_byte_identical_inputs():
    for workload in WORKLOADS.values():
        first = [gen.payload_bytes(p) for p in workload.inputs(run.DEFAULT_SEED)]
        again = [gen.payload_bytes(p) for p in workload.inputs(run.DEFAULT_SEED)]
        other = [gen.payload_bytes(p) for p in workload.inputs(run.HELD_OUT_SEED)]
        assert first == again, workload.name
        assert first != other, workload.name


def test_gate_flags_a_wrong_reference(tmp_path):
    workload = WORKLOADS["micro-crosscheck"]
    with open(os.path.join(HERE, "refs.json")) as fh:
        refs = json.load(fh)
    state = workload.setup(run.DEFAULT_SEED, str(tmp_path))
    state["nets"] = state["nets"][:2]
    passes, first_raw = run.measure(workload, state, NullTracer(), 0, min_passes=1)
    pin = refs[workload.name][str(run.DEFAULT_SEED)]
    pin["ops"] = {k: pin["ops"][k] for k in ("0", "1")}

    attempted, failed, _ = run.gate(workload, state, run.DEFAULT_SEED, passes, first_raw, refs)
    assert (attempted, failed) == (2, 0)

    tampered = copy.deepcopy(refs)
    tampered[workload.name][str(run.DEFAULT_SEED)]["ops"]["1"]["cost"] += 1.0
    attempted, failed, problems = run.gate(
        workload, state, run.DEFAULT_SEED, passes, first_raw, tampered)
    assert (attempted, failed) == (2, 1)
    assert "differs from reference" in problems[0]
