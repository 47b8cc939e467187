"""The four benchmark workloads.

A workload turns a seed into inputs (``setup``), runs one timed pass over them
(``run_pass``), and reduces each operation's result to a JSON-able digest
(``digest``) that the correctness gate compares with pinned references.
``deep_check`` audits the first pass's plans with roadmnet's independent plan
checkers, ``independent`` recomputes what can be recomputed by another route
for seeds that have no pin, and ``confirm`` vets a pass before ``pin.py`` pins
it.  Only ``run_pass`` is timed.

Every call into roadmnet goes through ``tr.call(span_name, fn, ...)``; with
tracing off that is a plain call.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import gen
from pace import PACER
from roadmnet import (
    FailureScenario,
    build_design_model,
    check_flow_conservation,
    check_plan_within_design,
    check_regen_feasible_path,
    design_greedy,
    design_legacy,
    design_optimal,
    design_simple,
    enumerate_failures,
    evaluate_transient,
    load_design,
    load_inputs,
    operate,
    oracle_design_search,
    plan_links,
    save_design,
)
from roadmnet.io import design_payload
from roadmnet.milp import solve_with_scipy_milp

NO_FAILURE = FailureScenario.no_failure()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _timed(tr, name, fn, *args, **kwargs):
    """(seconds, result or raised exception) of one operation."""
    PACER.tick()
    start = time.perf_counter()
    try:
        out = tr.call(name, fn, *args, **kwargs)
    except Exception as exc:  # an operation that raises is a failed operation
        out = exc
    return time.perf_counter() - start, out


def _walk(topology, start, spans):
    walk = [start]
    for u, v in spans:
        walk.append(v if walk[-1] == u else u)
    return walk


def _namings(seed, payloads, copies):
    """Every (tag, payload) under ``copies`` seeded namings, copy by copy.

    The names and list orders steer the solver's tie-breaks, so each naming
    costs a different amount of work; a pass over several namings evens that
    out from seed to seed.  Copy 0 of a tag is named as ``f"{seed}/{tag}"``.
    """
    return [gen.relabel(payload, f"{seed}/{tag}" + (f"/{c}" if c else ""))
            for c in range(copies) for tag, payload in payloads]


def plan_problems(plan, design, demands, flows=True) -> list[str]:
    """Budget, balance and reach violations of one operation plan."""
    problems = list(check_plan_within_design(plan, design, demands))
    if flows:
        problems += check_flow_conservation(plan, demands)
    topology = plan.topology
    for (a, b), chains in plan.regen_chains.items():
        for chain, spans in zip(chains, plan.span_paths[(a, b)]):
            walk = _walk(topology, topology.home(a), spans)
            if walk[-1] != topology.home(b) or not check_regen_feasible_path(
                topology, plan.scenario, walk, chain
            ):
                problems.append(f"link {a}-{b}: chain {chain} is not a feasible route")
    return [f"{plan.scenario.label()}: {p}" for p in problems]


class Workload:
    name = ""

    def setup(self, seed, workdir):
        raise NotImplementedError

    def inputs(self, seed) -> list[dict]:
        raise NotImplementedError

    def run_pass(self, state, tr):
        """[(op key, seconds, raw result)] and the failure states covered."""
        raise NotImplementedError

    def digest(self, state, key, raw) -> dict:
        raise NotImplementedError

    def deep_check(self, state, key, raw) -> list[str]:
        return []

    def independent(self, state) -> dict[str, dict]:
        return {}

    def confirm(self, state, digests) -> list[str]:
        """Problems a second route finds with one pass's digests (pin.py)."""
        return []


class JointOptimal(Workload):
    name = "joint-optimal"
    # Every placement of two IP nodes on the 3x3 grid, up to symmetry, each
    # under two namings.
    CELLS = (
        ((0, 0), (0, 1)), ((0, 0), (0, 2)), ((0, 0), (1, 1)), ((0, 0), (1, 2)),
        ((0, 0), (2, 2)), ((0, 1), (1, 0)), ((0, 1), (1, 1)), ((0, 1), (2, 1)),
    )
    COPIES = 2

    def inputs(self, seed):
        return _namings(seed, [(i, gen.grid_payload(3, 3, cells))
                               for i, cells in enumerate(self.CELLS)], self.COPIES)

    def setup(self, seed, workdir):
        nets = [gen.build(p) for p in self.inputs(seed)]
        docs = [os.path.join(workdir, f"joint-{i}.json") for i in range(len(nets))]
        return {"nets": nets, "docs": docs}

    def run_pass(self, state, tr):
        ops, states = [], 0
        for i, ((topology, demands, costs), doc) in enumerate(zip(state["nets"], state["docs"])):
            secs, out = _timed(tr, "algorithms.design_optimal", design_optimal,
                               topology, demands, costs)
            if not isinstance(out, Exception):
                design, plans = out
                links = {s.label(): plan_links(p) for s, p in plans.items()}
                tr.call("io.save_design", save_design, doc, design, costs,
                        algorithm="optimal", links=links)
                tr.count("io.design_doc.bytes", os.path.getsize(doc))
            ops.append((str(i), secs, out))
            states += len(enumerate_failures(topology))
        return ops, states

    def digest(self, state, key, raw):
        if isinstance(raw, Exception):
            return {"error": repr(raw)}
        design, _ = raw
        with open(state["docs"][int(key)], "rb") as fh:
            doc = fh.read()
        return {"status": design.solve_status, "cost": design.total_cost_reported,
                "sha256": _sha(doc)}

    def deep_check(self, state, key, raw):
        if isinstance(raw, Exception):
            return []
        design, plans = raw
        _, demands, _ = state["nets"][int(key)]
        return [p for plan in plans.values() for p in plan_problems(plan, design, demands)]

    def independent(self, state):
        """Joint optimum of each network through scipy.optimize.milp (HiGHS)."""
        out = {}
        for i, (topology, demands, costs) in enumerate(state["nets"]):
            dm = build_design_model(topology, demands, enumerate_failures(topology), costs)
            res = solve_with_scipy_milp(dm.model)
            out[str(i)] = {"status": res.status, "cost": res.objective_value}
        return out

    def confirm(self, state, digests):
        """The scipy optimum of each joint model equals roadmnet's cost."""
        return [f"{key}: scipy gives {want}, roadmnet {digests[key]}"
                for key, want in self.independent(state).items()
                if want["status"] != "optimal"
                or abs(want["cost"] - digests[key]["cost"]) > 1e-6]


class HeuristicSweep(Workload):
    name = "heuristic-sweep"
    CELLS = (
        ((0, 0), (0, 1)), ((0, 0), (0, 3)), ((0, 0), (1, 2)),
        ((0, 0), (3, 3)), ((0, 1), (2, 2)), ((1, 1), (2, 2)),
    )
    COPIES = 2

    def inputs(self, seed):
        return _namings(seed, [(i, gen.grid_payload(4, 4, cells))
                               for i, cells in enumerate(self.CELLS)], self.COPIES)

    def setup(self, seed, workdir):
        return {"nets": [gen.build(p) for p in self.inputs(seed)]}

    ALGORITHMS = {"simple": design_simple, "greedy": design_greedy}

    def _with_plan(self, tr, algorithm, topology, demands, costs):
        """One ``roadmnet compare`` step: design, then operate the design."""
        design = tr.call(f"algorithms.design_{algorithm}", self.ALGORITHMS[algorithm],
                         topology, demands, costs)
        plan = tr.call("operation.operate", operate, topology, demands, design, NO_FAILURE)
        return design, plan

    def run_pass(self, state, tr):
        ops, states = [], 0
        for i, (topology, demands, costs) in enumerate(state["nets"]):
            n = len(enumerate_failures(topology))
            for algorithm in ("simple", "greedy"):
                secs, out = _timed(tr, "bench.compare_step", self._with_plan, tr,
                                   algorithm, topology, demands, costs)
                ops.append((f"{i}:{algorithm}", secs, out))
            secs, out = _timed(tr, "algorithms.design_legacy", design_legacy,
                               topology, demands, costs)
            ops.append((f"{i}:legacy", secs, out))
            states += 3 * n
        return ops, states

    def digest(self, state, key, raw):
        if isinstance(raw, Exception):
            return {"error": repr(raw)}
        design, extra = raw
        _, _, costs = state["nets"][int(key.split(":")[0])]
        if key.endswith("legacy"):
            links = {NO_FAILURE.label(): ()}
            detail = repr(sorted(map(repr, extra))).encode()
        else:
            links = {NO_FAILURE.label(): plan_links(extra)}
            detail = b""
        doc = json.dumps(design_payload(design, costs, algorithm=key, links=links)).encode()
        return {"status": design.solve_status, "cost": design.total_cost_reported,
                "sha256": _sha(doc + detail)}

    def confirm(self, state, digests):
        """No heuristic design is cheaper than the scipy joint optimum."""
        problems = []
        for i, (topology, demands, costs) in enumerate(state["nets"]):
            dm = build_design_model(topology, demands, enumerate_failures(topology), costs)
            best = solve_with_scipy_milp(dm.model).objective_value
            for key, digest in digests.items():
                if key.startswith(f"{i}:") and digest["cost"] < best - 1e-6:
                    problems.append(f"{key}: cost {digest['cost']} below optimum {best}")
        return problems

    def deep_check(self, state, key, raw):
        if isinstance(raw, Exception):
            return []
        design, extra = raw
        topology, demands, _ = state["nets"][int(key.split(":")[0])]
        if not key.endswith("legacy"):
            return plan_problems(extra, design, demands)
        problems = []
        for link in extra:
            if not link.intra and not check_regen_feasible_path(
                topology, NO_FAILURE, link.path, link.regens
            ):
                problems.append(f"legacy link {link.a}-{link.b} exceeds reach")
        return problems


class TransientRating(Workload):
    name = "transient-rating"
    CELLS = ((0, 0), (2, 3), (4, 1))

    def inputs(self, seed):
        return [gen.relabel(gen.grid_payload(5, 5, self.CELLS), f"{seed}/0")]

    def setup(self, seed, workdir):
        """Write the network, then design it greedily and save the document,
        as ``roadmnet design --algorithm greedy --out`` does."""
        inputs = os.path.join(workdir, "transient-inputs.json")
        doc = os.path.join(workdir, "transient-design.json")
        with open(inputs, "wb") as fh:
            fh.write(gen.payload_bytes(self.inputs(seed)[0]))
        topology, demands, costs = load_inputs(inputs)
        design = design_greedy(topology, demands, costs)
        plan = operate(topology, demands, design, NO_FAILURE)
        save_design(doc, design, costs, algorithm="greedy",
                    links={NO_FAILURE.label(): plan_links(plan)})
        return {"inputs": inputs, "doc": doc, "cost": design.total_cost_reported}

    def run_pass(self, state, tr):
        topology, demands, _ = tr.call("io.load_inputs", load_inputs, state["inputs"])
        document = tr.call("io.load_design", load_design, state["doc"])
        tr.count("io.design_doc.bytes", os.path.getsize(state["doc"]))
        base = tr.call("io.document_plan", document.plan, topology)
        ops = []
        for concurrent in (False, True):
            for scen in enumerate_failures(topology):
                secs, out = _timed(tr, "operation.evaluate_transient", evaluate_transient,
                                   topology, demands, base, scen, concurrent=concurrent)
                mode = "concurrent" if concurrent else "total"
                ops.append((f"{mode}:{scen.label()}", secs,
                            (out, base, demands, document.design)))
        return ops, len(ops)

    def digest(self, state, key, raw):
        report = raw[0]
        if isinstance(report, Exception):
            return {"error": repr(report)}
        return {"fraction": report.fraction}

    def deep_check(self, state, key, raw):
        report, base, demands, design = raw
        if isinstance(report, Exception):
            return []
        problems = []
        if not 0.0 <= report.fraction <= 1.0:
            problems.append(f"{key}: fraction {report.fraction} outside [0, 1]")
        if key.endswith(":no-failure") and report.fraction != 1.0:
            problems.append(f"{key}: nothing failed but fraction is {report.fraction}")
        if key == "total:no-failure":
            problems += plan_problems(base, design, demands, flows=False)
        return problems

    def confirm(self, state, digests):
        """The concurrent rating never exceeds the total one."""
        problems = []
        for key, digest in digests.items():
            if key.startswith("concurrent:"):
                total = digests["total:" + key.split(":", 1)[1]]["fraction"]
                if digest["fraction"] > total + 1e-9:
                    problems.append(f"{key}: concurrent {digest['fraction']} > total {total}")
        return problems

    def independent(self, state):
        """Nothing is lost before any failure, in either rating mode."""
        return {f"{mode}:{NO_FAILURE.label()}": {"fraction": 1.0}
                for mode in ("total", "concurrent")}


class MicroCrosscheck(Workload):
    name = "micro-crosscheck"
    # Micro networks of the test suite's generator: nine plain rings, two with
    # a third IP node and one with priced ports; each under two namings.
    STRUCTURES = (0, 1, 3, 4, 5, 6, 8, 9, 10, 11, 14, 18)
    COPIES = 2

    def inputs(self, seed):
        return _namings(seed, [(k, gen.micro_payload(k)) for k in self.STRUCTURES],
                        self.COPIES)

    def setup(self, seed, workdir):
        return {"nets": [gen.build(p) for p in self.inputs(seed)]}

    @staticmethod
    def _crosscheck(tr, topology, demands, costs):
        design, plans = tr.call("algorithms.design_optimal", design_optimal,
                                topology, demands, costs)
        cost, _ = tr.call("verify.oracle", oracle_design_search, topology, demands, costs,
                          enumerate_failures(topology))
        return design, plans, cost

    def run_pass(self, state, tr):
        ops, states = [], 0
        for i, (topology, demands, costs) in enumerate(state["nets"]):
            secs, out = _timed(tr, "bench.crosscheck", self._crosscheck, tr,
                               topology, demands, costs)
            ops.append((str(i), secs, out))
            states += len(enumerate_failures(topology))
        return ops, states

    def digest(self, state, key, raw):
        if isinstance(raw, Exception):
            return {"error": repr(raw)}
        design, _, oracle = raw
        return {"status": design.solve_status, "cost": design.total_cost_reported,
                "oracle": oracle}

    def deep_check(self, state, key, raw):
        if isinstance(raw, Exception):
            return []
        design, plans, oracle = raw
        _, demands, _ = state["nets"][int(key)]
        problems = [p for plan in plans.values() for p in plan_problems(plan, design, demands)]
        if abs(design.total_cost_reported - oracle) > 1e-6:
            problems.append(f"cost {design.total_cost_reported} but oracle {oracle}")
        return problems


WORKLOADS = {w.name: w for w in (JointOptimal(), HeuristicSweep(),
                                  TransientRating(), MicroCrosscheck())}
