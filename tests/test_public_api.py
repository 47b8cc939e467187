"""The public API: ``roadmnet.__all__`` and each public function's parameters.

Callers bind these names and keywords directly, so renaming, reordering or
re-defaulting a parameter, or adding or dropping a public name, must show up
here as an edit rather than break a caller silently.
"""

from __future__ import annotations

import inspect

import roadmnet

PUBLIC_NAMES = [
    "CostModel", "DESIGN_FORMAT", "DemandMatrix", "Design", "DesignDocument",
    "DesignModel", "FailureScenario", "InfeasibleDesignError", "InputFormatError",
    "LegacyLink", "LinearModel", "LinkRecord", "ModelError", "NoIncumbentError",
    "OperationPlan", "OracleError", "OracleSearchSpaceError", "PriorPlacement",
    "Router", "SolveResult", "SolverError", "Span", "Topology", "TopologyError",
    "TransientReport", "build_design_model", "check_flow_conservation",
    "check_plan_within_design", "check_regen_feasible_path", "design_greedy",
    "design_legacy", "design_optimal", "design_simple", "enumerate_failures",
    "enumerate_milp_minimum", "evaluate_transient", "expand_link_path", "export_lp",
    "extract_design", "extract_plan", "load_design", "load_inputs", "operate",
    "oracle_design_search", "parse_scenario_label", "plan_links", "regen_adjacency",
    "save_design", "shortest_distances", "shortest_path", "surviving_spans",
    "transient_reports", "validate_solution", "write_transient_csv",
]

# Every public function's parameters: name=default, and "*" before the
# keyword-only ones.
SIGNATURES = {
    "build_design_model":
        "topology, demands, scenarios, costs, prior=None, *, fixed_design=None, "
        "strengthen=True",
    "check_flow_conservation": "plan, demands",
    "check_plan_within_design": "plan, design, demands",
    "check_regen_feasible_path": "topology, scenario, walk, regens",
    "design_greedy": "topology, demands, costs, per_scenario_time_limit=None, scenarios=None",
    "design_legacy": "topology, demands, costs, per_scenario_time_limit=None, scenarios=None",
    "design_optimal": "topology, demands, costs, per_scenario_time_limit=None, scenarios=None",
    "design_simple": "topology, demands, costs, per_scenario_time_limit=None, scenarios=None",
    "enumerate_failures": "topology",
    "enumerate_milp_minimum": "model, max_states=20000000",
    "evaluate_transient":
        "topology, demands, base_plan, scenario, *, concurrent=False, time_limit=None",
    "expand_link_path": "topology, scenario, link, chain",
    "export_lp": "model",
    "extract_design": "dm, result",
    "extract_plan": "dm, values, fi",
    "load_design": "path",
    "load_inputs": "path",
    "operate": "topology, demands, design, scenario, time_limit=None",
    "oracle_design_search": "topology, demands, costs, scenarios, caps=2",
    "parse_scenario_label": "topology, label",
    "plan_links": "plan",
    "regen_adjacency": "topology, scenario=None",
    "save_design": "path, design, costs, *, algorithm, links=None",
    "shortest_distances": "topology, scenario=None",
    "shortest_path": "topology, scenario, src, dst",
    "surviving_spans": "topology, scenario",
    "transient_reports":
        "topology, demands, base_plan, scenarios, *, concurrent=False, time_limit=None",
    "validate_solution": "model, values, tol=1e-06",
    "write_transient_csv": "reports, fileobj",
}


def parameters(fn) -> str:
    out = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in out:
            out.append("*")
        out.append(p.name if p.default is p.empty else f"{p.name}={p.default!r}")
    return ", ".join(out)


def test_public_names_are_pinned():
    assert roadmnet.__all__ == PUBLIC_NAMES
    assert all(hasattr(roadmnet, name) for name in PUBLIC_NAMES)


def test_public_function_parameters_are_pinned():
    functions = {name: getattr(roadmnet, name) for name in roadmnet.__all__
                 if inspect.isfunction(getattr(roadmnet, name))}
    assert {name: parameters(fn) for name, fn in functions.items()} == SIGNATURES
