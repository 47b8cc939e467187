"""roadmnet: capacity planning for IP networks over optical transport.

Place tails, regenerators, and ports so traffic survives any single span cut
or router loss; operate and evaluate the resulting designs.
"""

from __future__ import annotations

from .algorithms import (
    LegacyLink,
    design_greedy,
    design_legacy,
    design_optimal,
    design_simple,
)
from .design import (
    Design,
    DesignModel,
    InfeasibleDesignError,
    NoIncumbentError,
    PriorPlacement,
    build_design_model,
    extract_design,
)
from .io import (
    DESIGN_FORMAT,
    DesignDocument,
    InputFormatError,
    load_design,
    load_inputs,
    parse_scenario_label,
    plan_links,
    save_design,
)
from .milp import (
    LinearModel,
    ModelError,
    SolveResult,
    SolverError,
    export_lp,
    validate_solution,
)
from .operation import (
    LinkRecord,
    OperationPlan,
    TransientReport,
    evaluate_transient,
    expand_link_path,
    extract_plan,
    operate,
    transient_reports,
    write_transient_csv,
)
from .topology import (
    CostModel,
    DemandMatrix,
    FailureScenario,
    Router,
    Span,
    Topology,
    TopologyError,
    enumerate_failures,
    regen_adjacency,
    shortest_distances,
    shortest_path,
    surviving_spans,
)
from .verify import (
    OracleError,
    OracleSearchSpaceError,
    check_flow_conservation,
    check_plan_within_design,
    check_regen_feasible_path,
    enumerate_milp_minimum,
    oracle_design_search,
)

__version__ = "0.1.0"

__all__ = [
    "CostModel",
    "DESIGN_FORMAT",
    "DemandMatrix",
    "Design",
    "DesignDocument",
    "DesignModel",
    "FailureScenario",
    "InfeasibleDesignError",
    "InputFormatError",
    "LegacyLink",
    "LinearModel",
    "LinkRecord",
    "ModelError",
    "NoIncumbentError",
    "OperationPlan",
    "OracleError",
    "OracleSearchSpaceError",
    "PriorPlacement",
    "Router",
    "SolveResult",
    "SolverError",
    "Span",
    "Topology",
    "TopologyError",
    "TransientReport",
    "build_design_model",
    "check_flow_conservation",
    "check_plan_within_design",
    "check_regen_feasible_path",
    "design_greedy",
    "design_legacy",
    "design_optimal",
    "design_simple",
    "enumerate_failures",
    "enumerate_milp_minimum",
    "evaluate_transient",
    "expand_link_path",
    "export_lp",
    "extract_design",
    "extract_plan",
    "load_design",
    "load_inputs",
    "operate",
    "oracle_design_search",
    "parse_scenario_label",
    "plan_links",
    "regen_adjacency",
    "save_design",
    "shortest_distances",
    "shortest_path",
    "surviving_spans",
    "transient_reports",
    "validate_solution",
    "write_transient_csv",
]
