"""Model-layer checks: the joint placement model solved directly."""

from __future__ import annotations

import pytest

from roadmnet.design import (
    Design,
    PriorPlacement,
    add_commodity_flow,
    build_design_model,
    extract_design,
    iround,
    source_side_usage,
)
from roadmnet.milp import LinearModel, solve, validate_solution
from roadmnet.topology import (
    CostModel,
    FailureScenario,
    Router,
    Topology,
    TopologyError,
    enumerate_failures,
)

from instances import toy_network

NF = FailureScenario.no_failure()


@pytest.fixture(scope="module")
def toy():
    return toy_network()


def test_no_failure_minimum(toy):
    topology, demands, costs = toy
    dm = build_design_model(topology, demands, [NF], costs)
    result = solve(dm.model)
    assert result.status == "optimal"
    assert result.objective_value == pytest.approx(3.0)
    design = extract_design(dm, result)
    assert design.tail_count == 2
    assert design.regen_count == 1
    assert design.regens_reported["O2"] == 1
    # One launch hop at N1 rides the fresh transponder signal: no device,
    # but it is a hop, so the raw tally runs one higher.
    assert design.total_cost_raw == pytest.approx(4.0)
    assert design.total_cost_reported == pytest.approx(3.0)


def test_all_failures_minimum(toy):
    topology, demands, costs = toy
    dm = build_design_model(topology, demands, enumerate_failures(topology), costs)
    result = solve(dm.model)
    assert result.status == "optimal"
    assert result.objective_value == pytest.approx(6.0)
    design = extract_design(dm, result)
    assert design.tail_count == 4
    assert design.regen_count == 2
    assert {n for n, c in design.regens_reported.items() if c} == {"O2", "O4"}
    assert validate_solution(dm.model, result.values) == []


def test_long_reach_removes_regens(toy):
    topology, demands, costs = toy
    stretched = Topology(
        ip_nodes=topology.ip_nodes,
        optical_nodes=topology.optical_nodes,
        routers=topology.routers,
        spans=topology.spans,
        regen_dist=10000.0,
    )
    dm = build_design_model(
        stretched, demands, enumerate_failures(stretched), costs
    )
    result = solve(dm.model)
    assert result.objective_value == pytest.approx(4.0)
    assert extract_design(dm, result).regen_count == 0


def test_strengthening_preserves_optimum(toy):
    topology, demands, costs = toy
    plain = build_design_model(topology, demands, [NF], costs, strengthen=False)
    assert solve(plain.model).objective_value == pytest.approx(3.0)


def test_prior_covering_everything_costs_nothing(toy):
    topology, demands, costs = toy
    dm = build_design_model(
        topology, demands, enumerate_failures(topology), costs
    )
    base = extract_design(dm, solve(dm.model))
    prior = PriorPlacement(
        tails=base.tails, regens=base.regens_raw, ports=base.ports
    )
    redo = build_design_model(
        topology, demands, enumerate_failures(topology), costs, prior
    )
    result = solve(redo.model)
    assert result.status == "optimal"
    assert result.objective_value == pytest.approx(0.0)


def test_variable_layout(toy):
    topology, demands, costs = toy
    dm = build_design_model(topology, demands, [NF], costs)
    assert set(dm.tail_vars) == {"R1", "R2", "R3", "R4"}
    assert set(dm.regen_vars) == set(topology.all_nodes)
    # Both IP nodes host two routers, so every router gets a port counter.
    assert set(dm.port_vars) == {"R1", "R2", "R3", "R4"}


def test_single_router_node_has_no_port_variable():
    topology, demands, costs = toy_network()
    slim = Topology(
        ip_nodes=topology.ip_nodes,
        optical_nodes=topology.optical_nodes,
        routers=tuple(r for r in topology.routers if r.id not in ("R2",)),
        spans=topology.spans,
        regen_dist=topology.regen_dist,
    )
    dm = build_design_model(slim, demands, [NF], costs)
    assert "R1" not in dm.port_vars
    assert set(dm.port_vars) == {"R3", "R4"}


def test_fixed_design_mode_feasible_and_tight(toy):
    topology, demands, costs = toy
    dm = build_design_model(topology, demands, [NF], costs)
    design = extract_design(dm, solve(dm.model))
    fixed = build_design_model(
        topology, demands, [NF], costs, fixed_design=design
    )
    result = solve(fixed.model)
    assert result.status == "optimal"

    # Starve the budget of its single regen and feasibility must collapse.
    starved = design.__class__(
        tails=design.tails,
        regens_raw={},
        regens_reported={},
        ports=design.ports,
        total_cost_raw=0.0,
        total_cost_reported=0.0,
    )
    broken = build_design_model(
        topology, demands, [NF], costs, fixed_design=starved
    )
    assert solve(broken.model).status == "infeasible"


def test_iround_rejects_fractional_values():
    assert iround(2.0000001, "x") == 2
    with pytest.raises(TopologyError, match="x is not integral"):
        iround(1.5, "x")


def test_source_side_usage_tracks_launch_hops(toy):
    topology, demands, costs = toy
    dm = build_design_model(topology, demands, [NF], costs)
    result = solve(dm.model)
    usage = source_side_usage(dm, result.values)
    # One external link, sourced at the lower-id endpoint's home (N1).
    assert usage.get("N1", 0) == 1
    assert usage.get("N2", 0) == 0


def test_infeasible_single_router_endpoint():
    topology, demands, costs = toy_network()
    lonely = Topology(
        ip_nodes=topology.ip_nodes,
        optical_nodes=topology.optical_nodes,
        routers=tuple(r for r in topology.routers if r.id != "R2"),
        spans=topology.spans,
        regen_dist=topology.regen_dist,
    )
    down = FailureScenario.router_down("R1")
    dm = build_design_model(lonely, demands, [NF, down], costs)
    assert solve(dm.model).status == "infeasible"


# Routers a1 (node A), b1 (node B), c1 and c2 (node C), d1 (node D, no arcs).
FLOW_ROUTERS = tuple(
    Router(rid, rid[0].upper()) for rid in ("a1", "b1", "c1", "c2", "d1")
)
FLOW_ARCS = (("a1", "c1"), ("c1", "b1"), ("c1", "c2"), ("c2", "b1"), ("b1", "a1"))


def test_commodity_flow_balances_only_transit_routers():
    m = LinearModel()
    flows, out_src, in_dst = add_commodity_flow(
        m, "y", FLOW_ARCS, FLOW_ROUTERS, "A", "B"
    )
    assert flows == {arc: f"y_{arc[0]}_{arc[1]}" for arc in FLOW_ARCS}
    assert [v.name for v in m.variables] == list(flows.values())
    rows = [(dict(c.coeffs), c.sense, c.rhs) for c in m.constraints]
    assert rows == [
        ({"y_a1_c1": 1.0, "y_c1_b1": -1.0, "y_c1_c2": -1.0}, "==", 0.0),
        ({"y_c1_c2": 1.0, "y_c2_b1": -1.0}, "==", 0.0),
    ]
    assert out_src == {"y_a1_c1": 1.0, "y_b1_a1": -1.0}
    assert in_dst == {"y_c1_b1": 1.0, "y_c2_b1": 1.0, "y_b1_a1": -1.0}


def test_commodity_flow_endpoint_terms_empty_when_its_router_is_down():
    m = LinearModel()
    alive = tuple(r for r in FLOW_ROUTERS if r.id != "a1")
    _, out_src, in_dst = add_commodity_flow(m, "y", FLOW_ARCS, alive, "A", "B")
    assert out_src == {}
    assert in_dst == {"y_c1_b1": 1.0, "y_c2_b1": 1.0, "y_b1_a1": -1.0}
    assert len(m.constraints) == 2


def test_priced_design_rolls_up_costs_and_status():
    costs = CostModel(tail=2.0, regen=3.0, port=0.5)
    design = Design.priced(
        costs,
        tails={"r1": 1, "r2": 2},
        regens={"n1": 1, "n2": 0},
        ports={"r1": 1, "r2": 0},
        bookkeeping={"n1": 2, "n2": 1},
        statuses=["optimal", "feasible"],
    )
    assert design.total_cost_reported == pytest.approx(2.0 * 3 + 3.0 * 1 + 0.5 * 1)
    assert design.total_cost_raw - design.total_cost_reported == pytest.approx(3.0 * 3)
    assert design.regens_raw == {"n1": 3, "n2": 1}
    assert design.regens_reported == {"n1": 1, "n2": 0}
    assert design.solve_status == "feasible"
    again = Design.priced(costs, {}, {}, {}, {}, ["optimal", "optimal"])
    assert again.solve_status == "optimal"
    assert again.total_cost_raw == again.total_cost_reported == 0.0
