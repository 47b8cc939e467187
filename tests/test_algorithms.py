from __future__ import annotations

import pytest

from roadmnet import (
    FailureScenario,
    InfeasibleDesignError,
    NoIncumbentError,
    Topology,
    check_flow_conservation,
    check_plan_within_design,
    design_greedy,
    design_legacy,
    design_optimal,
    design_simple,
    enumerate_failures,
)

from instances import toy_network

NF = FailureScenario.no_failure()


def test_optimal_toy_placement(toy_inputs, toy_optimal):
    topology, demands, _ = toy_inputs
    design, plans = toy_optimal
    assert design.solve_status == "optimal"
    assert design.total_cost_reported == pytest.approx(6.0)
    assert design.total_cost_raw == pytest.approx(7.0)
    assert design.tails == {"R1": 1, "R2": 1, "R3": 1, "R4": 1}
    assert {n for n, c in design.regens_reported.items() if c} == {"O2", "O4"}
    assert design.port_count == 0
    assert len(plans) == len(enumerate_failures(topology))


def test_optimal_plans_are_clean(toy_inputs, toy_optimal):
    _, demands, _ = toy_inputs
    design, plans = toy_optimal
    for scenario, plan in plans.items():
        assert plan.scenario == scenario
        assert check_flow_conservation(plan, demands) == []
        assert check_plan_within_design(plan, design, demands) == []


def test_single_scenario_collapse(toy_inputs):
    """With only one failure state there is nothing to hedge across."""
    topology, demands, costs = toy_inputs
    opt, _ = design_optimal(topology, demands, costs, scenarios=[NF])
    sim = design_simple(topology, demands, costs, scenarios=[NF])
    gre = design_greedy(topology, demands, costs, scenarios=[NF])
    assert opt.total_cost_reported == pytest.approx(3.0)
    assert sim.total_cost_reported == pytest.approx(3.0)
    assert gre.total_cost_reported == pytest.approx(3.0)


def test_simple_toy(toy_designs):
    design = toy_designs["simple"]
    assert design.total_cost_reported == pytest.approx(6.0)
    assert design.tail_count == 4
    assert {n: c for n, c in design.regens_reported.items() if c} == {
        "O2": 1,
        "O4": 1,
    }


def test_greedy_toy(toy_designs):
    design = toy_designs["greedy"]
    assert design.total_cost_reported == pytest.approx(6.0)
    assert design.tail_count == 4
    assert {n: c for n, c in design.regens_reported.items() if c} == {
        "O2": 1,
        "O4": 1,
    }


def test_heuristics_never_beat_optimal(toy_designs, grid_designs):
    for designs in (toy_designs, grid_designs):
        opt = designs["optimal"].total_cost_reported
        assert designs["simple"].total_cost_reported >= opt - 1e-9
        assert designs["greedy"].total_cost_reported >= opt - 1e-9


def test_legacy_pays_for_rigidity(toy_inputs, toy_designs):
    """Stranded equipment makes the fixed-link baseline strictly costlier."""
    legacy = toy_designs["legacy"]
    assert (
        legacy.total_cost_reported
        > toy_designs["optimal"].total_cost_reported + 1e-9
    )
    # Without runtime remapping there is no free launch bookkeeping either.
    assert legacy.regens_raw == legacy.regens_reported


@pytest.mark.parametrize("name", ["optimal", "simple", "greedy", "legacy"])
def test_raw_cost_adds_only_bookkeeping_hops(toy_inputs, grid_inputs, toy_designs,
                                            grid_designs, name):
    for (_, _, costs), designs in ((toy_inputs, toy_designs), (grid_inputs, grid_designs)):
        design = designs[name]
        bookkeeping = sum(design.regens_raw.values()) - sum(design.regens_reported.values())
        assert design.total_cost_raw - design.total_cost_reported == pytest.approx(
            costs.regen * bookkeeping
        )
        if name == "legacy":
            assert design.regens_raw == design.regens_reported
            assert design.total_cost_raw == design.total_cost_reported
        else:
            assert bookkeeping > 0


def test_legacy_fleet_structure(toy_inputs):
    from roadmnet.verify import check_regen_feasible_path

    topology, demands, costs = toy_inputs
    design, fleet = design_legacy(topology, demands, costs)
    assert fleet, "the baseline must own at least one link"
    tails = 0
    for link in fleet:
        assert link.units >= 1
        if link.intra:
            assert link.path == () and link.regens == () and link.spans == ()
            continue
        tails += 2 * link.units
        assert link.path[0] == topology.home(link.a)
        assert link.path[-1] == topology.home(link.b)
        assert len(link.spans) == len(link.path) - 1
        assert check_regen_feasible_path(topology, NF, link.path, link.regens)
    assert design.tail_count == tails


def test_adding_scenarios_never_cheapens(toy_inputs):
    topology, demands, costs = toy_inputs
    scens = enumerate_failures(topology)
    last = 0.0
    for upto in (1, 5, 9, len(scens)):
        design, _ = design_optimal(topology, demands, costs, scenarios=scens[:upto])
        cost = design.total_cost_reported
        assert cost >= last - 1e-9
        last = cost
    assert last == pytest.approx(6.0)


def test_infeasible_when_only_router_dies():
    topology, demands, costs = toy_network()
    lonely = Topology(
        ip_nodes=topology.ip_nodes,
        optical_nodes=topology.optical_nodes,
        routers=tuple(r for r in topology.routers if r.id != "R2"),
        spans=topology.spans,
        regen_dist=topology.regen_dist,
    )
    with pytest.raises(InfeasibleDesignError) as info:
        design_optimal(lonely, demands, costs)
    assert info.value.scenario is not None
    assert info.value.scenario.kind == "router"
    assert info.value.scenario.target == "R1"


def test_no_incumbent_when_budget_exhausted(toy_inputs):
    topology, demands, costs = toy_inputs
    with pytest.raises(NoIncumbentError):
        design_optimal(topology, demands, costs, time_limit=0.0)


def test_greedy_accumulates_instead_of_rebuying(toy_inputs):
    """Reordering scenarios must not inflate greedy past the per-scenario sum."""
    topology, demands, costs = toy_inputs
    scens = enumerate_failures(topology)
    forward = design_greedy(topology, demands, costs, scenarios=scens)
    reordered = design_greedy(
        topology, demands, costs, scenarios=[scens[0], *reversed(scens[1:])]
    )
    ceiling = sum(
        design_simple(topology, demands, costs, scenarios=[s]).total_cost_reported
        for s in scens
    )
    assert forward.total_cost_reported <= ceiling + 1e-9
    assert reordered.total_cost_reported <= ceiling + 1e-9
