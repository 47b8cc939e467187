from __future__ import annotations

import hashlib
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadmnet import algorithms
from roadmnet import (
    Design,
    FailureScenario,
    InfeasibleDesignError,
    NoIncumbentError,
    PriorPlacement,
    Topology,
    build_design_model,
    check_flow_conservation,
    check_plan_within_design,
    design_greedy,
    design_legacy,
    design_optimal,
    design_simple,
    enumerate_failures,
    extract_design,
)
from roadmnet.design import source_side_usage
from roadmnet.milp import solve

from instances import MICRO_SEEDS, grid_network, micro_instance, toy_network

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


@pytest.mark.parametrize("name", ["optimal", "simple", "greedy", "legacy"])
def test_infeasible_when_only_router_dies(name):
    topology, demands, costs = toy_network()
    lonely = Topology(
        ip_nodes=topology.ip_nodes,
        optical_nodes=topology.optical_nodes,
        routers=tuple(r for r in topology.routers if r.id != "R2"),
        spans=topology.spans,
        regen_dist=topology.regen_dist,
    )
    with pytest.raises(InfeasibleDesignError) as info:
        getattr(algorithms, f"design_{name}")(lonely, demands, costs)
    assert info.value.scenario == FailureScenario.router_down("R1")
    assert str(info.value) == "no placement can serve router:R1"


def test_no_incumbent_when_budget_exhausted(toy_inputs):
    topology, demands, costs = toy_inputs
    with pytest.raises(NoIncumbentError):
        design_optimal(topology, demands, costs, per_scenario_time_limit=0.0)


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


def test_legacy_finds_each_walk_once_per_failure_state(monkeypatch):
    # Routers at n22 come first, so walks run from the larger node name.
    topology, demands, costs = grid_network(3, 3, ((2, 2), (0, 0)))
    real, walks = algorithms.shortest_path, []

    def counting(topology, scenario, src, dst):
        walks.append((scenario, src, dst))
        return real(topology, scenario, src, dst)

    monkeypatch.setattr(algorithms, "shortest_path", counting)
    result = design_legacy(topology, demands, costs)
    pairs = sum(a.node != b.node for a in topology.routers for b in topology.routers) // 2
    assert len(walks) == len(set(walks)) < pairs * len(enumerate_failures(topology))
    # The design and fleet one shortest_path call per router pair gave.
    digest = hashlib.sha256(repr(result).encode()).hexdigest()
    assert digest == "402f3612434a90c15b69fbf2e645ca42e8b6b28ef55ad0827ca5a05aa3a11b7c"


# ---------------------------------------------------------------------------
# Cost roll-ups, recomputed from public calls
# ---------------------------------------------------------------------------


def _zero_counts(topology):
    """Zeroed tails, regens, ports and launch hops, as a Design writes them."""
    routers = [r.id for r in topology.routers]
    nodes = list(topology.all_nodes)
    return (dict.fromkeys(routers, 0), dict.fromkeys(nodes, 0),
            dict.fromkeys(routers, 0), dict.fromkeys(nodes, 0))


def _raise_counts(counts, usage):
    for key, used in usage.items():
        counts[key] = max(counts[key], used)


def _per_state_rollup(topology, demands, costs, *, accumulate):
    """Simple: the per-site max of one-state answers.  Greedy: the sum of
    purchases, each state solved with everything bought so far as a prior.
    Launch hops are the per-node max of ``source_side_usage`` either way."""
    tails, regens, ports, launches = _zero_counts(topology)
    statuses = []
    for scen in enumerate_failures(topology):
        prior = PriorPlacement(dict(tails), dict(regens), dict(ports)) if accumulate else None
        dm = build_design_model(topology, demands, [scen], costs, prior)
        result = solve(dm.model)
        part = extract_design(dm, result)
        statuses.append(result.status)
        for counts, bought in ((tails, part.tails), (regens, part.regens_reported),
                               (ports, part.ports)):
            for key, units in bought.items():
                counts[key] = counts[key] + units if accumulate else max(counts[key], units)
        _raise_counts(launches, source_side_usage(dm, result.values))
    return Design.priced(costs, tails, regens, ports, launches, statuses)


def _plans_rollup(topology, costs, plans, status):
    """The per-site max of what each plan's links and regen chains use."""
    tails, regens, ports, launches = _zero_counts(topology)
    for plan in plans.values():
        used = [defaultdict(int) for _ in range(4)]
        for (a, b), units in plan.link_caps.items():
            if a > b:
                continue
            if topology.home(a) == topology.home(b):
                used[2][a] += units
                used[2][b] += units
            else:
                used[0][a] += units
                used[0][b] += units
                used[3][topology.home(a)] += units
        for chains in plan.regen_chains.values():
            for chain in chains:
                for node in chain:
                    used[1][node] += 1
        for counts, usage in zip((tails, regens, ports, launches), used):
            _raise_counts(counts, usage)
    return Design.priced(costs, tails, regens, ports, launches, [status])


def _fleet_rollup(topology, costs, fleet, status):
    """Every bought legacy link's tails or ports and regens, no launch hops."""
    tails, regens, ports, _ = _zero_counts(topology)
    for link in fleet:
        ends = ports if link.intra else tails
        ends[link.a] += link.units
        ends[link.b] += link.units
        for node in link.regens:
            regens[node] += link.units
    return Design.priced(costs, tails, regens, ports, {}, [status])


def _assert_rollups(topology, demands, costs):
    """Each algorithm's Design equals its roll-up recomputed here (an
    algorithm that finds no design is skipped)."""
    answered = 0
    try:
        design, plans = design_optimal(topology, demands, costs)
    except InfeasibleDesignError:
        pass
    else:
        answered += 1
        assert design == _plans_rollup(topology, costs, plans, design.solve_status)
    for accumulate, algorithm in ((False, design_simple), (True, design_greedy)):
        try:
            design = algorithm(topology, demands, costs)
        except InfeasibleDesignError:
            continue
        answered += 1
        assert design == _per_state_rollup(topology, demands, costs,
                                           accumulate=accumulate)
    try:
        design, fleet = design_legacy(topology, demands, costs)
    except InfeasibleDesignError:
        pass
    else:
        answered += 1
        assert design == _fleet_rollup(topology, costs, fleet, design.solve_status)
    return answered


class TestRollupDifferential:
    @pytest.mark.parametrize("inputs", ["toy_inputs", "grid_inputs"])
    def test_fixtures(self, inputs, request):
        assert _assert_rollups(*request.getfixturevalue(inputs)) == 4

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(min_value=max(MICRO_SEEDS) + 1, max_value=2**32))
    def test_random_networks(self, seed):
        _assert_rollups(*micro_instance(seed))
