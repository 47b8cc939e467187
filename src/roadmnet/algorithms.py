"""Design algorithms: joint optimum, two decomposition heuristics, and a
fixed-lightpath baseline.

All four size the same three resources (tails, regens, ports) against the
same failure set, but differ in how much reconfigurability they assume:

* ``design_optimal`` solves one model across every scenario jointly, sharing
  equipment freely between failure states.
* ``design_simple`` solves each scenario independently and keeps the
  elementwise maximum of the resulting placements.
* ``design_greedy`` walks the scenarios in order, each time buying only what
  the already-accumulated equipment cannot cover.
* ``design_legacy`` models a network without reconfigurable optics: links are
  bought with their lightpaths and regens permanently attached, and a failed
  link's equipment cannot be repurposed.

All four take ``per_scenario_time_limit``, seconds per failure state (None:
no limit).  Every solve over one failure state gets it, ``design_optimal``'s
follow-up ``operate`` and diagnosis solves included; the joint model gets it
once per failure state it covers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

from .design import (
    Design,
    InfeasibleDesignError,
    PriorPlacement,
    add_routing,
    build_design_model,
    check_solve,
    extract_design,
    iround,
    source_side_usage,
)
from .milp import LinearModel, solve
from .operation import OperationPlan, operate
from .topology import (
    REACH_EPS,
    CostModel,
    DemandMatrix,
    FailureScenario,
    SpanKey,
    Topology,
    alive_routers,
    dead_routers,
    enumerate_failures,
    shortest_path,
    span_key,
)


def _scenario_list(
    topology: Topology, scenarios: Sequence[FailureScenario] | None
) -> list[FailureScenario]:
    return list(scenarios) if scenarios is not None else enumerate_failures(topology)


def _raise_to(counts: dict[str, int], usage: Mapping[str, int]) -> None:
    """Lift each count to at least the matching usage."""
    for key, used in usage.items():
        counts[key] = max(counts[key], used)


def _diagnose_infeasible(
    topology: Topology,
    demands: DemandMatrix,
    costs: CostModel,
    scenarios: Sequence[FailureScenario],
    time_limit: float | None,
) -> FailureScenario | None:
    """Find one scenario that is infeasible on its own, for a sharp error."""
    for scen in scenarios:
        dm = build_design_model(topology, demands, [scen], costs)
        if solve(dm.model, time_limit).status == "infeasible":
            return scen
    return None


def _design_from_plans(
    topology: Topology,
    costs: CostModel,
    plans: dict[FailureScenario, OperationPlan],
    status: str,
) -> Design:
    """Tightest placement covering every plan: elementwise usage maxima."""
    tails = {r.id: 0 for r in topology.routers}
    reported = {n: 0 for n in topology.all_nodes}
    ports = {r.id: 0 for r in topology.routers}
    bookkeeping = {n: 0 for n in topology.all_nodes}
    for plan in plans.values():
        _raise_to(tails, plan.tail_usage())
        _raise_to(ports, plan.port_usage())
        _raise_to(reported, plan.regen_usage())
        _raise_to(bookkeeping, plan.bookkeeping_usage())
    return Design.priced(costs, tails, reported, ports, bookkeeping, [status])


def design_optimal(
    topology: Topology,
    demands: DemandMatrix,
    costs: CostModel,
    per_scenario_time_limit: float | None = None,
    scenarios: Sequence[FailureScenario] | None = None,
) -> tuple[Design, dict[FailureScenario, OperationPlan]]:
    """Jointly optimal placement over all scenarios, with one plan each.

    The returned plans are the cheapest per-scenario operations of the
    placement (fewest link units, then regens), and the placement itself is
    re-tightened to exactly what those plans use, so zero-cost resources
    never carry arbitrary slack.

    Raises:
        InfeasibleDesignError: some scenario cannot be served at all (the
            exception names one such scenario when it can be isolated).
        NoIncumbentError: time limit expired before any placement was found.
    """
    scens = _scenario_list(topology, scenarios)
    dm = build_design_model(topology, demands, scens, costs)
    limit = per_scenario_time_limit
    result = solve(dm.model, None if limit is None else limit * len(scens))
    if result.status == "infeasible":
        bad = _diagnose_infeasible(topology, demands, costs, scens, limit)
        hint = bad.label() if bad else "joint model"
        raise InfeasibleDesignError(f"no placement can serve {hint}", bad)
    check_solve(result, None)
    rough = extract_design(dm, result)
    plans = {scen: operate(topology, demands, rough, scen, limit) for scen in scens}
    design = _design_from_plans(topology, costs, plans, result.status)
    return design, plans


def _per_scenario_design(
    topology: Topology,
    demands: DemandMatrix,
    costs: CostModel,
    time_limit: float | None,
    scenarios: Sequence[FailureScenario] | None,
    *,
    accumulate: bool,
) -> Design:
    """Solve each scenario on its own and combine the placements.

    With ``accumulate`` each solve gets everything bought so far as a free
    prior and the purchases are summed; otherwise the solves are independent
    and the elementwise maximum is kept.
    """
    tails = {r.id: 0 for r in topology.routers}
    regens = {n: 0 for n in topology.all_nodes}
    ports = {r.id: 0 for r in topology.routers}
    bookkeeping = {n: 0 for n in topology.all_nodes}
    statuses: list[str] = []
    for scen in _scenario_list(topology, scenarios):
        prior = PriorPlacement(dict(tails), dict(regens), dict(ports)) if accumulate else None
        dm = build_design_model(topology, demands, [scen], costs, prior)
        result = solve(dm.model, time_limit)
        check_solve(result, scen)
        part = extract_design(dm, result)
        statuses.append(result.status)
        for counts, usage in (
            (tails, part.tails),
            (regens, part.regens_reported),
            (ports, part.ports),
        ):
            for key, used in usage.items():
                counts[key] = counts[key] + used if accumulate else max(counts[key], used)
        _raise_to(bookkeeping, source_side_usage(dm, result.values))
    return Design.priced(costs, tails, regens, ports, bookkeeping, statuses)


def design_simple(
    topology: Topology,
    demands: DemandMatrix,
    costs: CostModel,
    per_scenario_time_limit: float | None = None,
    scenarios: Sequence[FailureScenario] | None = None,
) -> Design:
    """Independent per-scenario optima, aggregated by elementwise maximum.

    Each scenario is solved on its own (the solves are independent and could
    run concurrently); the final placement takes the maximum of every count
    across scenarios, which over-buys exactly where scenarios disagree.
    """
    return _per_scenario_design(
        topology, demands, costs, per_scenario_time_limit, scenarios,
        accumulate=False,
    )


def design_greedy(
    topology: Topology,
    demands: DemandMatrix,
    costs: CostModel,
    per_scenario_time_limit: float | None = None,
    scenarios: Sequence[FailureScenario] | None = None,
) -> Design:
    """Scenario-by-scenario accumulation: each solve reuses everything bought
    so far for free and buys only the shortfall."""
    return _per_scenario_design(
        topology, demands, costs, per_scenario_time_limit, scenarios,
        accumulate=True,
    )


@dataclass(frozen=True)
class LegacyLink:
    """A bought link whose lightpath and regens are permanently attached.

    ``path`` / ``regens`` / ``spans`` are empty for intra-node (port) links.
    """

    a: str
    b: str
    units: int
    path: tuple[str, ...]
    regens: tuple[str, ...]
    spans: tuple[SpanKey, ...]

    @property
    def intra(self) -> bool:
        return not self.path


def _farthest_reach_regens(
    topology: Topology, walk: Sequence[str]
) -> tuple[str, ...] | None:
    """Regen sites along a fixed walk, each placed as late as reach allows.

    Returns None when a single span already exceeds reach.
    """
    limit = topology.regen_dist + REACH_EPS
    pos = [0.0]
    for u, v in zip(walk, walk[1:]):
        span = topology.span_by_key[span_key(u, v)]
        pos.append(pos[-1] + span.miles)
    regens: list[str] = []
    anchor = 0.0
    for i in range(1, len(walk)):
        if pos[i] - anchor > limit:
            if pos[i - 1] <= anchor + REACH_EPS:
                return None  # one span alone is too long
            regens.append(walk[i - 1])
            anchor = pos[i - 1]
            if pos[i] - anchor > limit:
                return None
    return tuple(regens)


def design_legacy(
    topology: Topology,
    demands: DemandMatrix,
    costs: CostModel,
    per_scenario_time_limit: float | None = None,
    scenarios: Sequence[FailureScenario] | None = None,
) -> tuple[Design, tuple[LegacyLink, ...]]:
    """Baseline without reconfigurable optics.

    Scenario by scenario, links are bought on the shortest surviving fiber
    route with regens attached by farthest reach; a bought link survives a
    later failure only if its endpoints are alive and its recorded route
    avoids the cut.  Each step solves a small model choosing the cheapest
    set of new links that, together with the surviving ones, routes all
    demands.  Equipment of a down link is stranded, never repurposed.
    """
    scens = _scenario_list(topology, scenarios)
    owned: list[LegacyLink] = []
    statuses: list[str] = []
    for scen in scens:
        dead = dead_routers(topology, scen)
        alive = alive_routers(topology, scen)
        cut = scen.target if scen.kind == "span" else None

        surviving: dict[tuple[str, str], int] = defaultdict(int)
        for link in owned:
            if link.a in dead or link.b in dead:
                continue
            if cut is not None and cut in link.spans:
                continue
            surviving[(link.a, link.b)] += link.units

        candidates: dict[tuple[str, str], tuple[float, LegacyLink]] = {}
        walks: dict[tuple[str, str], tuple[str, ...] | None] = {}  # per pair of nodes
        for i, a in enumerate(alive):
            for b in alive[i + 1:]:
                key = (a.id, b.id) if a.id < b.id else (b.id, a.id)
                if a.node == b.node:
                    proto = LegacyLink(key[0], key[1], 1, (), (), ())
                    candidates[key] = (2.0 * costs.port, proto)
                    continue
                if (a.node, b.node) not in walks:
                    walks[(a.node, b.node)] = shortest_path(topology, scen, a.node, b.node)
                walk = walks[(a.node, b.node)]
                if walk is None:
                    continue
                regens = _farthest_reach_regens(topology, walk)
                if regens is None:
                    continue
                spans = tuple(span_key(u, v) for u, v in zip(walk, walk[1:]))
                proto = LegacyLink(key[0], key[1], 1, tuple(walk), regens, spans)
                price = 2.0 * costs.tail + costs.regen * len(regens)
                candidates[key] = (price, proto)

        m = LinearModel(f"legacy_{scen.label()}")
        buy_vars: dict[tuple[str, str], str] = {}
        for key in sorted(candidates):
            buy_vars[key] = m.add_variable(f"buy_{key[0]}_{key[1]}", integer=True)
        # Each direction of a link fits its surviving units plus those bought.
        arcs: dict[tuple[str, str], tuple[str | None, float]] = {}
        for u, v in sorted(set(surviving) | set(candidates)):
            capacity = (buy_vars.get((u, v)), float(surviving.get((u, v), 0)))
            arcs[(u, v)] = arcs[(v, u)] = capacity
        add_routing(m, "f0", arcs, alive, demands)
        m.set_objective(
            {name: candidates[key][0] for key, name in buy_vars.items()}
        )
        result = solve(m, per_scenario_time_limit)
        check_solve(result, scen)
        statuses.append(result.status)
        for key, name in buy_vars.items():
            units = iround(result.values.get(name, 0.0), name)
            if units > 0:
                proto = candidates[key][1]
                owned.append(
                    LegacyLink(proto.a, proto.b, units, proto.path,
                               proto.regens, proto.spans)
                )

    tails = {r.id: 0 for r in topology.routers}
    regens = {n: 0 for n in topology.all_nodes}
    ports = {r.id: 0 for r in topology.routers}
    for link in owned:
        if link.intra:
            ports[link.a] += link.units
            ports[link.b] += link.units
        else:
            tails[link.a] += link.units
            tails[link.b] += link.units
            for node in link.regens:
                regens[node] += link.units
    return Design.priced(costs, tails, regens, ports, {}, statuses), tuple(owned)
