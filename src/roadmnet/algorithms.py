"""Design algorithms: joint optimum, two decomposition heuristics, and a
fixed-lightpath baseline.

All four size the same three resources (tails, regens, ports) against the
same failure set, and each design is the cover of what its failure states use
(``_covering``: elementwise maxima of tails, regens, ports and launch hops,
priced once).  They differ in how much reconfigurability they assume:

* ``design_optimal`` solves one model across every scenario jointly, sharing
  equipment freely between failure states; a state uses what its plan uses.
* ``design_simple`` solves each scenario independently; a state uses its own
  answer.
* ``design_greedy`` walks the scenarios in order, each time buying only what
  the already-accumulated equipment cannot cover; a state uses everything
  owned after it.
* ``design_legacy`` models a network without reconfigurable optics: links are
  bought with their lightpaths and regens permanently attached, and a failed
  link's equipment cannot be repurposed.  The fleet is one usage with no
  launch hops.

All four take ``per_scenario_time_limit``, seconds per failure state (None:
no limit).  Every solve over one failure state gets it, ``design_optimal``'s
follow-up ``operate`` and diagnosis solves included; the joint model gets it
once per failure state it covers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .design import (
    Design,
    InfeasibleDesignError,
    PriorPlacement,
    add_routing,
    build_design_model,
    check_solve,
    extract_design,
    iround,
)
from .milp import LinearModel, solve
from .operation import OperationPlan, operate, surviving_link_caps
from .topology import (
    REACH_EPS,
    CostModel,
    DemandMatrix,
    FailureScenario,
    SpanKey,
    Topology,
    alive_routers,
    enumerate_failures,
    shortest_path,
    span_key,
)


def _scenario_list(
    topology: Topology, scenarios: Sequence[FailureScenario] | None
) -> list[FailureScenario]:
    return list(scenarios) if scenarios is not None else enumerate_failures(topology)


def _covering(
    topology: Topology,
    costs: CostModel,
    usages: Iterable[Sequence[Mapping[str, int]]],
    statuses: Iterable[str],
) -> Design:
    """Tightest placement covering every (tails, regens, ports, launches)
    usage, as ``OperationPlan.usage`` counts them: elementwise maxima, priced.
    Every router and node gets a count, zero when unused."""
    routers, nodes = [r.id for r in topology.routers], topology.all_nodes
    counts = [dict.fromkeys(keys, 0) for keys in (routers, nodes, routers, nodes)]
    for usage in usages:
        for count, used in zip(counts, usage):
            for key, units in used.items():
                count[key] = max(count[key], units)
    return Design.priced(costs, *counts, statuses)


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
    design = _covering(
        topology, costs, (plan.usage() for plan in plans.values()), [result.status]
    )
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
    """Solve each scenario on its own and cover what each state uses.

    With ``accumulate`` each solve gets everything owned so far as a free
    prior and a state uses what is owned after it (prior plus purchases), so
    the cover is the sum of purchases; otherwise each state uses its own
    answer.  Launch hops are each answer's raw minus reported regens.
    """
    owned: tuple[dict[str, int], ...] = ({}, {}, {})
    usages, statuses = [], []
    for scen in _scenario_list(topology, scenarios):
        prior = PriorPlacement(*owned) if accumulate else None
        dm = build_design_model(topology, demands, [scen], costs, prior)
        result = solve(dm.model, time_limit)
        check_solve(result, scen)
        part = extract_design(dm, result)
        statuses.append(result.status)
        used = (part.tails, part.regens_reported, part.ports)
        if accumulate:
            used = owned = tuple(
                {key: have.get(key, 0) + units for key, units in bought.items()}
                for have, bought in zip(owned, used)
            )
        launches = {n: part.regens_raw[n] - units
                    for n, units in part.regens_reported.items()}
        usages.append((*used, launches))
    return _covering(topology, costs, usages, statuses)


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


def legacy_plan(topology: Topology, fleet: Iterable[LegacyLink]) -> OperationPlan:
    """The owned legacy fleet as a no-failure plan (same-pair purchases merged).

    A plan's chains and span paths run from ``home(a)``; a link walked from
    ``home(b)`` has its spans and regens written in reverse.
    """
    caps: dict[tuple[str, str], int] = defaultdict(int)
    chains: dict[tuple[str, str], tuple[tuple[str, ...], ...]] = defaultdict(tuple)
    paths: dict[tuple[str, str], tuple[tuple[SpanKey, ...], ...]] = defaultdict(tuple)
    for link in fleet:
        key = (link.a, link.b)
        caps[key] += link.units
        if not link.intra:
            step = 1 if link.path[0] == topology.home(link.a) else -1
            chains[key] += (link.regens[::step],) * link.units
            paths[key] += (link.spans[::step],) * link.units
    return OperationPlan(
        topology=topology,
        scenario=FailureScenario.no_failure(),
        link_caps={**caps, **{(b, a): units for (a, b), units in caps.items()}},
        flows={},
        regen_chains=dict(chains),
        span_paths=dict(paths),
    )


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
    later failure by the rule transient rating applies
    (``operation.surviving_link_caps``): its endpoints are alive and its
    recorded route avoids the cut.  Each step solves a small model choosing
    the cheapest set of new links that, together with the surviving ones,
    routes all demands.  Equipment of a down link is stranded, never
    repurposed, and the fleet needs no launch hops (raw equals reported).
    """
    scens = _scenario_list(topology, scenarios)
    owned: list[LegacyLink] = []
    statuses: list[str] = []
    for scen in scens:
        alive = alive_routers(topology, scen)
        surviving = surviving_link_caps(topology, legacy_plan(topology, owned), scen)

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
        # Each direction of a link fits its surviving units plus those bought
        # (``surviving`` holds both directions, ``candidates`` the sorted one).
        arcs: dict[tuple[str, str], tuple[str | None, float]] = {}
        for u, v in sorted(set(surviving) | set(candidates)):
            if u > v:
                continue
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

    tails, regens, ports, _ = legacy_plan(topology, owned).usage()
    design = _covering(topology, costs, [(tails, regens, ports, {})], statuses)
    return design, tuple(owned)
