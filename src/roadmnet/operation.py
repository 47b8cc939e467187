"""Operating a finished design: per-failure plans and transient throughput.

An OperationPlan says, for one failure state, which router-to-router link
units exist, where each unit's signal is regenerated, which fiber spans it
rides, and how demand flows over the links.  ``operate`` computes the minimal
such plan for a fixed design; ``evaluate_transient`` measures how much traffic
the surviving no-failure links can still carry in the window before any
replanning happens.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .design import (
    Design,
    DesignModel,
    _key,
    add_routing,
    build_design_model,
    check_solve,
    iround,
)
from .milp import LinearModel, solve
from .topology import (
    REACH_EPS,
    CostModel,
    DemandMatrix,
    FailureScenario,
    SpanKey,
    Topology,
    TopologyError,
    alive_routers,
    dead_routers,
    shortest_path,
    span_key,
    validate_scenario,
)


@dataclass(frozen=True)
class LinkRecord:
    """One provisioned link: endpoints, units, and per-unit optical detail."""

    a: str
    b: str
    units: int
    regen_chains: tuple[tuple[str, ...], ...]
    span_paths: tuple[tuple[SpanKey, ...], ...]


@dataclass(frozen=True)
class OperationPlan:
    """One failure state's link, regen and routing assignment.

    link_caps holds ordered router pairs (both orientations, equal units);
    colocated pairs are port-based intra-node links.  regen_chains and
    span_paths are keyed by the canonical (smaller id first) pair of each
    external link and hold one entry per capacity unit, aligned by index.
    Chains list physical regen sites only -- the launch at the source node is
    free and not a chain member.
    """

    topology: Topology
    scenario: FailureScenario
    link_caps: dict[tuple[str, str], int]
    flows: dict[tuple[str, str, str, str], float]
    regen_chains: dict[tuple[str, str], tuple[tuple[str, ...], ...]]
    span_paths: dict[tuple[str, str], tuple[tuple[SpanKey, ...], ...]]

    @classmethod
    def from_links(
        cls,
        topology: Topology,
        scenario: FailureScenario,
        links: Iterable[LinkRecord],
        flows: Mapping[tuple[str, str, str, str], float],
    ) -> OperationPlan:
        """The plan of canonical link records (a < b, one per pair): each
        record's units in both orientations, and an external link's regen
        chains and span paths under (a, b)."""
        plan = cls(topology, scenario, {}, dict(flows), {}, {})
        for rec in links:
            plan.link_caps[(rec.a, rec.b)] = plan.link_caps[(rec.b, rec.a)] = rec.units
            if not plan.is_intra(rec.a, rec.b):
                plan.regen_chains[(rec.a, rec.b)] = rec.regen_chains
                plan.span_paths[(rec.a, rec.b)] = rec.span_paths
        return plan

    def canonical_links(self) -> list[tuple[str, str, int]]:
        """(a, b, units) per unordered pair with capacity, a < b."""
        out = []
        for (a, b), units in sorted(self.link_caps.items()):
            if a < b and units > 0:
                out.append((a, b, units))
        return out

    def is_intra(self, a: str, b: str) -> bool:
        return self.topology.home(a) == self.topology.home(b)

    def usage(self) -> tuple[dict[str, int], ...]:
        """(tails, regens, ports, launches) used, as ``Design.covering`` takes them:
        tails and ports per router, one a unit at each end of an external or
        intra-node link; physical regens per node across all chains; and launch
        hops per source node, which need no physical regen."""
        tails, regens, ports, launches = (defaultdict(int) for _ in range(4))
        for a, b, units in self.canonical_links():
            if self.is_intra(a, b):
                ports[a] += units
                ports[b] += units
            else:
                tails[a] += units
                tails[b] += units
                launches[self.topology.home(a)] += units
        for chains in self.regen_chains.values():
            for chain in chains:
                for node in chain:
                    regens[node] += 1
        return dict(tails), dict(regens), dict(ports), dict(launches)


@dataclass(frozen=True)
class TransientReport:
    """Deliverable volume over the surviving pre-failure links."""

    scenario: FailureScenario
    offered: float
    delivered: float
    fraction: float
    surviving_caps: dict[tuple[str, str], int]


def expand_link_path(
    topology: Topology,
    scenario: FailureScenario,
    link: tuple[str, str],
    chain: Sequence[str],
) -> tuple[SpanKey, ...]:
    """Concrete fiber route of a link: spans from source node through each
    regen site to the destination node.

    Each leg follows the shortest surviving span walk (lexicographic node
    order on ties) and must stay within optical reach.

    Raises:
        TopologyError: if a leg is disconnected or exceeds ``regen_dist``.
    """
    a, b = link
    waypoints = [topology.home(a), *chain, topology.home(b)]
    spans: list[SpanKey] = []
    limit = topology.regen_dist + REACH_EPS
    for u, v in zip(waypoints, waypoints[1:]):
        walk = shortest_path(topology, scenario, u, v)
        if walk is None:
            raise TopologyError(
                f"link {a}-{b}: no surviving fiber between {u} and {v}"
            )
        length = 0.0
        for x, y in zip(walk, walk[1:]):
            span = topology.span_by_key[span_key(x, y)]
            length += span.miles
            spans.append(span.key)
        if length > limit:
            raise TopologyError(
                f"link {a}-{b}: leg {u}->{v} runs {length:g} miles, "
                f"beyond reach {topology.regen_dist:g}"
            )
    return tuple(spans)


def _unit_chains(
    hop_counts: Mapping[tuple[str, str], int], src: str, dst: str, units: int
) -> tuple[tuple[str, ...], ...]:
    """Split integer hop counts into per-unit relay node sequences.

    Walks from the source following the lexicographically smallest available
    next hop; relay contiguity guarantees each walk reaches the destination.
    """
    remaining = {k: v for k, v in hop_counts.items() if v > 0}
    chains: list[tuple[str, ...]] = []
    for _ in range(units):
        cur = src
        path: list[str] = []
        while cur != dst:  # each step spends a hop, so the walk ends
            nxt = min(
                (v for (u, v), c in remaining.items() if u == cur and c > 0),
                default=None,
            )
            if nxt is None:
                raise TopologyError(
                    f"relay hops for {src}->{dst} do not decompose into "
                    f"{units} unit chains"
                )
            remaining[(cur, nxt)] -= 1
            path.append(nxt)
            cur = nxt
        chains.append(tuple(path[:-1]))  # drop the destination node
    return tuple(chains)


def extract_plan(dm: DesignModel, values: Mapping[str, float], fi: int) -> OperationPlan:
    """Read scenario ``fi``'s link/chain/flow assignment out of a solution."""
    topology = dm.topology
    blk = dm.blocks[fi]
    scenario = blk.scenario

    def units_of(name: str) -> int:
        return iround(values.get(name, 0.0), name)

    flows: dict[tuple[str, str, str, str], float] = {}
    for (s, t), fvars in blk.flows.items():
        for (a, b), name in fvars.items():
            v = float(values.get(name, 0.0))
            if v > 1e-9:
                flows[(s, t, a, b)] = v

    # The sym_* rows make each reverse column equal to its canonical one.
    links = []
    for (a, b), name in (*blk.caps.items(), *blk.intra.items()):
        units = units_of(name) if a < b else 0
        if not units:
            continue
        chains = paths = ()
        if (a, b) in blk.hops:  # an external link
            hop_counts = {uv: units_of(h) for uv, h in blk.hops[(a, b)].items()}
            chains = _unit_chains(hop_counts, topology.home(a), topology.home(b), units)
            paths = tuple(
                expand_link_path(topology, scenario, (a, b), chain) for chain in chains
            )
        links.append(LinkRecord(a, b, units, chains, paths))
    return OperationPlan.from_links(topology, scenario, links, flows)


def operate(
    topology: Topology,
    demands: DemandMatrix,
    design: Design,
    scenario: FailureScenario,
    time_limit: float | None = None,
) -> OperationPlan:
    """Cheapest feasible operation of ``design`` under one failure state.

    Minimizes link units, then regen hops, then total flow, within the
    design's tail/regen/port budgets.

    Raises:
        InfeasibleDesignError: the design cannot serve the demands here.
        NoIncumbentError: the time limit expired before a plan was found.
    """
    dm = build_design_model(
        topology,
        demands,
        [scenario],
        CostModel(0.0, 0.0, 0.0),
        fixed_design=design,
    )
    result = solve(dm.model, time_limit)
    check_solve(result, scenario, "operation plan")
    return extract_plan(dm, result.values, 0)


def surviving_link_caps(
    topology: Topology,
    base_plan: OperationPlan,
    scenario: FailureScenario,
) -> dict[tuple[str, str], int]:
    """Units of the base plan still usable immediately after the failure.

    A unit survives when both endpoint routers are alive and, for external
    links, its recorded span path avoids the cut span.  Links merely passing
    through a failed router's node keep working: the optical layer is intact.
    """
    validate_scenario(topology, scenario)
    dead = dead_routers(topology, scenario)
    cut = scenario.target if scenario.kind == "span" else None
    out: dict[tuple[str, str], int] = {}
    for a, b, units in base_plan.canonical_links():
        if a in dead or b in dead:
            continue
        if base_plan.is_intra(a, b):
            alive_units = units
        else:
            paths = base_plan.span_paths.get((a, b), ())
            alive_units = sum(1 for path in paths if cut not in path)
        if alive_units:
            out[(a, b)] = alive_units
            out[(b, a)] = alive_units
    return out


def evaluate_transient(
    topology: Topology,
    demands: DemandMatrix,
    base_plan: OperationPlan,
    scenario: FailureScenario,
    *,
    concurrent: bool = False,
    time_limit: float | None = None,
) -> TransientReport:
    """Traffic deliverable over surviving pre-failure links, before replanning.

    By default maximizes the total delivered volume (each demand capped at its
    offered volume).  With ``concurrent=True`` every demand is instead served
    the same fraction of its volume, and that fraction is maximized.

    Raises:
        NoIncumbentError: the time limit expired before the LP was solved.
    """
    if base_plan.scenario.kind != "none":
        raise ValueError("transient evaluation starts from the no-failure plan")
    caps = surviving_link_caps(topology, base_plan, scenario)
    offered = demands.total_offered
    if offered <= 0:
        return TransientReport(scenario, 0.0, 0.0, 1.0, caps)

    m = LinearModel("transient")
    # A demand's net flow is its volume times the common served fraction,
    # or its own delivered volume d_{s}_{t}.
    if concurrent:
        tvar = m.add_variable("served_fraction", ub=1.0)
        objective = {tvar: -offered}
        served = {(s, t): (tvar, volume) for s, t, volume in demands.pairs}
    else:
        served = {(s, t): (m.add_variable(f"d_{_key(s)}_{_key(t)}", ub=volume), 1.0)
                  for s, t, volume in demands.pairs}
        objective = {d: -1.0 for d, _ in served.values()}

    arcs = {arc: (None, float(caps[arc])) for arc in sorted(caps)}
    add_routing(m, "f0", arcs, alive_routers(topology, scenario), demands, served)
    m.set_objective(objective)
    result = solve(m, time_limit)
    check_solve(result, scenario, "transient routing")
    delivered = -result.objective_value
    delivered = min(max(0.0, delivered), offered)
    fraction = delivered / offered
    if abs(fraction - 1.0) <= 1e-9:
        fraction = 1.0
    return TransientReport(scenario, offered, delivered, fraction, caps)


def transient_reports(
    topology: Topology,
    demands: DemandMatrix,
    base_plan: OperationPlan,
    scenarios: Iterable[FailureScenario],
    *,
    concurrent: bool = False,
    time_limit: float | None = None,
) -> list[TransientReport]:
    return [
        evaluate_transient(
            topology, demands, base_plan, scen,
            concurrent=concurrent, time_limit=time_limit,
        )
        for scen in scenarios
    ]


def write_transient_csv(reports: Sequence[TransientReport], fileobj) -> None:
    """CSV rows: scenario_kind, scenario_id, offered, delivered, fraction."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["scenario_kind", "scenario_id", "offered", "delivered", "fraction"])
    for rep in reports:
        scen = rep.scenario
        writer.writerow(
            [scen.kind, scen.label().partition(":")[2], f"{rep.offered:.6f}",
             f"{rep.delivered:.6f}", f"{rep.fraction:.6f}"]
        )
