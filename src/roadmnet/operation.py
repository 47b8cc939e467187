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
    InfeasibleDesignError,
    NoIncumbentError,
    add_commodity_flow,
    build_design_model,
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
    validate_scenario,
)


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

    def canonical_links(self) -> list[tuple[str, str, int]]:
        """(a, b, units) per unordered pair with capacity, a < b."""
        out = []
        for (a, b), units in sorted(self.link_caps.items()):
            if a < b and units > 0:
                out.append((a, b, units))
        return out

    def is_intra(self, a: str, b: str) -> bool:
        return self.topology.home(a) == self.topology.home(b)

    def tail_usage(self) -> dict[str, int]:
        """Tails consumed per router (one per unit per endpoint)."""
        out: dict[str, int] = defaultdict(int)
        for a, b, units in self.canonical_links():
            if not self.is_intra(a, b):
                out[a] += units
                out[b] += units
        return dict(out)

    def port_usage(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for a, b, units in self.canonical_links():
            if self.is_intra(a, b):
                out[a] += units
                out[b] += units
        return dict(out)

    def regen_usage(self) -> dict[str, int]:
        """Physical regens consumed per node across all chains."""
        out: dict[str, int] = defaultdict(int)
        for chains in self.regen_chains.values():
            for chain in chains:
                for node in chain:
                    out[node] += 1
        return dict(out)

    def bookkeeping_usage(self) -> dict[str, int]:
        """Source-side launch hops per node (no physical regen needed)."""
        out: dict[str, int] = defaultdict(int)
        for a, b, units in self.canonical_links():
            if not self.is_intra(a, b):
                out[self.topology.home(a)] += units
        return dict(out)


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
            span = topology.span_by_key[(x, y) if x <= y else (y, x)]
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
) -> list[tuple[str, ...]]:
    """Split integer hop counts into per-unit relay node sequences.

    Walks from the source following the lexicographically smallest available
    next hop; relay contiguity guarantees each walk reaches the destination.
    """
    remaining = {k: v for k, v in hop_counts.items() if v > 0}
    total = sum(remaining.values())
    chains: list[tuple[str, ...]] = []
    for _ in range(units):
        cur = src
        path: list[str] = []
        steps = 0
        while cur != dst:
            nxt = min(
                (v for (u, v), c in remaining.items() if u == cur and c > 0),
                default=None,
            )
            if nxt is None or steps > total:
                raise TopologyError(
                    f"relay hops for {src}->{dst} do not decompose into "
                    f"{units} unit chains"
                )
            remaining[(cur, nxt)] -= 1
            path.append(nxt)
            cur = nxt
            steps += 1
        chains.append(tuple(path[:-1]))  # drop the destination node
    return chains


def extract_plan(dm: DesignModel, values: Mapping[str, float], fi: int) -> OperationPlan:
    """Read scenario ``fi``'s link/chain/flow assignment out of a solution."""
    topology = dm.topology
    scenario = dm.scenarios[fi]

    def units_of(name: str) -> int:
        return iround(values.get(name, 0.0), name)

    link_caps: dict[tuple[str, str], int] = {}
    for (fj, a, b), name in dm.cap_vars.items():
        if fj == fi:
            units = units_of(name)
            if units:
                link_caps[(a, b)] = units
    for (fj, a, b), name in dm.intra_vars.items():
        if fj == fi:
            units = units_of(name)
            if units:
                link_caps[(a, b)] = units

    flows: dict[tuple[str, str, str, str], float] = {}
    for (fj, (s, t), (a, b)), name in dm.flow_vars.items():
        if fj == fi:
            v = float(values.get(name, 0.0))
            if v > 1e-9:
                flows[(s, t, a, b)] = v

    regen_chains: dict[tuple[str, str], tuple[tuple[str, ...], ...]] = {}
    span_paths: dict[tuple[str, str], tuple[tuple[SpanKey, ...], ...]] = {}
    for a, b in dm.links.get(fi, ()):
        units = link_caps.get((a, b), 0)
        if not units:
            continue
        hop_counts = {
            (u, v): units_of(name)
            for (fj, link, (u, v)), name in dm.hop_vars.items()
            if fj == fi and link == (a, b)
        }
        src = topology.home(a)
        dst = topology.home(b)
        chains = _unit_chains(hop_counts, src, dst, units)
        regen_chains[(a, b)] = tuple(chains)
        span_paths[(a, b)] = tuple(
            expand_link_path(topology, scenario, (a, b), chain) for chain in chains
        )
    return OperationPlan(
        topology=topology,
        scenario=scenario,
        link_caps=link_caps,
        flows=flows,
        regen_chains=regen_chains,
        span_paths=span_paths,
    )


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
    if result.status == "infeasible":
        raise InfeasibleDesignError(
            f"design cannot serve demands under {scenario.label()}", scenario
        )
    if result.status == "no_solution":
        raise NoIncumbentError(
            f"no operation plan found for {scenario.label()} within the time limit"
        )
    if not result.ok:
        raise InfeasibleDesignError(
            f"operation solve ended with status {result.status!r}", scenario
        )
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
    """
    if base_plan.scenario.kind != "none":
        raise ValueError("transient evaluation starts from the no-failure plan")
    caps = surviving_link_caps(topology, base_plan, scenario)
    offered = demands.total_offered
    if offered <= 0:
        return TransientReport(scenario, 0.0, 0.0, 1.0, caps)

    alive = alive_routers(topology, scenario)
    m = LinearModel("transient")
    tvar = m.add_variable("served_fraction", ub=1.0) if concurrent else None
    arcs = sorted(caps)
    arc_load: dict[tuple[str, str], dict[str, float]] = defaultdict(dict)
    total_terms: dict[str, float] = {}
    for s, t, volume in demands.pairs:
        if concurrent:
            served, weight = tvar, volume
        else:
            served, weight = m.add_variable(f"d_{s}_{t}", ub=volume), 1.0
            total_terms[served] = 1.0
        fvars, out_src, in_dst = add_commodity_flow(
            m, f"y_{s}_{t}", arcs, alive, s, t
        )
        for arc, name in fvars.items():
            arc_load[arc][name] = 1.0
        # With no usable attachment a row degenerates to served = 0.
        for coeffs in (out_src, in_dst):
            coeffs[served] = -weight
            m.add_constraint(coeffs, "==", 0.0)
    for (a, b), loads in arc_load.items():
        m.add_constraint(loads, "<=", float(caps[(a, b)]))

    if concurrent:
        m.set_objective({tvar: -offered})
    else:
        m.set_objective({name: -1.0 for name in total_terms})
    result = solve(m, time_limit)
    if not result.ok:
        raise TopologyError(
            f"transient routing solve failed with status {result.status!r}"
        )
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
        if scen.kind == "none":
            ident = ""
        elif scen.kind == "span":
            ident = f"{scen.target[0]}~{scen.target[1]}"
        else:
            ident = str(scen.target)
        writer.writerow(
            [scen.kind, ident, f"{rep.offered:.6f}", f"{rep.delivered:.6f}",
             f"{rep.fraction:.6f}"]
        )
