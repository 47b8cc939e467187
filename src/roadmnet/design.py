"""Robust placement model: how many tails, regenerators and ports to buy.

The builder assembles one MILP covering a set of failure scenarios.  Placement
counts (tails per router, regens per node, ports per router) are shared
"here and now" variables; per-scenario link capacities, regen chains and flow
routings are "wait and see" variables that may differ between scenarios,
which is exactly the freedom a colorless-directionless optical layer offers.

Per-scenario structure, for every ordered pair of live routers at different
nodes, an integer capacity variable counts the point-to-point link units
between them; capacity is symmetric (a unit is usable in both directions).
Each unordered link additionally carries integer "hop" variables describing
where its signal is regenerated: a hop (u, v) is available only when the
surviving fiber distance from u to v is within optical reach.  Hops must form
unbroken relays from the link's source node to its destination node, and the
regens consumed at every node are capped by that node's budget.  Hops leaving
the link's own source node are bookkeeping only -- the transponder launches a
fresh signal, so no regenerator is consumed there; reported totals exclude
them while raw totals keep them visible.

Routing is a multi-commodity flow over the per-scenario link capacities, with
colocated routers bridged by port-based intra-node links.  That flow is built
by ``add_commodity_flow``, which the fixed-link baseline (``design_legacy``)
and transient rating (``evaluate_transient``) share; each caller keeps its own
rule for the rows at the demand's endpoints.  Every placement, whichever
algorithm produced it, is priced by ``Design.priced``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .milp import LinearModel, SolveResult
from .topology import (
    CostModel,
    DemandMatrix,
    FailureScenario,
    Router,
    Topology,
    TopologyError,
    alive_routers,
    regen_adjacency,
    validate_scenario,
)

# Secondary objective weights used when operating a fixed design: prefer the
# fewest link units, then the fewest regens, then the least circuitous flow.
OPERATE_HOP_WEIGHT = 1e-3
OPERATE_FLOW_WEIGHT = 1e-6


class InfeasibleDesignError(RuntimeError):
    """No placement can serve the demands (carries the offending scenario)."""

    def __init__(self, message: str, scenario: FailureScenario | None = None):
        super().__init__(message)
        self.scenario = scenario


class NoIncumbentError(RuntimeError):
    """The time limit expired before any feasible placement was found."""


@dataclass(frozen=True)
class PriorPlacement:
    """Equipment already owned; new purchases come on top of it."""

    tails: Mapping[str, int] = field(default_factory=dict)
    regens: Mapping[str, int] = field(default_factory=dict)
    ports: Mapping[str, int] = field(default_factory=dict)

    def tail(self, router_id: str) -> int:
        return int(self.tails.get(router_id, 0))

    def regen(self, node: str) -> int:
        return int(self.regens.get(node, 0))

    def port(self, router_id: str) -> int:
        return int(self.ports.get(router_id, 0))


@dataclass(frozen=True)
class Design:
    """A placement: equipment counts and their cost.

    regens_reported counts physical regenerators only; regens_raw adds the
    per-node worst case of source-side bookkeeping hops (see module docstring),
    so total_cost_raw >= total_cost_reported always holds.
    """

    tails: dict[str, int]
    regens_raw: dict[str, int]
    regens_reported: dict[str, int]
    ports: dict[str, int]
    total_cost_raw: float
    total_cost_reported: float
    solve_status: str = "optimal"

    @property
    def tail_count(self) -> int:
        return sum(self.tails.values())

    @property
    def regen_count(self) -> int:
        return sum(self.regens_reported.values())

    @property
    def port_count(self) -> int:
        return sum(self.ports.values())

    def summary(self) -> str:
        return (
            f"{self.tail_count} tails, {self.regen_count} regens, "
            f"{self.port_count} ports, cost {self.total_cost_reported:g}"
        )

    @classmethod
    def priced(
        cls,
        costs: CostModel,
        tails: dict[str, int],
        regens: dict[str, int],
        ports: dict[str, int],
        bookkeeping: Mapping[str, int],
        statuses: Iterable[str],
    ) -> "Design":
        """A placement with its costs rolled up.

        ``regens`` counts physical regenerators per node and ``bookkeeping``
        the source-side launch hops per node, which only the raw totals
        include.  The design is "optimal" when every solve behind it was.
        """
        reported = (
            costs.tail * sum(tails.values())
            + costs.regen * sum(regens.values())
            + costs.port * sum(ports.values())
        )
        return cls(
            tails=tails,
            regens_raw={n: v + bookkeeping.get(n, 0) for n, v in regens.items()},
            regens_reported=regens,
            ports=ports,
            total_cost_raw=reported + costs.regen * sum(bookkeeping.values()),
            total_cost_reported=reported,
            solve_status=(
                "optimal" if all(s == "optimal" for s in statuses) else "feasible"
            ),
        )


@dataclass
class DesignModel:
    """A built model plus the index needed to read solutions back out."""

    model: LinearModel
    topology: Topology
    demands: DemandMatrix
    costs: CostModel
    scenarios: tuple[FailureScenario, ...]
    prior: PriorPlacement
    fixed: Design | None
    tail_vars: dict[str, str]
    regen_vars: dict[str, str]
    port_vars: dict[str, str]
    # (scenario idx, router a, router b) -> var name; ordered pairs, both kept.
    cap_vars: dict[tuple[int, str, str], str]
    intra_vars: dict[tuple[int, str, str], str]
    # (scenario idx, canonical link (a, b), hop (u, v)) -> var name.
    hop_vars: dict[tuple[int, tuple[str, str], tuple[str, str]], str]
    # (scenario idx, demand (s, t), arc (a, b)) -> var name.
    flow_vars: dict[tuple[int, tuple[str, str], tuple[str, str]], str]
    # canonical (a, b) ext links per scenario, in creation order.
    links: dict[int, tuple[tuple[str, str], ...]]


def _min_hop_count(
    hops: Sequence[tuple[str, str]], src: str, dst: str
) -> int | None:
    """Fewest hops on any src->dst relay path, or None when unreachable."""
    out: dict[str, list[str]] = defaultdict(list)
    for u, v in hops:
        out[u].append(v)
    depth = {src: 0}
    frontier = [src]
    while frontier:
        nxt: list[str] = []
        for u in frontier:
            for v in out[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    return depth.get(dst)


def add_commodity_flow(
    m: LinearModel,
    prefix: str,
    arcs: Iterable[tuple[str, str]],
    alive: Sequence[Router],
    src: str,
    dst: str,
) -> tuple[dict[tuple[str, str], str], dict[str, float], dict[str, float]]:
    """Flow of one demand from node ``src`` to node ``dst`` over ``arcs``.

    Adds a variable ``{prefix}_{a}_{b}`` per directed router arc, in the given
    order, and a conservation row at every live router homed away from both
    endpoints.  Returns the arc -> variable map plus the net-outflow terms at
    the source node's live routers and the net-inflow terms at the
    destination node's; a term map is empty when no live router there touches
    an arc.  The caller writes the endpoint rows under its own rule.
    """
    flows: dict[tuple[str, str], str] = {}
    by_out: dict[str, list[str]] = defaultdict(list)
    by_in: dict[str, list[str]] = defaultdict(list)
    for a, b in arcs:
        name = m.add_variable(f"{prefix}_{a}_{b}")
        flows[(a, b)] = name
        by_out[a].append(name)
        by_in[b].append(name)
    for r in alive:
        if r.node in (src, dst):
            continue
        coeffs: dict[str, float] = {}
        for name in by_in[r.id]:
            coeffs[name] = coeffs.get(name, 0.0) + 1.0
        for name in by_out[r.id]:
            coeffs[name] = coeffs.get(name, 0.0) - 1.0
        if coeffs:
            m.add_constraint(coeffs, "==", 0.0, name=f"balance_{prefix}_{r.id}")
    ends: list[dict[str, float]] = []
    for node, sign in ((src, 1.0), (dst, -1.0)):
        coeffs = {}
        for r in alive:
            if r.node != node:
                continue
            for name in by_out[r.id]:
                coeffs[name] = coeffs.get(name, 0.0) + sign
            for name in by_in[r.id]:
                coeffs[name] = coeffs.get(name, 0.0) - sign
        ends.append(coeffs)
    return flows, ends[0], ends[1]


def _add_infeasible_row(m: LinearModel, tag: str) -> None:
    # A variable pinned to 0 required to equal 1: cleanly encodes "this
    # scenario cannot be served" inside an otherwise well-formed model.
    z = m.add_variable(f"impossible_{tag}", lb=0.0, ub=0.0)
    m.add_constraint({z: 1.0}, "==", 1.0, name=f"impossible_{tag}")


def build_design_model(
    topology: Topology,
    demands: DemandMatrix,
    scenarios: Sequence[FailureScenario],
    costs: CostModel,
    prior: PriorPlacement | None = None,
    *,
    fixed_design: Design | None = None,
    strengthen: bool = True,
) -> DesignModel:
    """Assemble the placement MILP over the given failure scenarios.

    With ``fixed_design`` the placement counts become constants and the
    objective switches to the cheapest operation (fewest link units, then
    regens, then flow); that is how a finished design is operated under one
    scenario.

    Args:
        topology: physical network.
        demands: offered traffic between IP nodes.
        scenarios: failure states the design must survive, solved jointly.
        costs: unit prices for tails, regens and ports.
        prior: already-owned equipment, free to reuse.
        fixed_design: operate this design instead of sizing a new one.
        strengthen: add redundant valid inequalities (capacity ceilings and
            minimum relay lengths) that tighten the LP relaxation without
            changing the integer solution set.
    """
    demands.validate_against(topology)
    scenarios = tuple(scenarios)
    if not scenarios:
        raise InfeasibleDesignError("at least one scenario is required")
    for scen in scenarios:
        validate_scenario(topology, scen)
    prior = prior or PriorPlacement()

    m = LinearModel("operation" if fixed_design else "design")
    dm = DesignModel(
        model=m,
        topology=topology,
        demands=demands,
        costs=costs,
        scenarios=scenarios,
        prior=prior,
        fixed=fixed_design,
        tail_vars={},
        regen_vars={},
        port_vars={},
        cap_vars={},
        intra_vars={},
        hop_vars={},
        flow_vars={},
        links={},
    )

    multi_nodes = {n for n in topology.ip_nodes if len(topology.routers_at[n]) >= 2}

    # No minimal operation ever needs more units on one link than the total
    # offered volume, so capacities and hops live in a box of that size.
    box = float(math.ceil(demands.total_offered - 1e-9)) if strengthen else math.inf
    out_dem: dict[str, float] = defaultdict(float)
    in_dem: dict[str, float] = defaultdict(float)
    for s, t, volume in demands.pairs:
        out_dem[s] += volume
        in_dem[t] += volume

    if fixed_design is None:
        for r in topology.routers:
            dm.tail_vars[r.id] = m.add_variable(f"T_{r.id}", integer=True)
        for n in topology.all_nodes:
            dm.regen_vars[n] = m.add_variable(f"R_{n}", integer=True)
        for r in topology.routers:
            if r.node in multi_nodes:
                dm.port_vars[r.id] = m.add_variable(f"P_{r.id}", integer=True)

    for fi, scen in enumerate(scenarios):
        alive = alive_routers(topology, scen)
        adjacency = regen_adjacency(topology, scen)

        # Link capacity variables: ordered pairs, external and intra-node.
        for a in alive:
            for b in alive:
                if a.id == b.id:
                    continue
                if a.node != b.node:
                    dm.cap_vars[(fi, a.id, b.id)] = m.add_variable(
                        f"X_f{fi}_{a.id}_{b.id}", ub=box, integer=True
                    )
                else:
                    dm.intra_vars[(fi, a.id, b.id)] = m.add_variable(
                        f"W_f{fi}_{a.id}_{b.id}", ub=box, integer=True
                    )

        canonical = tuple(
            (a.id, b.id)
            for a in alive
            for b in alive
            if a.id < b.id and a.node != b.node
        )
        dm.links[fi] = canonical

        # A link unit is usable in both directions: tie the two orientations.
        for a, b in canonical:
            m.add_constraint(
                {dm.cap_vars[(fi, a, b)]: 1.0, dm.cap_vars[(fi, b, a)]: -1.0},
                "==",
                0.0,
                name=f"sym_f{fi}_{a}_{b}",
            )
        for a in alive:
            for b in alive:
                if a.id < b.id and a.node == b.node:
                    m.add_constraint(
                        {dm.intra_vars[(fi, a.id, b.id)]: 1.0,
                         dm.intra_vars[(fi, b.id, a.id)]: -1.0},
                        "==",
                        0.0,
                        name=f"symw_f{fi}_{a.id}_{b.id}",
                    )

        # Tails terminate external link units, one per unit per direction.
        for r in alive:
            others = [o for o in alive if o.node != r.node]
            if not others:
                continue
            for tag, terms in (
                ("in", [(dm.cap_vars[(fi, o.id, r.id)], 1.0) for o in others]),
                ("out", [(dm.cap_vars[(fi, r.id, o.id)], 1.0) for o in others]),
            ):
                coeffs = dict(terms)
                if fixed_design is None:
                    coeffs[dm.tail_vars[r.id]] = -1.0
                    rhs = float(prior.tail(r.id))
                else:
                    rhs = float(fixed_design.tails.get(r.id, 0) + prior.tail(r.id))
                m.add_constraint(coeffs, "<=", rhs, name=f"tail_{tag}_f{fi}_{r.id}")

        # Ports terminate intra-node link units the same way.
        for r in alive:
            if r.node not in multi_nodes:
                continue
            mates = [o for o in alive if o.node == r.node and o.id != r.id]
            if not mates:
                continue
            for tag, terms in (
                ("in", [(dm.intra_vars[(fi, o.id, r.id)], 1.0) for o in mates]),
                ("out", [(dm.intra_vars[(fi, r.id, o.id)], 1.0) for o in mates]),
            ):
                coeffs = dict(terms)
                if fixed_design is None:
                    coeffs[dm.port_vars[r.id]] = -1.0
                    rhs = float(prior.port(r.id))
                else:
                    rhs = float(fixed_design.ports.get(r.id, 0) + prior.port(r.id))
                m.add_constraint(coeffs, "<=", rhs, name=f"port_{tag}_f{fi}_{r.id}")

        # Regen relay chains, one shared chain system per unordered link.
        for a, b in canonical:
            src = topology.home(a)
            dst = topology.home(b)
            hops = [
                (u, v)
                for (u, v) in sorted(adjacency)
                if v != src and u != dst
            ]
            for u, v in hops:
                dm.hop_vars[(fi, (a, b), (u, v))] = m.add_variable(
                    f"H_f{fi}_{a}_{b}_{u}_{v}", ub=box, integer=True
                )
            link_cap = dm.cap_vars[(fi, a, b)]
            by_out: dict[str, list[str]] = defaultdict(list)
            by_in: dict[str, list[str]] = defaultdict(list)
            for u, v in hops:
                name = dm.hop_vars[(fi, (a, b), (u, v))]
                by_out[u].append(name)
                by_in[v].append(name)
            # Relays must be contiguous through every intermediate node.
            for n in topology.all_nodes:
                if n in (src, dst):
                    continue
                outs = by_out.get(n, [])
                ins = by_in.get(n, [])
                if not outs and not ins:
                    continue
                coeffs: dict[str, float] = {}
                for name in outs:
                    coeffs[name] = coeffs.get(name, 0.0) + 1.0
                for name in ins:
                    coeffs[name] = coeffs.get(name, 0.0) - 1.0
                m.add_constraint(coeffs, "==", 0.0, name=f"relay_f{fi}_{a}_{b}_{n}")
            # Every unit needs a relay start at the source node and a final
            # hop into the destination node.
            start = {name: 1.0 for name in by_out.get(src, [])}
            start[link_cap] = start.get(link_cap, 0.0) - 1.0
            m.add_constraint(start, ">=", 0.0, name=f"launch_f{fi}_{a}_{b}")
            finish = {name: 1.0 for name in by_in.get(dst, [])}
            finish[link_cap] = finish.get(link_cap, 0.0) - 1.0
            m.add_constraint(finish, ">=", 0.0, name=f"land_f{fi}_{a}_{b}")
            if strengthen:
                # Every unit relays through at least k_min real regen hops,
                # where k_min is one less than the fewest hops on any
                # source-to-destination relay path.
                k_min = _min_hop_count(hops, src, dst)
                if k_min is not None and k_min >= 2:
                    coeffs = {
                        dm.hop_vars[(fi, (a, b), (u, v))]: 1.0
                        for (u, v) in hops
                        if u != src
                    }
                    if coeffs:
                        coeffs[link_cap] = coeffs.get(link_cap, 0.0) - float(k_min - 1)
                        m.add_constraint(
                            coeffs, ">=", 0.0, name=f"relaylen_f{fi}_{a}_{b}"
                        )

        # Node regen budgets.  Hops leaving a link's own source node are
        # bookkeeping (fresh signal) and consume no budget.
        usage: dict[str, dict[str, float]] = defaultdict(dict)
        for (fj, link, (u, v)), name in dm.hop_vars.items():
            if fj != fi:
                continue
            if u == topology.home(link[0]):
                continue
            usage[u][name] = usage[u].get(name, 0.0) + 1.0
        for n in topology.all_nodes:
            coeffs = dict(usage.get(n, {}))
            if not coeffs:
                continue
            if fixed_design is None:
                coeffs[dm.regen_vars[n]] = -1.0
                rhs = float(prior.regen(n))
            else:
                rhs = float(fixed_design.regens_reported.get(n, 0) + prior.regen(n))
            m.add_constraint(coeffs, "<=", rhs, name=f"regen_f{fi}_{n}")

        # Multi-commodity flow over the per-scenario links.
        arcs = {(a, b): name for (fj, a, b), name in dm.cap_vars.items() if fj == fi}
        arcs.update(
            {(a, b): name for (fj, a, b), name in dm.intra_vars.items() if fj == fi}
        )
        arc_load: dict[str, dict[str, float]] = defaultdict(dict)
        for s, t, volume in demands.pairs:
            fvars, out_src, in_dst = add_commodity_flow(
                m, f"Y_f{fi}_{s}_{t}", arcs, alive, s, t
            )
            for ab, name in fvars.items():
                arc_load[arcs[ab]][name] = 1.0
                dm.flow_vars[(fi, (s, t), ab)] = name
            for tag, coeffs in (("src", out_src), ("dst", in_dst)):
                if coeffs:
                    m.add_constraint(
                        coeffs, "==", volume, name=f"flow_{tag}_f{fi}_{s}_{t}"
                    )
                else:
                    _add_infeasible_row(m, f"f{fi}_{s}_{t}_{tag}")
        # Total flow on each directed arc fits its capacity.
        for (a, b), cap_name in arcs.items():
            loads = arc_load.get(cap_name)
            if not loads:
                continue
            coeffs = dict(loads)
            coeffs[cap_name] = coeffs.get(cap_name, 0.0) - 1.0
            m.add_constraint(coeffs, "<=", 0.0, name=f"cap_f{fi}_{a}_{b}")

        if strengthen:
            # Capacity leaving a demand endpoint's routers is an integer at
            # least the volume it must carry, hence at least its ceiling.
            for n in topology.ip_nodes:
                need = max(out_dem.get(n, 0.0), in_dem.get(n, 0.0))
                if need <= 0:
                    continue
                coeffs = {
                    name: 1.0
                    for (fj, a, b), name in dm.cap_vars.items()
                    if fj == fi and topology.home(a) == n
                }
                if coeffs:
                    m.add_constraint(
                        coeffs,
                        ">=",
                        float(math.ceil(need - 1e-9)),
                        name=f"mindeg_f{fi}_{n}",
                    )

    if fixed_design is None:
        objective: dict[str, float] = {}
        for name in dm.tail_vars.values():
            objective[name] = costs.tail
        for name in dm.regen_vars.values():
            objective[name] = costs.regen
        for name in dm.port_vars.values():
            objective[name] = costs.port
    else:
        objective = {}
        for name in dm.cap_vars.values():
            objective[name] = 1.0
        for name in dm.intra_vars.values():
            objective[name] = 1.0
        for name in dm.hop_vars.values():
            objective[name] = OPERATE_HOP_WEIGHT
        for name in dm.flow_vars.values():
            objective[name] = OPERATE_FLOW_WEIGHT
    m.set_objective(objective)
    return dm


def iround(value: float, what: str) -> int:
    """``value`` as an int, which a solved integer variable must be."""
    r = round(value)
    if abs(value - r) > 1e-5:
        raise TopologyError(f"{what} is not integral: {value!r}")
    return int(r)


def source_side_usage(dm: DesignModel, values: Mapping[str, float]) -> dict[str, int]:
    """Worst-case bookkeeping hops per node across the model's scenarios.

    Each link unit launches exactly once from its source node, so the
    bookkeeping usage at node n under one scenario is the total capacity of
    links whose source router is homed at n.
    """
    worst: dict[str, int] = {n: 0 for n in dm.topology.all_nodes}
    for fi in range(len(dm.scenarios)):
        per_node: dict[str, int] = defaultdict(int)
        for a, b in dm.links.get(fi, ()):
            units = iround(values.get(dm.cap_vars[(fi, a, b)], 0.0), f"cap {a}-{b}")
            per_node[dm.topology.home(a)] += units
        for n, used in per_node.items():
            worst[n] = max(worst[n], used)
    return worst


def extract_design(dm: DesignModel, result: SolveResult) -> Design:
    """Read a solved placement model back into a Design."""
    if dm.fixed is not None:
        raise ValueError("extract_design needs a sizing model, not an operation model")
    if not result.ok:
        raise ValueError(f"cannot extract a design from status {result.status!r}")
    vals = result.values
    tails = {r.id: iround(vals[dm.tail_vars[r.id]], f"tails {r.id}") for r in dm.topology.routers}
    reported = {n: iround(vals[dm.regen_vars[n]], f"regens {n}") for n in dm.topology.all_nodes}
    ports = {
        r.id: (iround(vals[dm.port_vars[r.id]], f"ports {r.id}") if r.id in dm.port_vars else 0)
        for r in dm.topology.routers
    }
    return Design.priced(
        dm.costs, tails, reported, ports, source_side_usage(dm, vals), [result.status]
    )
