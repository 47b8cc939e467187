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
them while raw totals keep them visible.  A link's hops and relay rows
depend only on its two end nodes, so each failure state works them out once
per pair of nodes and adds them to every router link between them as one
block of columns and rows.

Routing is a multi-commodity flow over the per-scenario link capacities, with
colocated routers bridged by port-based intra-node links.  ``add_routing``
writes every flow model in the package: its flow variables, conservation,
endpoint and arc-capacity rows, for sizing and operating here, for the
fixed-link baseline (``design_legacy``) and for transient rating
(``evaluate_transient``).  A caller gives each arc's capacity, a column, a
constant or both, and transient rating also the column a demand's endpoint
rows serve.  Every placement, whichever algorithm produced it, is priced by
``Design.priced``.

The built ``DesignModel`` keeps the shared placement variables once and one
``ScenarioBlock`` per failure state holding that state's capacity, hop and
flow variables, so every row of a scenario, and every reader of its solution
(``source_side_usage``, ``operation.extract_plan``), touches only its own
block.  Every tail, port and regen budget row follows one rule: usage minus
the purchase column is at most what is owned when sizing, and usage is at
most what is owned when operating, where owned is the prior's count plus,
when operating, the fixed design's.  External links (ended by tails) and
intra-node links (ended by ports) are built alike, by one loop over the two.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

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


def check_solve(
    result: SolveResult, scenario: FailureScenario | None, what: str = "placement"
) -> None:
    """Raise unless the solve found a ``what`` (``None``: the joint model).

    An infeasible solve of one scenario raises ``InfeasibleDesignError``
    naming it, a time-out without an incumbent ``NoIncumbentError``, and any
    other failed status ``InfeasibleDesignError``.
    """
    if result.status == "infeasible" and scenario is not None:
        raise InfeasibleDesignError(f"no {what} can serve {scenario.label()}", scenario)
    hint = scenario.label() if scenario is not None else "joint model"
    if result.status == "no_solution":
        raise NoIncumbentError(f"time limit expired with no {what} found ({hint})")
    if not result.ok:
        raise InfeasibleDesignError(f"no feasible {what} exists ({hint})", scenario)


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
class ScenarioBlock:
    """One failure state's "wait and see" variables, in creation order.

    ``caps`` (X) and ``intra`` (W) map ordered router pairs to link-unit
    variables, both orientations kept; ``hops`` maps each canonical external
    link (a, b), a < b, to its hop (u, v) -> H variables (an empty map when no
    hop is available); ``flows`` maps each demand (s, t) to its arc -> Y
    variables.
    """

    scenario: FailureScenario
    caps: dict[tuple[str, str], str] = field(default_factory=dict)
    intra: dict[tuple[str, str], str] = field(default_factory=dict)
    hops: dict[tuple[str, str], dict[tuple[str, str], str]] = field(default_factory=dict)
    flows: dict[tuple[str, str], dict[tuple[str, str], str]] = field(default_factory=dict)


@dataclass
class DesignModel:
    """A built model plus the index needed to read solutions back out.

    The placement counts (``tail_vars``, ``regen_vars``, ``port_vars``; empty
    when operating a fixed design) are shared by every failure state;
    ``blocks`` holds one ``ScenarioBlock`` per failure state, in the order of
    the scenarios the model was built over.
    """

    model: LinearModel
    topology: Topology
    costs: CostModel
    fixed: Design | None
    tail_vars: dict[str, str]
    regen_vars: dict[str, str]
    port_vars: dict[str, str]
    blocks: list[ScenarioBlock]


def _relay_shape(adjacency: Sequence[tuple[str, str]], nodes: Sequence[str], src: str,
                 dst: str, strengthen: bool):
    """The relay-chain block of each router link from node src to node dst.

    Returns the hops (u, v) a chain may use, in adjacency order, the
    positions of those that use a regen (all but launch hops), the rows as
    ``LinearModel._add_block`` takes them, with hop positions as columns
    (``len(hops)``: the link's capacity), and a (kind, suffix) name per row:
    relay rows at intermediate nodes, then launch, land and, when it
    applies, relaylen.
    """
    hops = [(u, v) for u, v in adjacency if v != src and u != dst]
    cap = len(hops)
    by_out: dict[str, list[int]] = defaultdict(list)
    by_in: dict[str, list[int]] = defaultdict(list)
    for k, (u, v) in enumerate(hops):
        by_out[u].append(k)
        by_in[v].append(k)
    rows, names = [], []
    # Relays must be contiguous through every intermediate node.
    for n in nodes:
        outs, ins = by_out.get(n, []), by_in.get(n, [])
        if n not in (src, dst) and (outs or ins):
            rows.append((outs + ins, [1.0] * len(outs) + [-1.0] * len(ins), "==", 0.0))
            names.append(("relay", f"_{n}"))
    # Every unit needs a relay start at the source node and a final hop into
    # the destination node.
    for kind, ks in (("launch", by_out.get(src, [])), ("land", by_in.get(dst, []))):
        rows.append((ks + [cap], [1.0] * len(ks) + [-1.0], ">=", 0.0))
        names.append((kind, ""))
    # Every unit relays through at least k_min real regen hops, where k_min
    # is one less than the fewest hops on any source-to-destination path.
    regen = [k for k, (u, _) in enumerate(hops) if u != src]
    depth, order = {src: 0}, [src]
    for u in order:  # breadth first: order grows as it is read
        for v in (hops[k][1] for k in by_out[u]):
            if v not in depth:
                depth[v] = depth[u] + 1
                order.append(v)
    k_min = depth.get(dst) if strengthen and regen else None
    if k_min is not None and k_min >= 2:
        rows.append((regen + [cap], [1.0] * len(regen) + [1.0 - k_min], ">=", 0.0))
        names.append(("relaylen", ""))
    return hops, regen, rows, names


def add_routing(
    m: LinearModel,
    tag: str,
    arcs: Mapping[tuple[str, str], tuple[str | None, float]],
    alive: Sequence[Router],
    demands: DemandMatrix,
    served: Callable[[str, str, float], tuple[str, float]] | None = None,
) -> dict[tuple[str, str], dict[tuple[str, str], str]]:
    """Route every demand over ``arcs``; returns each demand's arc -> flow map.

    ``arcs`` maps each directed router arc to its capacity, ``(column,
    constant)``: the arc's total flow fits the column (None: no column) plus
    the constant.  ``tag``, the failure state (``f{index}``), goes into every
    variable and row name.  Per demand (s, t), in order, this adds a variable
    ``Y_{tag}_{s}_{t}_{a}_{b}`` per arc, a conservation row at every live
    router homed away from both endpoints, then the source row (net outflow
    of node s's live routers) and the destination row (net inflow of node
    t's).  Each endpoint row asks for the demand's volume; with ``served``,
    called as ``served(s, t, volume)`` just before the demand's flows and
    returning ``(column, weight)``, it asks instead for weight times that
    column.  The arc-capacity rows follow the last demand.  Rows go in by
    column position: one block per demand, one for the capacity rows.

    When no live router at an endpoint touches an arc, the endpoint row
    has no flow term: with ``served`` it degenerates to served = 0, and
    otherwise a variable pinned to 0 is required to equal 1, which cleanly
    encodes "this state cannot be served" inside a well-formed model.
    """
    by_out: dict[str, list[int]] = defaultdict(list)
    by_in: dict[str, list[int]] = defaultdict(list)
    for k, (a, b) in enumerate(arcs):
        by_out[a].append(k)
        by_in[b].append(k)
    # Each router's conservation row over arc positions, alike for every demand.
    balance = {r.id: (by_in[r.id] + by_out[r.id],
                      [1.0] * len(by_in[r.id]) + [-1.0] * len(by_out[r.id]), "==", 0.0)
               for r in alive}
    routes: dict[tuple[str, str], dict[tuple[str, str], str]] = {}
    starts = []  # each demand's first flow column
    for s, t, volume in demands.pairs:
        prefix = f"Y_{tag}_{s}_{t}"
        names = [f"{prefix}_{a}_{b}" for a, b in arcs]
        transit = [r.id for r in alive if r.node not in (s, t) and balance[r.id][0]]
        rows, row_names = [balance[r] for r in transit], [f"balance_{prefix}_{r}" for r in transit]
        rhs, outside, served_term = float(volume), (), ([], [])
        if served is not None:
            column, weight = served(s, t, volume)
            rhs, outside, served_term = 0.0, (m._index[column],), ([len(names)], [-float(weight)])
        ends = []
        for node, sign in ((s, 1.0), (t, -1.0)):
            # Summed, not set: an arc between two routers at the endpoint nets
            # out to a 0.0 term, which the row keeps.
            terms: dict[int, float] = {}
            for r in alive:
                if r.node == node:
                    for k in by_out[r.id]:
                        terms[k] = terms.get(k, 0.0) + sign
                    for k in by_in[r.id]:
                        terms[k] = terms.get(k, 0.0) - sign
            ends.append((list(terms) + served_term[0], list(terms.values()) + served_term[1]))
        if all(ks for ks, _ in ends):
            rows += [(ks, vs, "==", rhs) for ks, vs in ends]
            row_names += [f"flow_{end}_{tag}_{s}_{t}" for end in ("src", "dst")]
            ends = []
        starts.append(m._add_block(names, 0.0, math.inf, False, rows, outside, row_names))
        routes[(s, t)] = dict(zip(arcs, names))
        # An endpoint no live router reaches (never with ``served``) goes by name.
        for (ks, vs), end in zip(ends, ("src", "dst")):
            if ks:
                m.add_constraint({names[k]: v for k, v in zip(ks, vs)}, "==", rhs,
                                 name=f"flow_{end}_{tag}_{s}_{t}")
            else:
                z = m.add_variable(f"impossible_{tag}_{s}_{t}_{end}", lb=0.0, ub=0.0)
                m.add_constraint({z: 1.0}, "==", 1.0, name=z)
    if starts:  # each arc's flow under every demand, then its capacity column
        n, rows = len(arcs), []
        outside = [j + k for j in starts for k in range(n)]
        for k, (column, constant) in enumerate(arcs.values()):
            ks, vs = list(range(k, len(starts) * n, n)), [1.0] * len(starts)
            if column is not None:
                ks, vs = ks + [len(outside)], vs + [-1.0]
                outside.append(m._index[column])
            rows.append((ks, vs, "<=", float(constant)))
        m._add_block((), 0.0, math.inf, False, rows, outside,
                     [f"cap_{tag}_{a}_{b}" for a, b in arcs])
    return routes


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
        costs=costs,
        fixed=fixed_design,
        tail_vars={},
        regen_vars={},
        port_vars={},
        blocks=[],
    )

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
            if len(topology.routers_at[r.node]) >= 2:
                dm.port_vars[r.id] = m.add_variable(f"P_{r.id}", integer=True)

    # The budget rule of the module docstring.  Per resource: its purchase
    # columns (none when operating), the fixed design's counts (none when
    # sizing) and the prior's.
    fixed = fixed_design or Design.priced(costs, {}, {}, {}, {}, ())
    tails = (dm.tail_vars, fixed.tails, prior.tail)
    ports = (dm.port_vars, fixed.ports, prior.port)
    regens = (dm.regen_vars, fixed.regens_reported, prior.regen)

    def add_budget(coeffs: dict[str, float], resource, key: str, name: str) -> None:
        bought, counts, prior_count = resource
        if fixed_design is None:
            coeffs[bought[key]] = -1.0
        m.add_constraint(coeffs, "<=", float(counts.get(key, 0) + prior_count(key)), name=name)

    for fi, scen in enumerate(scenarios):
        blk = ScenarioBlock(scen)
        dm.blocks.append(blk)
        alive = alive_routers(topology, scen)
        adjacency = sorted(regen_adjacency(topology, scen))

        # The two link families: external links between nodes, ended by
        # tails, and intra-node links between colocated routers, ended by
        # ports.  Each: its columns, their name prefix, its symmetry and
        # budget row prefixes, its resource and each router's peers.
        families = ((blk.caps, "X", "sym", "tail", tails, defaultdict(list)),
                    (blk.intra, "W", "symw", "port", ports, defaultdict(list)))

        # Link capacity columns, one per ordered pair of live routers.
        names = []
        for a in alive:
            for b in alive:
                if a.id != b.id:
                    cols, prefix, _, _, _, peers = families[a.node == b.node]
                    cols[(a.id, b.id)] = name = f"{prefix}_f{fi}_{a.id}_{b.id}"
                    names.append(name)
                    peers[a.id].append(b.id)
        m._add_block(names, 0.0, box, True, (), (), ())

        # A link unit is usable in both directions: tie the two orientations.
        for cols, _, sym, _, _, _ in families:
            for a, b in cols:
                if a < b:
                    m.add_constraint({cols[(a, b)]: 1.0, cols[(b, a)]: -1.0}, "==", 0.0,
                                     name=f"{sym}_f{fi}_{a}_{b}")

        # Every link unit takes one tail (external) or port (intra-node) at
        # each end router, per direction.
        for cols, _, _, end, resource, peers in families:
            for r, others in peers.items():
                add_budget({cols[(o, r)]: 1.0 for o in others},
                           resource, r, f"{end}_in_f{fi}_{r}")
                add_budget({cols[(r, o)]: 1.0 for o in others},
                           resource, r, f"{end}_out_f{fi}_{r}")

        canonical = [(a, b) for a, b in blk.caps if a < b]

        # Regen relay chains, one shared chain system per unordered link,
        # stamped from one block per pair of end nodes.  Hops leaving a
        # link's own source node are bookkeeping (fresh signal) and consume
        # no regen budget.
        regen_use: dict[str, dict[str, float]] = defaultdict(dict)
        shapes: dict[tuple[str, str], tuple] = {}
        for a, b in canonical:
            ends = (topology.home(a), topology.home(b))
            if ends not in shapes:
                shapes[ends] = _relay_shape(adjacency, topology.all_nodes, *ends, strengthen)
            hops, regen, rows, kinds = shapes[ends]
            tag = f"_f{fi}_{a}_{b}"
            names = [f"H{tag}_{u}_{v}" for u, v in hops]
            m._add_block(names, 0.0, box, True, rows, (m._index[blk.caps[(a, b)]],),
                         [f"{kind}{tag}{suffix}" for kind, suffix in kinds])
            blk.hops[(a, b)] = dict(zip(hops, names))
            for k in regen:
                regen_use[hops[k][0]][names[k]] = 1.0

        # Node regen budgets.
        for n in topology.all_nodes:
            if n in regen_use:
                add_budget(regen_use[n], regens, n, f"regen_f{fi}_{n}")

        # Multi-commodity flow over the per-scenario links.
        blk.flows = add_routing(
            m, f"f{fi}",
            {ab: (name, 0.0) for ab, name in (*blk.caps.items(), *blk.intra.items())},
            alive, demands,
        )

        if strengthen:
            # Capacity leaving a demand endpoint's routers is an integer at
            # least the volume it must carry, hence at least its ceiling.
            for n in topology.ip_nodes:
                need = max(out_dem.get(n, 0.0), in_dem.get(n, 0.0))
                if need <= 0:
                    continue
                coeffs = {
                    name: 1.0
                    for (a, b), name in blk.caps.items()
                    if topology.home(a) == n
                }
                if coeffs:
                    m.add_constraint(
                        coeffs,
                        ">=",
                        float(math.ceil(need - 1e-9)),
                        name=f"mindeg_f{fi}_{n}",
                    )

    if fixed_design is None:
        weighted = [
            (costs.tail, dm.tail_vars.values()),
            (costs.regen, dm.regen_vars.values()),
            (costs.port, dm.port_vars.values()),
        ]
    else:
        blocks = dm.blocks
        weighted = [
            (1.0, [n for blk in blocks for n in blk.caps.values()]),
            (1.0, [n for blk in blocks for n in blk.intra.values()]),
            (OPERATE_HOP_WEIGHT,
             [n for blk in blocks for hops in blk.hops.values() for n in hops.values()]),
            (OPERATE_FLOW_WEIGHT,
             [n for blk in blocks for fl in blk.flows.values() for n in fl.values()]),
        ]
    m.set_objective({name: w for w, names in weighted for name in names})
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
    for blk in dm.blocks:
        per_node: dict[str, int] = defaultdict(int)
        for a, b in blk.hops:
            units = iround(values.get(blk.caps[(a, b)], 0.0), f"cap {a}-{b}")
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
