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
writes every flow model in the package (sizing and operating here, the
fixed-link baseline ``design_legacy`` and transient rating
``evaluate_transient``): one block of flow variables, conservation and
endpoint rows per demand, and one of arc-capacity rows.  A caller gives each
arc's capacity, a column, a constant or both, and transient rating also each
demand's served column.  Ids go into variable and row names through
``_key``, so no two columns share a name.  ``Design.covering`` is the one
place counts become a priced ``Design``, whichever algorithm produced them.

The built ``DesignModel`` keeps the shared placement variables once and one
``ScenarioBlock`` per failure state holding that state's capacity, hop and
flow variables, so every row of a scenario, and every reader of its solution
(``DesignModel.usage``, ``operation.extract_plan``), touches only its own
block.  Every tail, port and regen budget row follows one rule: usage minus
the purchase column is at most what is owned when sizing, and usage is at
most what is owned when operating, where owned is the prior's count plus,
when operating, the fixed design's.  External links (ended by tails) and
intra-node links (ended by ports) are built alike, by one loop over the two.

Every column and row goes in by position, through ``LinearModel._add_block``:
when sizing, one block each of T, R and P purchase columns; then per failure
state the X/W capacity columns with their symmetry and tail and port budget
rows (the purchase columns taken from outside), one H block per external
link, one block of regen budget rows, ``add_routing``'s blocks and, when
strengthening, one block of ``mindeg`` rows.
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
    def covering(
        cls,
        topology: Topology,
        costs: CostModel,
        usages: Iterable[Sequence[Mapping[str, int]]],
        statuses: Iterable[str],
    ) -> Design:
        """The tightest placement covering every (tails, regens, ports,
        launches) usage, as ``OperationPlan.usage`` and ``DesignModel.usage``
        give them: elementwise maxima, with every router and node counted,
        zero when unused, and costs rolled up.

        Launch hops need no physical regen, so only the raw totals include
        them.  The design is "optimal" when every solve behind it was.
        """
        routers, nodes = [r.id for r in topology.routers], topology.all_nodes
        counts = [dict.fromkeys(keys, 0) for keys in (routers, nodes, routers, nodes)]
        for usage in usages:
            for count, used in zip(counts, usage):
                for key, units in used.items():
                    count[key] = max(count[key], units)
        tails, regens, ports, launches = counts
        reported = (
            costs.tail * sum(tails.values())
            + costs.regen * sum(regens.values())
            + costs.port * sum(ports.values())
        )
        return cls(
            tails=tails,
            regens_raw={n: v + launches[n] for n, v in regens.items()},
            regens_reported=regens,
            ports=ports,
            total_cost_raw=reported + costs.regen * sum(launches.values()),
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

    def usage(self, values: Mapping[str, float]) -> tuple[dict[str, int], ...]:
        """(tails, regens, ports, launches) of a solved sizing model, as
        ``OperationPlan.usage`` gives them for a plan: tails, regens and
        ports bought, read from the purchase columns, and launch hops per
        node, the most of any failure state.  Each link unit launches once
        from its source router's node, so a state's launch hops at node n
        are the units of the links whose source router is homed at n.
        """
        bought = [
            {key: iround(values[name], f"{what} {key}") for key, name in columns.items()}
            for what, columns in (("tails", self.tail_vars), ("regens", self.regen_vars),
                                  ("ports", self.port_vars))
        ]
        launches: dict[str, int] = {}
        for blk in self.blocks:
            per_node: dict[str, int] = defaultdict(int)
            for a, b in blk.hops:
                units = iround(values.get(blk.caps[(a, b)], 0.0), f"cap {a}-{b}")
                per_node[self.topology.home(a)] += units
            for n, used in per_node.items():
                launches[n] = max(launches.get(n, 0), used)
        return (*bought, launches)


def _key(name: str) -> str:
    """An id as it goes into a variable or row name: ``%`` and ``_`` are
    percent-encoded, so every ``_`` in a name joins two of its parts and two
    different id tuples never give one name."""
    return name.replace("%", "%25").replace("_", "%5F")


def _relay_shape(adjacency: Sequence[tuple[str, str]], nodes: Sequence[str], src: str,
                 dst: str, strengthen: bool, label: Mapping[str, str]):
    """The relay-chain block of each router link from node src to node dst.

    Returns the hops (u, v) a chain may use, in adjacency order, each hop's
    name part (``label`` gives each node's), the positions of those that
    use a regen (all but launch hops), the rows as ``LinearModel._add_block``
    takes them, with hop positions as columns (``len(hops)``: the link's
    capacity), and a (kind, suffix) name per row: relay rows at intermediate
    nodes, then launch, land and, when it applies, relaylen.
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
            names.append(("relay", f"_{label[n]}"))
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
    return hops, [f"{label[u]}_{label[v]}" for u, v in hops], regen, rows, names


def add_routing(
    m: LinearModel,
    tag: str,
    arcs: Mapping[tuple[str, str], tuple[str | None, float]],
    alive: Sequence[Router],
    demands: DemandMatrix,
    served: Mapping[tuple[str, str], tuple[str, float]] | None = None,
) -> dict[tuple[str, str], dict[tuple[str, str], str]]:
    """Route every demand over ``arcs``; returns each demand's arc -> flow map.

    ``arcs`` maps each directed router arc to its capacity, ``(column,
    constant)``: the arc's total flow fits the column (None: no column) plus
    the constant.  ``tag``, the failure state (``f{index}``), goes into every
    variable and row name.  Each demand (s, t), in order, is one block: a
    variable ``Y_{tag}_{s}_{t}_{a}_{b}`` per arc, a conservation row at every
    live router homed away from both endpoints that an arc touches, then the
    source row (net outflow of node s's live routers) and the destination row
    (net inflow of node t's).  Each endpoint row asks for the demand's
    volume; with ``served``, which maps each demand to ``(column, weight)``,
    it asks instead for weight times that column.  The arc-capacity rows
    follow the last demand as one more block.

    An arc between two routers of one node nets out of that node's endpoint
    rows, so it has no term there.  An endpoint no other node's arc reaches
    gets an empty row: ``0 = volume``, which no solve satisfies, or ``served
    = 0``.
    """
    home = {r.id: r.node for r in alive}
    label = {r: _key(r) for arc in arcs for r in arc}
    by_out: dict[str, list[int]] = defaultdict(list)
    by_in: dict[str, list[int]] = defaultdict(list)
    # Each node's endpoint terms, alike for every demand: the positions of
    # its arcs to and from other nodes, the source row's signs and the
    # destination row's.
    ends: dict[str, tuple[list, list, list]] = defaultdict(lambda: ([], [], []))
    for k, (a, b) in enumerate(arcs):
        by_out[a].append(k)
        by_in[b].append(k)
        for r, sign in ((a, 1.0), (b, -1.0)):
            if r in home and home.get(a) != home.get(b):
                for terms, x in zip(ends[home[r]], (k, sign, -sign)):
                    terms.append(x)
    # The conservation row of each live router an arc touches.
    balance = [(r.node, label[r.id], (by_in[r.id] + by_out[r.id],
                [1.0] * len(by_in[r.id]) + [-1.0] * len(by_out[r.id]), "==", 0.0))
               for r in alive if r.id in label]
    arc_labels = [f"{label[a]}_{label[b]}" for a, b in arcs]
    routes: dict[tuple[str, str], dict[tuple[str, str], str]] = {}
    starts = []  # each demand's first flow column
    for s, t, volume in demands.pairs:
        pair = f"{tag}_{_key(s)}_{_key(t)}"
        names = [f"Y_{pair}_{ab}" for ab in arc_labels]
        rhs, outside, ks, vs = float(volume), (), [], []
        if served is not None:
            column, weight = served[(s, t)]
            rhs, outside, ks, vs = 0.0, (m._index[column],), [len(names)], [-float(weight)]
        (src, out, _), (dst, _, into) = ends[s], ends[t]
        transit = [(r, row) for node, r, row in balance if node != s and node != t]
        rows = [row for _, row in transit] + [(src + ks, out + vs, "==", rhs),
                                              (dst + ks, into + vs, "==", rhs)]
        row_names = [f"balance_Y_{pair}_{r}" for r, _ in transit]
        row_names += [f"flow_src_{pair}", f"flow_dst_{pair}"]
        starts.append(m._add_block(names, 0.0, math.inf, False, rows, outside, row_names))
        routes[(s, t)] = dict(zip(arcs, names))
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
                     [f"cap_{tag}_{ab}" for ab in arc_labels])
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

    # No minimal operation ever needs more units on one link than the total
    # offered volume, so capacities and hops live in a box of that size.
    box = float(math.ceil(demands.total_offered - 1e-9)) if strengthen else math.inf
    out_dem: dict[str, float] = defaultdict(float)
    in_dem: dict[str, float] = defaultdict(float)
    for s, t, volume in demands.pairs:
        out_dem[s] += volume
        in_dem[t] += volume

    # Every router and node id as it goes into a name.
    label = {x: _key(x) for x in (*topology.all_nodes, *(r.id for r in topology.routers))}
    # The purchase columns, when sizing: one block each of T per router, R per
    # node and P per router with a colocated peer.  Per resource, each key's
    # column name (``named``) and column (``at``).
    routers = [r.id for r in topology.routers]
    multi = [r for r in routers if len(topology.routers_at[topology.home(r)]) >= 2]
    named, at = [], []
    for prefix, keys in (("T", routers), ("R", topology.all_nodes), ("P", multi)):
        names = [f"{prefix}_{label[k]}" for k in keys] if fixed_design is None else []
        first = m._add_block(names, 0.0, math.inf, True, (), (), ())
        named.append(dict(zip(keys, names)))
        at.append(dict(zip(keys, range(first, first + len(names)))))
    dm = DesignModel(m, topology, costs, fixed_design, *named, blocks=[])

    # The budget rule of the module docstring.  Per resource: its purchase
    # columns (none when operating), then the counts owned: the fixed
    # design's (none when sizing) and the prior's.  ``budget`` gives key's row
    # over block positions ks; a purchase column joins ``outside``, whose
    # positions start at ``base``.
    held = ((fixed_design.tails, fixed_design.regens_reported, fixed_design.ports)
            if fixed_design else ({}, {}, {}))
    tails, regens, ports = zip(at, held, (prior.tails, prior.regens, prior.ports))

    def budget(ks: list[int], resource, key: str, outside: list[int], base: int):
        bought, fixed, prior_counts = resource
        vs = [1.0] * len(ks)
        if key in bought:
            ks, vs = ks + [base + len(outside)], vs + [-1.0]
            outside.append(bought[key])
        return ks, vs, "<=", float(fixed.get(key, 0) + prior_counts.get(key, 0))

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

        # Link capacity columns, one per ordered pair of live routers, and
        # each one's position in the block.
        names, pos = [], {}
        for a in alive:
            for b in alive:
                if a.id != b.id:
                    cols, prefix, _, _, _, peers = families[a.node == b.node]
                    cols[(a.id, b.id)] = name = f"{prefix}_f{fi}_{label[a.id]}_{label[b.id]}"
                    pos[(a.id, b.id)] = len(names)
                    names.append(name)
                    peers[a.id].append(b.id)
        rows, row_names, outside = [], [], []

        # A link unit is usable in both directions: tie the two orientations.
        for cols, _, sym, _, _, _ in families:
            for a, b in cols:
                if a < b:
                    rows.append(([pos[(a, b)], pos[(b, a)]], [1.0, -1.0], "==", 0.0))
                    row_names.append(f"{sym}_f{fi}_{label[a]}_{label[b]}")

        # Every link unit takes one tail (external) or port (intra-node) at
        # each end router, per direction.
        for _, _, _, end, resource, peers in families:
            for r, others in peers.items():
                for way, ks in (("in", [pos[(o, r)] for o in others]),
                                ("out", [pos[(r, o)] for o in others])):
                    rows.append(budget(ks, resource, r, outside, len(names)))
                    row_names.append(f"{end}_{way}_f{fi}_{label[r]}")
        start = m._add_block(names, 0.0, box, True, rows, outside, row_names)

        canonical = [(a, b) for a, b in blk.caps if a < b]

        # Regen relay chains, one shared chain system per unordered link,
        # stamped from one block per pair of end nodes.  Hops leaving a
        # link's own source node are bookkeeping (fresh signal) and consume
        # no regen budget.
        regen_use: dict[str, list[int]] = defaultdict(list)
        shapes: dict[tuple[str, str], tuple] = {}
        for a, b in canonical:
            ends = (topology.home(a), topology.home(b))
            if ends not in shapes:
                shapes[ends] = _relay_shape(adjacency, topology.all_nodes, *ends, strengthen, label)
            hops, hop_labels, regen, rows, kinds = shapes[ends]
            tag = f"_f{fi}_{label[a]}_{label[b]}"
            names = [f"H{tag}_{uv}" for uv in hop_labels]
            first = m._add_block(names, 0.0, box, True, rows, (start + pos[(a, b)],),
                                 [f"{kind}{tag}{suffix}" for kind, suffix in kinds])
            blk.hops[(a, b)] = dict(zip(hops, names))
            for k in regen:
                regen_use[hops[k][0]].append(first + k)

        # Node regen budgets, one block of rows.
        rows, row_names, outside = [], [], []
        for n in topology.all_nodes:
            if n in regen_use:
                ks = list(range(len(outside), len(outside) + len(regen_use[n])))
                outside += regen_use[n]
                rows.append(budget(ks, regens, n, outside, 0))
                row_names.append(f"regen_f{fi}_{label[n]}")
        m._add_block((), 0.0, math.inf, False, rows, outside, row_names)

        # Multi-commodity flow over the per-scenario links.
        blk.flows = add_routing(
            m, f"f{fi}",
            {ab: (name, 0.0) for ab, name in (*blk.caps.items(), *blk.intra.items())},
            alive, demands,
        )

        if strengthen:
            # Capacity leaving a demand endpoint's routers is an integer at
            # least the volume it must carry, hence at least its ceiling.
            rows, row_names = [], []
            for n in topology.ip_nodes:
                need = max(out_dem.get(n, 0.0), in_dem.get(n, 0.0))
                ks = [k for k, (a, _) in enumerate(blk.caps) if topology.home(a) == n]
                if need > 0 and ks:
                    rows.append((ks, [1.0] * len(ks), ">=", float(math.ceil(need - 1e-9))))
                    row_names.append(f"mindeg_f{fi}_{label[n]}")
            m._add_block((), 0.0, math.inf, False, rows,
                         [start + pos[ab] for ab in blk.caps], row_names)

    if fixed_design is None:
        weighted = [(c, n.values()) for c, n in zip((costs.tail, costs.regen, costs.port), named)]
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


def extract_design(dm: DesignModel, result: SolveResult) -> Design:
    """Read a solved sizing model back into a Design: the cover of its usage."""
    if dm.fixed is not None:
        raise ValueError("extract_design needs a sizing model, not an operation model")
    if not result.ok:
        raise ValueError(f"cannot extract a design from status {result.status!r}")
    return Design.covering(dm.topology, dm.costs, [dm.usage(result.values)], [result.status])
