"""Independent verification: brute-force oracles and plan checkers.

Nothing in this module builds or solves a linear model.  The placement oracle
enumerates every candidate placement up to a cap and decides operability by
graph reachability, worked out for every unit-capacity link configuration at
once (exact for its one-pair, at-most-one-unit demands); the model
oracle enumerates integer grids.  Both exist to catch bugs in the
optimization stack, so they deliberately share no machinery with it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

import numpy as np

from .design import Design
from .milp import LinearModel
from .operation import OperationPlan
from .topology import (
    REACH_EPS,
    CostModel,
    DemandMatrix,
    FailureScenario,
    Topology,
    TopologyError,
    alive_routers,
    dead_routers,
    regen_adjacency,
    span_key,
    surviving_spans,
    validate_scenario,
)

_TOL = 1e-6

SEARCH_SPACE_LIMIT = 10_000_000


class OracleError(RuntimeError):
    """The oracle cannot answer (unsupported input or nothing within caps)."""


class OracleSearchSpaceError(OracleError):
    """The placement search space exceeds the enumeration guard."""

    def __init__(self, size: int):
        super().__init__(
            f"search space of {size} placements exceeds the "
            f"{SEARCH_SPACE_LIMIT} enumeration guard"
        )
        self.size = size


# ---------------------------------------------------------------------------
# Plan checkers
# ---------------------------------------------------------------------------


def check_regen_feasible_path(
    topology: Topology,
    scenario: FailureScenario,
    walk: Sequence[str],
    regens: Iterable[str],
) -> bool:
    """Is the walk optically viable with regens at the given nodes?

    The walk must follow surviving spans (anything else raises); the answer is
    True when every regen-free stretch, measured from the walk's start or the
    previous regen site, stays within ``regen_dist``.
    """
    validate_scenario(topology, scenario)
    if len(walk) < 2:
        raise TopologyError("walk needs at least two nodes")
    alive = {s.key: s for s in surviving_spans(topology, scenario)}
    regen_set = set(regens)
    limit = topology.regen_dist + REACH_EPS
    stretch = 0.0
    for u, v in zip(walk, walk[1:]):
        span = alive.get(span_key(u, v))
        if span is None:
            raise TopologyError(f"walk uses missing or cut span {u}-{v}")
        stretch += span.miles
        if stretch > limit:
            return False
        if v in regen_set:
            stretch = 0.0
    return True


def check_flow_conservation(
    plan: OperationPlan, demands: DemandMatrix
) -> list[str]:
    """Violations of per-commodity flow balance in the plan, if any."""
    topology = plan.topology
    dead = dead_routers(topology, plan.scenario)
    violations: list[str] = []
    for s, t, volume in demands.pairs:
        net: dict[str, float] = defaultdict(float)
        for (ds, dt, a, b), v in plan.flows.items():
            if (ds, dt) != (s, t):
                continue
            net[a] -= v
            net[b] += v
        for r in topology.routers:
            if r.id in dead:
                continue
            if r.node == s or r.node == t:
                continue
            if abs(net[r.id]) > _TOL:
                violations.append(
                    f"{s}->{t}: router {r.id} gains {net[r.id]:.3g} units"
                )
        src_net = sum(net[r.id] for r in topology.routers
                      if r.node == s and r.id not in dead)
        dst_net = sum(net[r.id] for r in topology.routers
                      if r.node == t and r.id not in dead)
        if abs(src_net + volume) > _TOL:
            violations.append(
                f"{s}->{t}: source emits {-src_net:.3g} of {volume:.3g} units"
            )
        if abs(dst_net - volume) > _TOL:
            violations.append(
                f"{s}->{t}: destination receives {dst_net:.3g} of {volume:.3g} units"
            )
    return violations


def check_plan_within_design(
    plan: OperationPlan, design: Design, demands: DemandMatrix
) -> list[str]:
    """Violations of the design's budgets and link capacities by the plan."""
    violations: list[str] = []
    for (a, b), units in plan.link_caps.items():
        if plan.link_caps.get((b, a)) != units:
            violations.append(f"asymmetric capacity on {a}-{b}")
    tails, regens, ports, _ = plan.usage()
    for holder, unit, usage, budget in (
        ("router", "tails", tails, design.tails),
        ("router", "ports", ports, design.ports),
        ("node", "regens", regens, design.regens_reported),
    ):
        for key, used in usage.items():
            if used > budget.get(key, 0):
                violations.append(f"{holder} {key} uses {used} {unit} of {budget.get(key, 0)}")
    load: dict[tuple[str, str], float] = defaultdict(float)
    for (_, _, a, b), v in plan.flows.items():
        load[(a, b)] += v
    for arc, total in load.items():
        if total > plan.link_caps.get(arc, 0) + _TOL:
            violations.append(
                f"arc {arc[0]}->{arc[1]} carries {total:.3g} over capacity "
                f"{plan.link_caps.get(arc, 0)}"
            )
    for (a, b), chains in plan.regen_chains.items():
        if len(chains) != plan.link_caps.get((a, b), 0):
            violations.append(
                f"link {a}-{b} has {len(chains)} chains for "
                f"{plan.link_caps.get((a, b), 0)} units"
            )
    return violations


# ---------------------------------------------------------------------------
# Placement oracle
# ---------------------------------------------------------------------------


def _simple_relay_paths(
    hops: set[tuple[str, str]], src: str, dst: str
) -> list[tuple[str, ...]]:
    """Interior node tuples of all simple src->dst paths in the hop digraph."""
    limit = 4000
    out_adj: dict[str, list[str]] = defaultdict(list)
    for u, v in hops:
        out_adj[u].append(v)
    for u in out_adj:
        out_adj[u].sort()
    results: list[tuple[str, ...]] = []

    def walk(node: str, seen: set[str], interior: list[str]) -> None:
        if len(results) > limit:
            raise OracleError("too many relay paths to enumerate")
        if node == dst:
            results.append(tuple(interior))
            return
        for nxt in out_adj.get(node, []):
            if nxt in seen:
                continue
            if nxt == dst:
                results.append(tuple(interior))
                continue
            seen.add(nxt)
            interior.append(nxt)
            walk(nxt, seen, interior)
            interior.pop()
            seen.remove(nxt)

    walk(src, {src}, [])
    # Keep only subset-minimal interior sets, each at its first path: anything
    # larger is dominated.
    minimal: list[tuple[str, ...]] = []
    sets = [frozenset(r) for r in results]
    distinct = set(sets)
    earlier: set[frozenset[str]] = set()
    for path, cand in zip(results, sets):
        if cand not in earlier and not any(other < cand for other in distinct):
            minimal.append(path)
        earlier.add(cand)
    return minimal


def _demand_directions(
    topology: Topology, demands: DemandMatrix
) -> list[tuple[str, str, float]]:
    """Validate the oracle's demand domain and return the directions to route.

    Exact operability checking by per-direction reachability is justified
    only for demands between a single unordered IP-node pair, each direction
    at most one capacity unit: the two directions of one pair never compete
    for a unit link's capacity, so a direction is served exactly when its
    volume is within ``REACH_EPS`` of zero or some source router reaches
    some sink router.  Anything richer is refused rather than approximated.
    """
    pairs = demands.pairs
    if not pairs:
        return []
    endpoints = {frozenset((s, t)) for s, t, _ in pairs}
    if len(endpoints) > 1:
        raise OracleError(
            "oracle supports demands between one node pair only"
        )
    for s, t, volume in pairs:
        if volume > 1.0 + REACH_EPS:
            raise OracleError(
                f"oracle supports volumes up to one unit ({s}->{t} asks {volume:g})"
            )
    return list(pairs)


def _relay_options(
    hops: frozenset[tuple[str, str]],
    src: str,
    dst: str,
    site_index: Mapping[tuple[str, str], int],
) -> np.ndarray:
    """The regens of each minimal relay option from src to dst, one row each."""
    paths = _simple_relay_paths(
        {(u, v) for (u, v) in hops if v != src and u != dst}, src, dst
    )
    n_sites = len(site_index)
    flat = [option * n_sites + site_index[("regen", node)]
            for option, interior in enumerate(paths) for node in interior]
    counts = np.bincount(np.array(flat, dtype=np.intp), minlength=len(paths) * n_sites)
    return counts.astype(np.int16).reshape(len(paths), n_sites)


def _reachable(
    n: int,
    links: Sequence[tuple[int, int]],
    on: np.ndarray,
    sources: Sequence[int],
    sinks: Sequence[int],
) -> np.ndarray:
    """On which link masks some source router reaches some sink router.

    The routers are ``0..n-1``, ``links[k]`` is an undirected link between
    two routers and ``on[k]`` says on which masks it is live.  Every mask is
    relaxed at once: each round, a router is reached on a mask when the far
    end of one of its links live on that mask was, so ``n - 1`` rounds reach
    all that a path can.
    """
    live = np.vstack([on, on])
    near = [i for i, _ in links] + [j for _, j in links]
    far = [j for _, j in links] + [i for i, _ in links]
    arrivals = np.zeros((n, len(near)), dtype=np.float32)
    arrivals[near, np.arange(len(near))] = 1
    reach = np.zeros((n, on.shape[1]), dtype=bool)
    reach[list(sources)] = True
    for _ in range(n - 1):
        step = reach | (arrivals @ (reach[far] & live) > 0)
        if np.array_equal(step, reach):
            break
        reach = step
    return reach[list(sinks)].any(axis=0)


def _scenario_frontier(
    topology: Topology,
    scenario: FailureScenario,
    demands: Sequence[tuple[str, str, float]],
    site_index: Mapping[tuple[str, str], int],
) -> np.ndarray:
    """Minimal placement requirement vectors for one scenario.

    Every row is the exact (tails, regens, ports) consumption of one way to
    operate the scenario with unit link capacities; a placement handles the
    scenario iff it dominates at least one row.  Only the minimal rows are
    returned, each at its first occurrence (see ``_minimal_rows``).

    A set of links is a mask over the external links (the low bits) and the
    intra-node links above them.  Reachability is worked out for every mask
    at once, and the rows follow the masks in increasing order, each mask's
    rows one per choice of relay option on its external links, the last
    link's choice varying fastest.
    """
    alive = alive_routers(topology, scenario)
    adjacency = regen_adjacency(topology, scenario)
    n_sites = len(site_index)

    # Every usable link, by its routers' positions in ``alive``, with one
    # row per way to run a unit on it: a tail at each end plus one relay
    # option's regens, or a port at each end of an intra-node link.  Relay
    # options depend only on the two end nodes.
    ext: list[tuple[int, int, np.ndarray]] = []
    intra: list[tuple[int, int, np.ndarray]] = []
    relays: dict[tuple[str, str], np.ndarray] = {}
    for i, a in enumerate(alive):
        for j, b in enumerate(alive[i + 1:], i + 1):
            first, second = (a, b) if a.id < b.id else (b, a)
            if a.node == b.node:
                row = np.zeros((1, n_sites), dtype=np.int16)
                row[0, [site_index[("port", first.id)], site_index[("port", second.id)]]] = 1
                intra.append((i, j, row))
                continue
            ends = (first.node, second.node)
            if ends not in relays:
                relays[ends] = _relay_options(adjacency, *ends, site_index)
            if len(relays[ends]):
                options = relays[ends].copy()
                options[:, [site_index[("tail", first.id)], site_index[("tail", second.id)]]] += 1
                ext.append((i, j, options))
    links = ext + intra

    # Bit k of a mask turns on ``links[k]``.  A direction within REACH_EPS
    # of zero needs no path at all.
    pairs = [(i, j) for i, j, _ in links]
    on = (np.arange(1 << len(links)) >> np.arange(len(links))[:, None] & 1).astype(bool)
    routable = np.ones(on.shape[1], dtype=bool)
    for s, t, volume in demands:
        if volume > REACH_EPS:
            routable &= _reachable(
                len(alive),
                pairs,
                on,
                [k for k, r in enumerate(alive) if r.node == s],
                [k for k, r in enumerate(alive) if r.node == t],
            )
    on = on[:, routable]
    if on.shape[1] == 0:
        raise OracleError(
            f"no link configuration can serve {scenario.label()}"
        )

    # A mask's rows number its live links' options in mixed radix: a live
    # link's stride is the product of the option counts of the live links
    # above it, and ``pos`` is each row's place among its mask's rows.
    sizes = np.ones(on.shape[1], dtype=np.int64)
    strides = []
    for k in range(len(links) - 1, -1, -1):
        strides.append(sizes)
        sizes = np.where(on[k], sizes * len(links[k][2]), sizes)
    strides.reverse()
    owner = np.repeat(np.arange(on.shape[1]), sizes)
    pos = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rows = np.zeros((len(owner), n_sites), dtype=np.int16)
    for k, (_, _, options) in enumerate(links):
        use = on[k, owner]
        rows[use] += options[pos[use] // strides[k][owner[use]] % len(options)]
    return _minimal_rows(rows)


def _minimal_rows(mat: np.ndarray) -> np.ndarray:
    """The minimal antichain of ``mat``'s rows under elementwise dominance.

    Keeps the first copy of every row that no other row strictly dominates,
    in the original order.  A strict dominator has a strictly smaller row
    sum, so the first row left in stable row-sum order is minimal and the
    first copy of its value: it is kept, and its later copies and every row
    it dominates are dropped with it.
    """
    left = np.argsort(mat.sum(axis=1), kind="stable")
    keep = []
    while len(left):
        keep.append(left[0])
        left = left[~np.all(mat[left] >= mat[left[0]], axis=1)]
    keep.sort()
    return mat[keep]


def _dominating_placements(
    requirements: np.ndarray, dims: Sequence[int]
) -> np.ndarray:
    """Which grid placements dominate at least one requirement row.

    The placements are the full grid of priced counts ``0..dims[k]-1``,
    flattened in C order (the first site varies slowest, as
    ``np.unravel_index`` reads them back).  The placements dominating one
    row form the box from the row's counts upward, so each row marks its box
    at once instead of being compared with every placement.  Every count
    must be below its dimension.
    """
    ok = np.zeros(dims, dtype=bool)
    for row in requirements:
        ok[tuple(slice(v, None) for v in row)] = True
    return ok.reshape(-1)


def oracle_design_search(
    topology: Topology,
    demands: DemandMatrix,
    costs: CostModel,
    scenarios: Sequence[FailureScenario],
    caps: int = 2,
) -> tuple[float, dict[str, dict[str, int]]]:
    """Exhaustive minimum-cost placement search, the slow but trusted answer.

    Enumerates every (tails, regens, ports) placement with positive-cost
    counts up to ``caps`` (zero-cost sites are pinned at the cap and priced
    at zero) and keeps the cheapest one that can operate every scenario.
    A placement operates a scenario when it dominates a row of the
    scenario's frontier.  Every row kept is within the caps and pinned sites
    sit at the cap, so the placements dominating a row are a box of the
    priced grid; each scenario's feasible set is the union of its rows'
    boxes, marked box by box rather than row against placement.  The grid is
    priced axis by axis, one slab of its first axis at a time, and the
    winner read back from its flat index, so no placement is ever
    materialised.

    Returns:
        (cost, witness) where witness maps "tails"/"regens"/"ports" to
        per-site counts.

    Raises:
        OracleError: demands outside the supported domain, or no placement
            within caps works.
        OracleSearchSpaceError: the enumeration would exceed the guard.
    """
    demand_dirs = _demand_directions(topology, demands)
    for scen in scenarios:
        validate_scenario(topology, scen)

    multi = {n for n in topology.ip_nodes if len(topology.routers_at[n]) >= 2}
    sites: list[tuple[str, str, float]] = []
    for r in topology.routers:
        sites.append(("tail", r.id, costs.tail))
    for n in topology.all_nodes:
        sites.append(("regen", n, costs.regen))
    for r in topology.routers:
        if r.node in multi:
            sites.append(("port", r.id, costs.port))
    site_index = {(kind, ident): i for i, (kind, ident, _) in enumerate(sites)}
    unit_costs = np.array([c for _, _, c in sites])
    priced = np.array([c > 0 for _, _, c in sites])

    space = (caps + 1) ** int(priced.sum())
    if space > SEARCH_SPACE_LIMIT:
        raise OracleSearchSpaceError(space)

    if not demand_dirs:
        zero = {"tails": {}, "regens": {}, "ports": {}}
        return 0.0, zero

    frontiers = []
    for scen in scenarios:
        mat = _scenario_frontier(topology, scen, demand_dirs, site_index)
        # Rows needing more than the cap (or pin) anywhere are unreachable.
        ok = np.all(mat <= caps, axis=1)
        mat = mat[ok]
        if mat.shape[0] == 0:
            raise OracleError(
                f"no placement within caps {caps} can serve {scen.label()}"
            )
        frontiers.append(mat)

    priced_idx = np.flatnonzero(priced)
    pinned_idx = np.flatnonzero(~priced)
    dims = [caps + 1] * len(priced_idx)

    feasible = np.ones(space, dtype=bool)
    for mat in frontiers:
        feasible &= _dominating_placements(mat[:, priced_idx], dims)
        if not feasible.any():
            raise OracleError(f"no placement within caps {caps} serves all scenarios")

    # Price the grid one axis at a time: each priced site adds its count
    # times its unit cost along its own axis.  The sums run in site order, so
    # the rounded costs, and the argmin among equal ones, are the same on
    # every machine.  One slab of the first axis is priced at a time and the
    # first cheapest placement kept, so only 1 / (caps + 1) of the grid's
    # costs exist at once.
    best, best_cost = 0, np.inf
    for first, ok in enumerate(feasible.reshape(caps + 1 if dims else 1, -1)):
        cost = np.zeros(dims[1:])
        for axis, site in enumerate(priced_idx):
            along = unit_costs[site] * np.arange(caps + 1)
            if axis == 0:
                cost += along[first]
            else:
                cost += along.reshape((-1,) + (1,) * (len(dims) - 1 - axis))
        cost = cost.reshape(-1)
        cost[~ok] = np.inf
        local = int(np.argmin(cost))
        if cost[local] < best_cost:
            best, best_cost = first * len(cost) + local, float(cost[local])

    # Report pinned (zero-cost) sites at what the winning placement actually
    # needs, not at the cap: per scenario, the cheapest dominated row.
    chosen = np.full(len(sites), caps, dtype=np.int16)
    chosen[priced_idx] = np.unravel_index(best, dims)
    needed_pinned = np.zeros(len(sites), dtype=np.int16)
    for mat in frontiers:
        dominated = mat[np.all(chosen >= mat, axis=1)]
        slack = dominated.sum(axis=1)
        row = dominated[int(np.argmin(slack))]
        needed_pinned = np.maximum(needed_pinned, row)
    chosen[pinned_idx] = needed_pinned[pinned_idx]

    witness: dict[str, dict[str, int]] = {"tails": {}, "regens": {}, "ports": {}}
    kind_key = {"tail": "tails", "regen": "regens", "port": "ports"}
    for (kind, ident, _), count in zip(sites, chosen):
        if count > 0:
            witness[kind_key[kind]][ident] = int(count)
    return best_cost, witness


# ---------------------------------------------------------------------------
# Model oracle
# ---------------------------------------------------------------------------


def enumerate_milp_minimum(
    model: LinearModel, max_states: int = 20_000_000
) -> tuple[float | None, dict[str, float] | None]:
    """Exhaustive minimum of a pure-integer, box-bounded model.

    Returns (None, None) when no assignment is feasible (a model without
    variables has one, the empty assignment).  Refuses models with
    continuous variables, unbounded integers, or too many states to sweep.
    Assignments are swept in chunks so memory stays flat regardless of the
    state count.
    """
    variables, constraints = model.variables, model.constraints
    for var in variables:
        if not var.integer:
            raise ValueError(f"variable {var.name!r} is continuous")
        if math.isinf(var.lb) or math.isinf(var.ub):
            raise ValueError(f"variable {var.name!r} is unbounded")
    # An integer variable takes the integers within its bounds.  Count them
    # in Python ints before any int64 array exists, so a range too wide to
    # sweep is refused instead of overflowing int64 or wrapping negative.
    lows = [math.ceil(v.lb) for v in variables]
    sizes = [math.floor(v.ub) - low + 1 for v, low in zip(variables, lows)]
    if any(size < 1 for size in sizes):
        return None, None
    total = math.prod(sizes)
    if total > max_states:
        raise ValueError(f"{total} assignments exceed the sweep limit")
    # A sweep of few states can still lie beyond int64, where float64 cannot
    # tell the integers apart either.
    bound = np.iinfo(np.int64)
    for var, low, size in zip(variables, lows, sizes):
        if low < bound.min or low + size - 1 > bound.max:
            raise ValueError(f"variable {var.name!r} has integer bounds beyond int64")
    lows, sizes = np.array(lows, dtype=np.int64), np.array(sizes, dtype=np.int64)

    index = {v.name: i for i, v in enumerate(variables)}
    obj = np.zeros(len(variables))
    for name, coef in model.objective.items():
        obj[index[name]] = coef
    # Place value of each digit when flat index 0 maps to all-lower-bounds
    # and the first variable varies slowest (mixed-radix, big-endian).
    place = np.ones(len(variables), dtype=np.int64)
    for i in range(len(variables) - 2, -1, -1):
        place[i] = place[i + 1] * sizes[i + 1]

    chunk = 200_000
    best_val = math.inf
    best_row: np.ndarray | None = None
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total), dtype=np.int64)
        grid = (flat[:, None] // place[None, :]) % sizes[None, :] + lows[None, :]
        feasible = np.ones(len(flat), dtype=bool)
        for con in constraints:
            lhs = np.zeros(len(flat))
            for name, coef in con.coeffs:
                lhs += coef * grid[:, index[name]]
            if con.sense == "<=":
                feasible &= lhs <= con.rhs + _TOL
            elif con.sense == ">=":
                feasible &= lhs >= con.rhs - _TOL
            else:
                feasible &= np.abs(lhs - con.rhs) <= _TOL
        if not feasible.any():
            continue
        values = grid.astype(float) @ obj
        values[~feasible] = np.inf
        local = int(np.argmin(values))
        if values[local] < best_val - 1e-12:
            best_val = float(values[local])
            best_row = grid[local].copy()
    if best_row is None:
        return None, None
    assignment = {v.name: float(best_row[i]) for i, v in enumerate(variables)}
    return best_val, assignment
