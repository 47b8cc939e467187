"""Independent verification: brute-force oracles and plan checkers.

Nothing in this module builds or solves a linear model.  The placement oracle
enumerates every candidate placement up to a cap and decides operability by
graph reachability over explicitly enumerated unit-capacity link
configurations (exact for its one-pair, at-most-one-unit demands); the model
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
    for holder, unit, usage, budget in (
        ("router", "tails", plan.tail_usage(), design.tails),
        ("router", "ports", plan.port_usage(), design.ports),
        ("node", "regens", plan.regen_usage(), design.regens_reported),
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


def _connects(
    links: Iterable[tuple[str, str]],
    sources: Iterable[str],
    sinks: Iterable[str],
) -> bool:
    """Does some source router reach some sink router over the links?"""
    neighbours: dict[str, list[str]] = defaultdict(list)
    for a, b in links:
        neighbours[a].append(b)
        neighbours[b].append(a)
    targets = set(sinks)
    seen = set(sources)
    stack = list(seen)
    while stack:
        u = stack.pop()
        if u in targets:
            return True
        for v in neighbours[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


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
    returned, each at its first occurrence (see ``_minimal_rows``): distinct
    rows are swept by increasing row sum, one sum level at a time against
    the rows already kept.
    """
    alive = alive_routers(topology, scenario)
    adjacency = regen_adjacency(topology, scenario)

    ext_links: list[tuple[str, str]] = []
    intra_links: list[tuple[str, str]] = []
    relay_options: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for i, a in enumerate(alive):
        for b in alive[i + 1:]:
            key = (a.id, b.id) if a.id < b.id else (b.id, a.id)
            if a.node == b.node:
                intra_links.append(key)
                continue
            src = topology.home(key[0])
            dst = topology.home(key[1])
            hops = {
                (u, v) for (u, v) in adjacency if v != src and u != dst
            }
            paths = _simple_relay_paths(hops, src, dst)
            if paths:
                ext_links.append(key)
                relay_options[key] = paths

    n_sites = len(site_index)

    def counts(sites) -> np.ndarray:
        row = np.zeros(n_sites, dtype=np.int16)
        for site in sites:
            row[site_index[site]] += 1
        return row

    def subsets(links):
        return [[l for k, l in enumerate(links) if s >> k & 1]
                for s in range(1 << len(links))]

    # Worked out once per scenario: each relay option's regens, each subset
    # of the intra-node links with its ports and, on first use, each subset
    # of the external links with its tails plus one row per choice of relay
    # option on each link, the last link's choice varying fastest.
    regens = {
        link: np.array([counts(("regen", node) for node in interior) for interior in paths])
        for link, paths in relay_options.items()
    }
    intra = [(on, counts(("port", r) for link in on for r in link))
             for on in subsets(intra_links)]
    ext = subsets(ext_links)
    blocks: dict[int, np.ndarray] = {}

    rows: list[np.ndarray] = []
    # The routers each direction must connect; one within REACH_EPS of zero
    # needs no path at all.
    ends = [
        ([r.id for r in alive if r.node == s], [r.id for r in alive if r.node == t])
        for s, t, volume in demands
        if volume > REACH_EPS
    ]
    # Every set of links, as the bits of a mask over ext_links + intra_links
    # counting up: the external links are the low bits.
    for intra_on, ports in intra:
        for e, ext_on in enumerate(ext):
            active = ext_on + intra_on
            if not all(_connects(active, src, dst) for src, dst in ends):
                continue
            if e not in blocks:
                block = counts(("tail", r) for link in ext_on for r in link)[None, :]
                for link in ext_on:
                    block = (block[:, None, :] + regens[link][None, :, :]).reshape(-1, n_sites)
                blocks[e] = block
            rows.append(blocks[e] + ports)

    if not rows:
        raise OracleError(
            f"no link configuration can serve {scenario.label()}"
        )
    return _minimal_rows(np.vstack(rows))


def _minimal_rows(mat: np.ndarray) -> np.ndarray:
    """The minimal antichain of ``mat``'s rows under elementwise dominance.

    Keeps the first copy of every row that no other row strictly dominates,
    in the original order.  A strict dominator has a strictly smaller row
    sum, so the distinct rows are swept one sum level at a time, each level
    tested at once against the minimal rows of the lower levels; rows of
    equal sum cannot dominate one another.
    """
    _, first = np.unique(mat, axis=0, return_index=True)
    first.sort()
    rows = mat[first]
    sums = rows.sum(axis=1, dtype=np.int64)
    keep = np.zeros(len(rows), dtype=bool)
    for level in np.unique(sums):
        at_level = np.flatnonzero(sums == level)
        below = rows[keep]
        dominated = np.any(
            np.all(below[None, :, :] <= rows[at_level][:, None, :], axis=2),
            axis=1,
        )
        keep[at_level[~dominated]] = True
    return rows[keep]


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
    priced axis by axis and the winner read back from its flat index, so no
    placement is ever materialised.

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
    # every machine.
    cost = np.zeros(dims)
    for axis, site in enumerate(priced_idx):
        along = unit_costs[site] * np.arange(caps + 1)
        cost += along.reshape((-1,) + (1,) * (len(dims) - 1 - axis))
    cost = cost.reshape(-1)
    cost[~feasible] = np.inf
    best = int(np.argmin(cost))
    best_cost = float(cost[best])

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

    Returns (None, None) when no assignment is feasible.  Refuses models with
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
    if len(variables) == 0:
        return 0.0, {}
    # An integer variable takes the integers within its bounds.
    lows = np.array([math.ceil(v.lb) for v in variables], dtype=np.int64)
    highs = np.array([math.floor(v.ub) for v in variables], dtype=np.int64)
    if (highs < lows).any():
        return None, None
    sizes = highs - lows + 1
    # Count states in exact integer arithmetic; int64 would wrap silently.
    total = math.prod(int(s) for s in sizes)
    if total > max_states:
        raise ValueError(f"{total} assignments exceed the sweep limit")

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
