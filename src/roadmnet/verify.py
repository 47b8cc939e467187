"""Independent verification: brute-force oracles and plan checkers.

Nothing in this module builds or solves a linear model.  The placement oracle
enumerates every candidate placement up to a cap and decides operability with
augmenting-path max-flow over explicitly enumerated link configurations; the
model oracle enumerates integer grids.  Both exist to catch bugs in the
optimization stack, so they deliberately share no machinery with it.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque
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
        key = (u, v) if u <= v else (v, u)
        span = alive.get(key)
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
    for rid, used in plan.tail_usage().items():
        if used > design.tails.get(rid, 0):
            violations.append(
                f"router {rid} uses {used} tails of {design.tails.get(rid, 0)}"
            )
    for rid, used in plan.port_usage().items():
        if used > design.ports.get(rid, 0):
            violations.append(
                f"router {rid} uses {used} ports of {design.ports.get(rid, 0)}"
            )
    for node, used in plan.regen_usage().items():
        if used > design.regens_reported.get(node, 0):
            violations.append(
                f"node {node} uses {used} regens of "
                f"{design.regens_reported.get(node, 0)}"
            )
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


def _max_flow(caps: Mapping[tuple[str, str], int], source: str, sink: str) -> int:
    """Integral max-flow by BFS augmentation (Edmonds-Karp)."""
    residual: dict[str, dict[str, int]] = defaultdict(dict)
    for (u, v), c in caps.items():
        residual[u][v] = residual[u].get(v, 0) + c
        residual[v].setdefault(u, 0)
    flow = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in sorted(residual[u]):
                if v not in parent and residual[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        bottleneck = math.inf
        v = sink
        while parent[v] is not None:
            u = parent[v]
            bottleneck = min(bottleneck, residual[u][v])
            v = u
        v = sink
        while parent[v] is not None:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] = residual[v].get(u, 0) + bottleneck
            v = u
        flow += bottleneck


def _simple_relay_paths(
    hops: set[tuple[str, str]], src: str, dst: str, limit: int = 4000
) -> list[tuple[str, ...]]:
    """Interior node tuples of all simple src->dst paths in the hop digraph."""
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
    # Keep only subset-minimal interior sets: anything larger is dominated.
    minimal: list[tuple[str, ...]] = []
    sets = [frozenset(r) for r in results]
    for i, cand in enumerate(sets):
        if any(other < cand for other in sets):
            continue
        if cand in [sets[j] for j in range(i)]:
            continue
        minimal.append(results[i])
    return minimal


def _demand_directions(
    topology: Topology, demands: DemandMatrix
) -> list[tuple[str, str, float]]:
    """Validate the oracle's demand domain and return the directions to route.

    Exact operability checking by per-direction max-flow is justified only for
    demands between a single unordered IP-node pair, each direction at most
    one capacity unit; anything richer is refused rather than approximated.
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
    scenario iff it dominates at least one row.
    """
    alive = alive_routers(topology, scenario)
    adjacency = regen_adjacency(topology, scenario)

    ext_links: list[tuple[str, str]] = []
    relay_options: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for i, a in enumerate(alive):
        for b in alive[i + 1:]:
            if a.node == b.node:
                continue
            key = (a.id, b.id) if a.id < b.id else (b.id, a.id)
            src = topology.home(key[0])
            dst = topology.home(key[1])
            hops = {
                (u, v) for (u, v) in adjacency if v != src and u != dst
            }
            paths = _simple_relay_paths(hops, src, dst)
            if paths:
                ext_links.append(key)
                relay_options[key] = paths
    intra_links = [
        ((a.id, b.id) if a.id < b.id else (b.id, a.id))
        for i, a in enumerate(alive)
        for b in alive[i + 1:]
        if a.node == b.node
    ]

    n_sites = len(site_index)
    rows: list[np.ndarray] = []
    all_links = ext_links + intra_links
    for mask in range(1 << len(all_links)):
        active = [all_links[i] for i in range(len(all_links)) if mask >> i & 1]
        active_ext = [l for l in active if l in relay_options]
        caps: dict[tuple[str, str], int] = {}
        for a, b in active:
            caps[(a, b)] = 1
            caps[(b, a)] = 1
        routable = True
        for s, t, volume in demands:
            net = dict(caps)
            for r in alive:
                if r.node == s:
                    net[("SRC*", r.id)] = 2
                if r.node == t:
                    net[(r.id, "DST*")] = 2
            if _max_flow(net, "SRC*", "DST*") < volume - REACH_EPS:
                routable = False
                break
        if not routable:
            continue
        base = np.zeros(n_sites, dtype=np.int16)
        for a, b in active:
            kind = "port" if topology.home(a) == topology.home(b) else "tail"
            base[site_index[(kind, a)]] += 1
            base[site_index[(kind, b)]] += 1
        for combo in itertools.product(
            *(relay_options[l] for l in active_ext)
        ):
            row = base.copy()
            for interior in combo:
                for node in interior:
                    row[site_index[("regen", node)]] += 1
            rows.append(row)

    if not rows:
        raise OracleError(
            f"no link configuration can serve {scenario.label()}"
        )
    mat = np.vstack(rows)
    # Reduce to the minimal antichain under elementwise dominance.
    keep: list[int] = []
    for i in range(mat.shape[0]):
        dominated = False
        for j in range(mat.shape[0]):
            if i == j:
                continue
            if np.all(mat[j] <= mat[i]) and (
                np.any(mat[j] < mat[i]) or j < i
            ):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return mat[keep]


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

    space = 1
    for flag in priced:
        if flag:
            space *= caps + 1
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
    total = int(np.prod(dims)) if dims else 1
    grid = np.indices(dims, dtype=np.int16).reshape(len(priced_idx), total).T

    placements = np.zeros((total, len(sites)), dtype=np.int16)
    placements[:, priced_idx] = grid
    placements[:, pinned_idx] = caps

    feasible = np.ones(total, dtype=bool)
    for mat in frontiers:
        ok = np.zeros(total, dtype=bool)
        for row in mat:
            ok |= np.all(placements >= row, axis=1)
        feasible &= ok
        if not feasible.any():
            raise OracleError(f"no placement within caps {caps} serves all scenarios")

    cost = placements[:, priced_idx].astype(float) @ unit_costs[priced_idx]
    cost[~feasible] = np.inf
    best = int(np.argmin(cost))
    best_cost = float(cost[best])

    # Report pinned (zero-cost) sites at what the winning placement actually
    # needs, not at the cap: per scenario, the cheapest dominated row.
    chosen = placements[best].copy()
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
    variables = model.variables
    for var in variables:
        if not var.integer:
            raise ValueError(f"variable {var.name!r} is continuous")
        if math.isinf(var.lb) or math.isinf(var.ub):
            raise ValueError(f"variable {var.name!r} is unbounded")
    if len(variables) == 0:
        return 0.0, {}
    lows = np.array([int(v.lb) for v in variables], dtype=np.int64)
    highs = np.array([int(v.ub) for v in variables], dtype=np.int64)
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
        for con in model.constraints:
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
