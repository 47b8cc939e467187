"""Physical network model: nodes, spans, routers, demands, failures.

The physical layer is an undirected graph whose vertices are IP nodes (sites
that house routers) and optical nodes (pure switching sites), joined by fiber
spans with mileages.  Optical reach is limited: a signal must be regenerated
before it travels more than ``regen_dist`` miles.  Everything downstream --
design models, operation plans, verification oracles -- works against the
immutable types defined here.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping


class TopologyError(ValueError):
    """Raised for structurally invalid topologies, demands, costs or scenarios."""


SpanKey = tuple[str, str]

# Distance sums of integral mileages are exact in floating point, but general
# mileages deserve a hair of slack at the reach boundary.
REACH_EPS = 1e-9


def span_key(u: str, v: str) -> SpanKey:
    """Canonical (sorted) endpoint pair identifying an undirected span."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Span:
    """One fiber span between two sites, ``miles`` long."""

    u: str
    v: str
    miles: float

    @property
    def key(self) -> SpanKey:
        return span_key(self.u, self.v)


@dataclass(frozen=True)
class Router:
    """A router, identified by ``id`` and homed at IP node ``node``."""

    id: str
    node: str


@dataclass(frozen=True)
class Topology:
    """Immutable physical topology.

    Args:
        ip_nodes: IP node ids, in declaration order.
        optical_nodes: optical node ids, in declaration order.
        routers: routers, each homed at one of the IP nodes.
        spans: undirected fiber spans over the union of all nodes.
        regen_dist: optical reach in miles; a lightpath needs a regenerator
            before exceeding this distance.

    Raises:
        TopologyError: on duplicate ids, dangling references, non-positive
            or non-finite mileage, a non-positive or NaN reach (an infinite
            one is allowed), router-less IP nodes, or a disconnected span
            graph.
    """

    ip_nodes: tuple[str, ...]
    optical_nodes: tuple[str, ...]
    routers: tuple[Router, ...]
    spans: tuple[Span, ...]
    regen_dist: float = 1000.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "ip_nodes", tuple(self.ip_nodes))
        object.__setattr__(self, "optical_nodes", tuple(self.optical_nodes))
        object.__setattr__(self, "routers", tuple(self.routers))
        object.__setattr__(self, "spans", tuple(self.spans))
        self._validate()

    def _validate(self) -> None:
        nodes = list(self.ip_nodes) + list(self.optical_nodes)
        if not nodes:
            raise TopologyError("topology has no nodes")
        if len(set(nodes)) != len(nodes):
            raise TopologyError("node ids must be unique across IP and optical nodes")
        node_set = set(nodes)

        seen_routers: set[str] = set()
        homed: set[str] = set()
        for r in self.routers:
            if r.id in seen_routers:
                raise TopologyError(f"duplicate router id {r.id!r}")
            seen_routers.add(r.id)
            if r.node not in self.ip_nodes:
                raise TopologyError(f"router {r.id!r} homed at non-IP node {r.node!r}")
            homed.add(r.node)
        for n in self.ip_nodes:
            if n not in homed:
                raise TopologyError(f"IP node {n!r} has no router")

        seen_spans: set[SpanKey] = set()
        for s in self.spans:
            if s.u not in node_set or s.v not in node_set:
                raise TopologyError(f"span {s.u!r}-{s.v!r} references unknown node")
            if s.u == s.v:
                raise TopologyError(f"span {s.u!r}-{s.v!r} is a self-loop")
            if s.miles <= 0:
                raise TopologyError(f"span {s.u!r}-{s.v!r} has non-positive mileage")
            if not math.isfinite(s.miles):
                raise TopologyError(f"span {s.u!r}-{s.v!r} has mileage {s.miles}")
            if s.key in seen_spans:
                raise TopologyError(f"duplicate span {s.u!r}-{s.v!r}")
            seen_spans.add(s.key)

        if not self.regen_dist > 0:  # also true for NaN; an infinite reach is allowed
            raise TopologyError("regen_dist must be positive")

        # Connectivity over every node (a stranded site can never be served).
        if len(nodes) > 1:
            adj: dict[str, list[str]] = {n: [] for n in nodes}
            for s in self.spans:
                adj[s.u].append(s.v)
                adj[s.v].append(s.u)
            seen = {nodes[0]}
            stack = [nodes[0]]
            while stack:
                for m in adj[stack.pop()]:
                    if m not in seen:
                        seen.add(m)
                        stack.append(m)
            if len(seen) != len(nodes):
                missing = sorted(node_set - seen)
                raise TopologyError(f"span graph is disconnected (unreachable: {missing})")

    # -- lookups ---------------------------------------------------------

    @cached_property
    def all_nodes(self) -> tuple[str, ...]:
        return self.ip_nodes + self.optical_nodes

    @cached_property
    def router_by_id(self) -> dict[str, Router]:
        return {r.id: r for r in self.routers}

    @cached_property
    def routers_at(self) -> dict[str, tuple[Router, ...]]:
        out: dict[str, list[Router]] = {n: [] for n in self.ip_nodes}
        for r in self.routers:
            out[r.node].append(r)
        return {n: tuple(rs) for n, rs in out.items()}

    @cached_property
    def span_by_key(self) -> dict[SpanKey, Span]:
        return {s.key: s for s in self.spans}

    def home(self, router_id: str) -> str:
        return self.router_by_id[router_id].node


@dataclass(frozen=True)
class DemandMatrix:
    """Offered traffic between IP node pairs, in capacity units.

    One entry per ordered (src, dst) pair; units are finite, non-negative
    multiples of the link capacity unit (0.8 means 80% of one unit), and so
    is their total.
    """

    entries: tuple[tuple[str, str, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(tuple(e) for e in self.entries))
        seen: set[tuple[str, str]] = set()
        for src, dst, units in self.entries:
            if src == dst:
                raise TopologyError(f"demand {src!r}->{dst!r} is a self-demand")
            if units < 0:
                raise TopologyError(f"demand {src!r}->{dst!r} has negative volume")
            if not math.isfinite(units):
                raise TopologyError(f"demand {src!r}->{dst!r} has volume {units}")
            if (src, dst) in seen:
                raise TopologyError(f"duplicate demand entry {src!r}->{dst!r}")
            seen.add((src, dst))
        if not math.isfinite(self.total_offered):
            raise TopologyError(f"total demand volume is {self.total_offered}")

    @cached_property
    def pairs(self) -> tuple[tuple[str, str, float], ...]:
        """Entries with strictly positive volume, declaration order."""
        return tuple((s, t, u) for s, t, u in self.entries if u > 0)

    @property
    def total_offered(self) -> float:
        return sum(u for _, _, u in self.pairs)

    def validate_against(self, topology: Topology) -> None:
        ip = set(topology.ip_nodes)
        for src, dst, _ in self.entries:
            if src not in ip or dst not in ip:
                raise TopologyError(f"demand {src!r}->{dst!r} references a non-IP node")


@dataclass(frozen=True)
class CostModel:
    """Unit prices for the three placeable resources, finite and non-negative."""

    tail: float = 1.0
    regen: float = 1.0
    port: float = 0.0

    def __post_init__(self) -> None:
        for kind in ("tail", "regen", "port"):
            price = getattr(self, kind)
            if price < 0:
                raise TopologyError(f"negative {kind} cost")
            if not math.isfinite(price):
                raise TopologyError(f"{kind} cost is {price}")


@dataclass(frozen=True)
class FailureScenario:
    """A single failure state: nothing, one span cut, or one router down.

    Under a router failure the optical layer is intact: spans survive and the
    router's node still switches light and hosts regenerators; only the router
    itself (its tails, ports and terminated links) is unavailable.
    """

    kind: str  # "none" | "span" | "router"
    target: SpanKey | str | None = None

    @classmethod
    def no_failure(cls) -> "FailureScenario":
        return cls("none", None)

    @classmethod
    def span_cut(cls, u: str, v: str) -> "FailureScenario":
        return cls("span", span_key(u, v))

    @classmethod
    def router_down(cls, router_id: str) -> "FailureScenario":
        return cls("router", router_id)

    def __post_init__(self) -> None:
        if self.kind not in ("none", "span", "router"):
            raise TopologyError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "none" and self.target is not None:
            raise TopologyError("no-failure scenario takes no target")
        if self.kind == "span":
            if not (isinstance(self.target, tuple) and len(self.target) == 2):
                raise TopologyError("span scenario target must be an endpoint pair")
            object.__setattr__(self, "target", span_key(*self.target))
        if self.kind == "router" and not isinstance(self.target, str):
            raise TopologyError("router scenario target must be a router id")

    def label(self) -> str:
        if self.kind == "none":
            return "no-failure"
        if self.kind == "span":
            return f"span:{self.target[0]}~{self.target[1]}"
        return f"router:{self.target}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.label()


def validate_scenario(topology: Topology, scenario: FailureScenario) -> None:
    """Check that the scenario's target exists in the topology."""
    if scenario.kind == "span" and scenario.target not in topology.span_by_key:
        raise TopologyError(f"scenario cuts unknown span {scenario.target}")
    if scenario.kind == "router" and scenario.target not in topology.router_by_id:
        raise TopologyError(f"scenario fails unknown router {scenario.target!r}")


def enumerate_failures(topology: Topology) -> list[FailureScenario]:
    """All single-failure states: no failure first, then every span cut in
    declaration order, then every router failure in declaration order."""
    out = [FailureScenario.no_failure()]
    out.extend(FailureScenario.span_cut(s.u, s.v) for s in topology.spans)
    out.extend(FailureScenario.router_down(r.id) for r in topology.routers)
    return out


def surviving_spans(topology: Topology, scenario: FailureScenario) -> tuple[Span, ...]:
    """Spans usable under the scenario (router failures cut nothing optical)."""
    validate_scenario(topology, scenario)
    if scenario.kind != "span":
        return topology.spans
    return tuple(s for s in topology.spans if s.key != scenario.target)


def dead_routers(topology: Topology, scenario: FailureScenario) -> frozenset[str]:
    validate_scenario(topology, scenario)
    if scenario.kind != "router":
        return frozenset()
    return frozenset((scenario.target,))


def alive_routers(topology: Topology, scenario: FailureScenario) -> tuple[Router, ...]:
    dead = dead_routers(topology, scenario)
    return tuple(r for r in topology.routers if r.id not in dead)


def _span_adjacency(
    topology: Topology, scenario: FailureScenario
) -> dict[str, list[tuple[str, float]]]:
    """Each node's surviving spans within reach: no signal crosses a span
    longer than ``regen_dist``, so such a span is left out."""
    adj: dict[str, list[tuple[str, float]]] = {n: [] for n in topology.all_nodes}
    limit = topology.regen_dist + REACH_EPS
    for s in surviving_spans(topology, scenario):
        if s.miles > limit:
            continue
        adj[s.u].append((s.v, s.miles))
        adj[s.v].append((s.u, s.miles))
    for n in adj:
        adj[n].sort()
    return adj


def _dijkstra(
    adj: Mapping[str, list[tuple[str, float]]], source: str
) -> dict[str, tuple[float, tuple[str, ...]]]:
    """Single-source shortest paths.

    Ties are broken toward the lexicographically smallest node sequence, which
    keeps every downstream artifact (walks, span lists, reports) deterministic.
    """
    best: dict[str, tuple[float, tuple[str, ...]]] = {}
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (source,))]
    while heap:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if node in best:
            continue
        best[node] = (dist, path)
        for nbr, miles in adj[node]:
            if nbr not in best:
                heapq.heappush(heap, (dist + miles, path + (nbr,)))
    return best


def _distances(
    adj: Mapping[str, list[tuple[str, float]]], source: str, limit: float = math.inf
) -> dict[str, float]:
    """Single-source shortest distances up to ``limit``: :func:`_dijkstra`
    without the paths.

    Sums of positive mileages only grow, so each node settles at the same
    float as in :func:`_dijkstra`, whichever of its equal paths is found,
    and every node within ``limit`` settles before the search passes it.
    """
    best: dict[str, float] = {}
    heap: list[tuple[float, str]] = [(0.0, source)]
    while heap:
        dist, node = heapq.heappop(heap)
        if dist > limit:
            break
        if node in best:
            continue
        best[node] = dist
        for nbr, miles in adj[node]:
            if nbr not in best:
                heapq.heappush(heap, (dist + miles, nbr))
    return best


def shortest_distances(
    topology: Topology, scenario: FailureScenario | None = None
) -> dict[tuple[str, str], float]:
    """All-pairs shortest span distances under the scenario, over the
    spans within reach (a span longer than ``regen_dist`` is left out).

    Unreachable pairs map to ``math.inf``; the diagonal is 0.
    """
    scenario = scenario or FailureScenario.no_failure()
    adj = _span_adjacency(topology, scenario)
    out: dict[tuple[str, str], float] = {}
    for src in topology.all_nodes:
        reach = _distances(adj, src)
        for dst in topology.all_nodes:
            out[(src, dst)] = reach.get(dst, math.inf)
    return out


def shortest_path(
    topology: Topology,
    scenario: FailureScenario,
    src: str,
    dst: str,
) -> tuple[str, ...] | None:
    """Shortest surviving node walk src..dst over spans within reach, or
    None if there is none.

    Among equally short walks, the lexicographically smallest node sequence
    is returned.
    """
    adj = _span_adjacency(topology, scenario)
    reach = _dijkstra(adj, src)
    if dst not in reach:
        return None
    return reach[dst][1]


def regen_adjacency(
    topology: Topology, scenario: FailureScenario | None = None
) -> frozenset[tuple[str, str]]:
    """Ordered node pairs a signal can cross without regeneration.

    (u, v) is included when the surviving shortest-span distance is at most
    ``regen_dist`` (reaching exactly the boundary is allowed).  Each search
    stops at that reach.
    """
    scenario = scenario or FailureScenario.no_failure()
    adj = _span_adjacency(topology, scenario)
    limit = topology.regen_dist + REACH_EPS
    return frozenset(
        (u, v)
        for u in topology.all_nodes
        for v in _distances(adj, u, limit)
        if u != v
    )
