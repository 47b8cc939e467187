from __future__ import annotations

import dataclasses
import math
import random

import pytest

from roadmnet.io import load_inputs
from roadmnet.topology import (
    REACH_EPS,
    CostModel,
    DemandMatrix,
    FailureScenario,
    Router,
    Span,
    Topology,
    TopologyError,
    alive_routers,
    dead_routers,
    enumerate_failures,
    regen_adjacency,
    shortest_distances,
    shortest_path,
    span_key,
    surviving_spans,
    validate_scenario,
)
from roadmnet.topology import _dijkstra, _distances, _span_adjacency

from conftest import fixture_path
from instances import MICRO_SEEDS, micro_instance, toy_network


def small_topology(**overrides) -> Topology:
    base = dict(
        ip_nodes=("A", "B"),
        optical_nodes=("X",),
        routers=(Router("a1", "A"), Router("b1", "B")),
        spans=(Span("A", "X", 100.0), Span("X", "B", 100.0), Span("A", "B", 250.0)),
        regen_dist=1000.0,
    )
    base.update(overrides)
    return Topology(**base)


def test_span_key_orders_endpoints():
    assert span_key("Z", "A") == ("A", "Z")
    assert Span("Z", "A", 10.0).key == ("A", "Z")


def test_valid_topology_lookups():
    topo = small_topology()
    assert topo.all_nodes == ("A", "B", "X")
    assert topo.home("a1") == "A"
    assert [r.id for r in topo.routers_at["A"]] == ["a1"]
    assert topo.span_by_key[("A", "X")].miles == 100.0


@pytest.mark.parametrize(
    "overrides,match",
    [
        (dict(routers=(Router("a1", "A"), Router("a1", "B"))), "duplicate"),
        (dict(routers=(Router("a1", "A"), Router("b1", "Q"))), "Q"),
        (dict(routers=(Router("a1", "A"),)), "B"),
        (dict(spans=(Span("A", "A", 5.0),)), "self"),
        (
            dict(
                spans=(
                    Span("A", "X", 10.0),
                    Span("X", "A", 20.0),
                    Span("X", "B", 10.0),
                )
            ),
            "duplicate",
        ),
        (dict(spans=(Span("A", "X", 0.0), Span("X", "B", 10.0))), "positive"),
        (dict(spans=(Span("A", "B", 10.0),)), "connect"),
        (dict(regen_dist=0.0), "regen_dist"),
        (dict(ip_nodes=("A", "B", "A")), "unique"),
        (dict(optical_nodes=("A",)), "unique"),
    ],
)
def test_invalid_topologies_rejected(overrides, match):
    with pytest.raises(TopologyError, match=match):
        small_topology(**overrides)


def test_span_referencing_unknown_node_rejected():
    with pytest.raises(TopologyError):
        small_topology(spans=(Span("A", "Nowhere", 10.0), Span("A", "X", 1.0),
                              Span("X", "B", 1.0)))


def test_enumerate_failures_order_and_count():
    topo, _, _ = toy_network()
    scens = enumerate_failures(topo)
    assert len(scens) == 1 + 8 + 4
    assert scens[0].kind == "none"
    assert [s.target for s in scens[1:9]] == [s.key for s in topo.spans]
    assert [s.target for s in scens[9:]] == ["R1", "R2", "R3", "R4"]


def test_scenario_labels():
    assert FailureScenario.no_failure().label() == "no-failure"
    assert FailureScenario.span_cut("Z", "A").label() == "span:A~Z"
    assert FailureScenario.router_down("r9").label() == "router:r9"


def test_validate_scenario_rejects_unknown_targets():
    topo = small_topology()
    validate_scenario(topo, FailureScenario.span_cut("X", "A"))
    with pytest.raises(TopologyError):
        validate_scenario(topo, FailureScenario.span_cut("A", "Q"))
    with pytest.raises(TopologyError):
        validate_scenario(topo, FailureScenario.router_down("nope"))


def test_surviving_spans_and_routers():
    topo = small_topology()
    cut = FailureScenario.span_cut("A", "X")
    keys = [s.key for s in surviving_spans(topo, cut)]
    assert ("A", "X") not in keys and len(keys) == 2

    down = FailureScenario.router_down("a1")
    assert dead_routers(topo, down) == frozenset({"a1"})
    assert [r.id for r in alive_routers(topo, down)] == ["b1"]
    # The optical layer does not care about router failures.
    assert len(surviving_spans(topo, down)) == 3


def test_shortest_distances_toy():
    topo, _, _ = toy_network()
    dist = shortest_distances(topo)
    assert dist[("N1", "N2")] == 1800.0
    assert dist[("N2", "N1")] == 1800.0
    assert dist[("N1", "N1")] == 0.0
    cut = FailureScenario.span_cut("O1", "O2")
    assert shortest_distances(topo, cut)[("N1", "N2")] == 2700.0


def test_shortest_distance_inf_when_disconnected():
    topo = small_topology(spans=(Span("A", "X", 10.0), Span("X", "B", 10.0)))
    cut = FailureScenario.span_cut("A", "X")
    assert shortest_distances(topo, cut)[("A", "B")] == math.inf
    assert shortest_path(topo, cut, "A", "B") is None


def test_shortest_path_prefers_lexicographic_ties():
    topo = Topology(
        ip_nodes=("A", "D"),
        optical_nodes=("B", "C"),
        routers=(Router("a1", "A"), Router("d1", "D")),
        spans=(
            Span("A", "B", 100.0),
            Span("B", "D", 100.0),
            Span("A", "C", 100.0),
            Span("C", "D", 100.0),
        ),
        regen_dist=1000.0,
    )
    assert shortest_path(topo, FailureScenario.no_failure(), "A", "D") == (
        "A",
        "B",
        "D",
    )


def test_regen_adjacency_boundary():
    topo = small_topology(
        spans=(Span("A", "X", 1000.0), Span("X", "B", 1000.5)),
        regen_dist=1000.0,
    )
    adj = regen_adjacency(topo)
    assert ("A", "X") in adj and ("X", "A") in adj  # exactly at the limit
    assert ("X", "B") not in adj
    assert ("A", "B") not in adj


def test_regen_adjacency_under_failure():
    topo, _, _ = toy_network()
    nf = regen_adjacency(topo)
    assert ("N1", "O2") in nf  # 900 over the top route
    cut = regen_adjacency(topo, FailureScenario.span_cut("O1", "O2"))
    assert ("N1", "O2") not in cut  # forced onto the 1800-mile bottom route
    assert ("N1", "O4") in cut


def test_demand_matrix_basics():
    dm = DemandMatrix(entries=(("A", "B", 0.8), ("B", "A", 0.0)))
    assert dm.pairs == (("A", "B", 0.8),)
    assert dm.total_offered == 0.8
    topo = small_topology()
    dm.validate_against(topo)
    with pytest.raises(TopologyError):
        DemandMatrix(entries=(("A", "X", 1.0),)).validate_against(topo)


def test_demand_matrix_rejects_bad_entries():
    with pytest.raises(TopologyError):
        DemandMatrix(entries=(("A", "A", 1.0),))
    with pytest.raises(TopologyError):
        DemandMatrix(entries=(("A", "B", -0.5),))


def test_cost_model_defaults():
    costs = CostModel()
    assert (costs.tail, costs.regen, costs.port) == (1.0, 1.0, 0.0)


def test_non_finite_numbers_rejected():
    for miles in (math.nan, math.inf):
        with pytest.raises(TopologyError, match="mileage"):
            small_topology(spans=(Span("A", "X", miles), Span("X", "B", 10.0)))
    with pytest.raises(TopologyError, match="regen_dist"):
        small_topology(regen_dist=math.nan)
    assert small_topology(regen_dist=math.inf).regen_dist == math.inf
    for units in (math.nan, math.inf):
        with pytest.raises(TopologyError, match="volume"):
            DemandMatrix(entries=(("A", "B", units),))
    for price in (math.nan, math.inf):
        with pytest.raises(TopologyError, match="port cost"):
            CostModel(port=price)


def _uneven_grid(seed: int) -> Topology:
    """A 3x3 grid with random non-integral mileages, whose path sums round."""
    rng = random.Random(seed)
    names = [f"V{i}" for i in range(9)]
    spans = [Span(names[i], names[i + 1], rng.uniform(0.1, 900.0))
             for i in range(9) if i % 3 != 2]
    spans += [Span(names[i], names[i + 3], rng.choice((0.1, 0.2, 0.3, 700.7)))
              for i in range(6)]
    return Topology(ip_nodes=("V0", "V8"), optical_nodes=tuple(names[1:8]),
                    routers=(Router("r0", "V0"), Router("r8", "V8")), spans=tuple(spans))


def test_distances_are_the_path_dijkstras_bit_for_bit():
    topologies = [load_inputs(fixture_path(name))[0] for name in ("toy2x5", "grid3x3_600")]
    topologies += [micro_instance(seed)[0] for seed in MICRO_SEEDS]
    topologies += [_uneven_grid(seed) for seed in range(10)]
    checked = 0
    for topo in topologies:
        for scenario in enumerate_failures(topo):
            adj = _span_adjacency(topo, scenario)
            for src in topo.all_nodes:
                want = {node: dist.hex() for node, (dist, _) in _dijkstra(adj, src).items()}
                got = {node: dist.hex() for node, dist in _distances(adj, src).items()}
                assert got == want, (scenario, src)
                checked += 1
    assert checked > 2000


def all_pairs_regen_adjacency(topo: Topology, scenario: FailureScenario):
    """regen_adjacency as it was: every shortest distance, then a filter."""
    limit = topo.regen_dist + REACH_EPS
    return frozenset((u, v) for (u, v), d in shortest_distances(topo, scenario).items()
                     if u != v and d <= limit)


def test_regen_adjacency_stops_at_reach_with_the_same_pairs():
    topologies = [load_inputs(fixture_path(name))[0] for name in ("toy2x5", "grid3x3_600")]
    topologies += [micro_instance(seed)[0] for seed in MICRO_SEEDS]
    for seed in range(10):
        grid = _uneven_grid(seed)
        # Reaches that land exactly on some node pair's distance, and none.
        dists = sorted({d for d in shortest_distances(grid).values() if 0 < d < math.inf})
        topologies += [dataclasses.replace(grid, regen_dist=reach)
                       for reach in (dists[0], dists[len(dists) // 2], dists[-1], math.inf)]
        topologies.append(grid)
    # A-X-B runs exactly the reach plus REACH_EPS, then 0.1 + 0.2 is
    # 0.30000000000000004, just past 0.3 but within REACH_EPS.
    at_reach = small_topology(spans=(Span("A", "X", 400.25), Span("X", "B", 599.75)),
                              regen_dist=1000.0 - REACH_EPS)
    assert at_reach.regen_dist + REACH_EPS == 400.25 + 599.75
    topologies.append(at_reach)
    topologies.append(small_topology(spans=(Span("A", "X", 0.1), Span("X", "B", 0.2)),
                                     regen_dist=0.3))
    checked = 0
    for topo in topologies:
        for scenario in enumerate_failures(topo):
            got = regen_adjacency(topo, scenario)
            assert got == all_pairs_regen_adjacency(topo, scenario), scenario
            checked += len(got)
    assert ("A", "B") in regen_adjacency(at_reach)
    assert ("A", "B") in regen_adjacency(topologies[-1])
    assert checked > 10_000
