from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc
from collections import defaultdict, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadmnet import (
    CostModel,
    DemandMatrix,
    FailureScenario,
    InfeasibleDesignError,
    OperationPlan,
    OracleError,
    OracleSearchSpaceError,
    Router,
    Span,
    Topology,
    TopologyError,
    check_flow_conservation,
    check_plan_within_design,
    check_regen_feasible_path,
    design_optimal,
    enumerate_failures,
    enumerate_milp_minimum,
    oracle_design_search,
)
from roadmnet.milp import LinearModel, solve
from roadmnet.topology import REACH_EPS, alive_routers, regen_adjacency
from roadmnet.verify import (
    _demand_directions,
    _dominating_placements,
    _minimal_rows,
    _reachable,
    _scenario_frontier,
    _simple_relay_paths,
)

from instances import (
    MICRO_SEEDS,
    grid_network,
    micro_instance,
    random_integer_model,
    toy_network,
)

NF = FailureScenario.no_failure()


class TestOraclePins:
    def test_full_scenario_minimum(self, toy_inputs):
        topology, demands, costs = toy_inputs
        cost, witness = oracle_design_search(
            topology, demands, costs, enumerate_failures(topology)
        )
        assert cost == pytest.approx(6.0)
        assert witness["tails"] == {"R1": 1, "R2": 1, "R3": 1, "R4": 1}
        assert witness["regens"] == {"O2": 1, "O4": 1}
        assert witness["ports"] == {}

    def test_no_failure_minimum(self, toy_inputs):
        topology, demands, costs = toy_inputs
        cost, witness = oracle_design_search(topology, demands, costs, [NF])
        assert cost == pytest.approx(3.0)
        assert sum(witness["tails"].values()) == 2
        assert witness["regens"] == {"O2": 1}

    def test_long_reach_minimum(self, toy_inputs):
        topology, demands, costs = toy_inputs
        stretched = dataclasses.replace(topology, regen_dist=10000.0)
        cost, witness = oracle_design_search(
            stretched, demands, costs, enumerate_failures(stretched)
        )
        assert cost == pytest.approx(4.0)
        assert witness["regens"] == {}

    def test_no_demand_is_free(self, toy_inputs):
        topology, _, costs = toy_inputs
        cost, witness = oracle_design_search(
            topology, DemandMatrix(entries=()), costs,
            enumerate_failures(topology),
        )
        assert cost == 0.0
        assert witness == {"tails": {}, "regens": {}, "ports": {}}


    def test_all_sites_free(self, toy_inputs):
        # Nothing is priced, so the placement grid has no axes: one placement
        # with every site pinned at the cap, reported at what it needs.
        topology, demands, _ = toy_inputs
        free = CostModel(tail=0, regen=0, port=0)
        cost, witness = oracle_design_search(
            topology, demands, free, enumerate_failures(topology)
        )
        assert cost == 0.0
        assert witness == {
            "tails": {"R1": 1, "R2": 1, "R3": 1, "R4": 1},
            "regens": {"O2": 1, "O4": 1},
            "ports": {},
        }

    @pytest.mark.parametrize(
        "volume,expected", [(1e-10, 0.0), (REACH_EPS, 0.0), (2e-9, 6.0)]
    )
    def test_volume_within_reach_tolerance_needs_no_link(
        self, toy_inputs, volume, expected
    ):
        topology, _, costs = toy_inputs
        faint = DemandMatrix(entries=(("N1", "N2", volume),))
        cost, _ = oracle_design_search(
            topology, faint, costs, enumerate_failures(topology)
        )
        assert cost == expected

    def test_non_dyadic_unit_costs(self, toy_inputs):
        # Priced ports make 15 priced sites, so caps 1 keeps the grid small.
        topology, demands, _ = toy_inputs
        costs = CostModel(tail=0.3, regen=0.7, port=0.1)
        cost, witness = oracle_design_search(
            topology, demands, costs, enumerate_failures(topology), caps=1
        )
        assert cost == pytest.approx(2.6)
        assert witness == {
            "tails": {"R1": 1, "R2": 1, "R3": 1, "R4": 1},
            "regens": {"O2": 1, "O4": 1},
            "ports": {},
        }

    def test_memory_stays_flat_in_placements(self):
        # 13 priced sites at caps 2: 1,594,323 placements over all failures.
        # A placement matrix plus a float copy of its priced columns cost
        # about 183 bytes a placement, and a whole float cost grid about 10;
        # priced one slab of the first axis at a time it needs about 6.
        topology, demands, costs = micro_instance(7)
        placements = 3 ** 13
        tracemalloc.start()
        try:
            oracle_design_search(
                topology, demands, costs, enumerate_failures(topology)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * placements


def all_masks(n_links):
    """Which of links 0..n_links-1 each mask 0..2^n_links-1 turns on."""
    masks = np.arange(1 << n_links)
    return (masks >> np.arange(n_links)[:, None] & 1).astype(bool)


def _connects(links, sources, sinks):
    """Does some source router reach some sink router over the links?  The
    oracle's old one-mask-at-a-time search, kept as the reference."""
    neighbours = defaultdict(list)
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


def reference_max_flow(caps, source, sink):
    """Integral max-flow by BFS augmentation (Edmonds-Karp), kept as the
    reference for the oracle's reachability test."""
    residual = defaultdict(dict)
    for (u, v), c in caps.items():
        residual[u][v] = residual[u].get(v, 0) + c
        residual[v].setdefault(u, 0)
    neighbours = {u: sorted(out) for u, out in residual.items()}
    flow = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            out = residual[u]
            for v in neighbours.get(u, ()):
                if v not in parent and out[v] > 0:
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


def pairwise_minimal_rows(mat):
    """The original O(n^2) antichain loop, kept as the reference."""
    keep = []
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


def oracle_sites(topology):
    """The oracle's site index: tails, then regens, then ports at multi-router nodes."""
    multi = {n for n in topology.ip_nodes if len(topology.routers_at[n]) >= 2}
    sites = [("tail", r.id) for r in topology.routers]
    sites += [("regen", n) for n in topology.all_nodes]
    sites += [("port", r.id) for r in topology.routers if r.node in multi]
    return {site: i for i, site in enumerate(sites)}


def per_mask_frontier(topology, scenario, demands, site_index):
    """The original frontier loop, kept as the reference: one row per
    routable link mask and relay choice, built from scratch."""
    alive = alive_routers(topology, scenario)
    adjacency = regen_adjacency(topology, scenario)
    ext_links, intra_links, relay_options = [], [], {}
    for i, a in enumerate(alive):
        for b in alive[i + 1:]:
            key = (a.id, b.id) if a.id < b.id else (b.id, a.id)
            if a.node == b.node:
                intra_links.append(key)
                continue
            src, dst = topology.home(key[0]), topology.home(key[1])
            hops = {(u, v) for (u, v) in adjacency if v != src and u != dst}
            paths = _simple_relay_paths(hops, src, dst)
            if paths:
                ext_links.append(key)
                relay_options[key] = paths
    all_links = ext_links + intra_links
    ends = [
        ([r.id for r in alive if r.node == s], [r.id for r in alive if r.node == t])
        for s, t, volume in demands
        if volume > REACH_EPS
    ]
    rows = []
    for mask in range(1 << len(all_links)):
        active = [all_links[i] for i in range(len(all_links)) if mask >> i & 1]
        if not all(_connects(active, src, dst) for src, dst in ends):
            continue
        base = np.zeros(len(site_index), dtype=np.int16)
        for a, b in active:
            kind = "port" if topology.home(a) == topology.home(b) else "tail"
            base[site_index[(kind, a)]] += 1
            base[site_index[(kind, b)]] += 1
        for combo in itertools.product(*(relay_options[l] for l in active
                                         if l in relay_options)):
            row = base.copy()
            for interior in combo:
                for node in interior:
                    row[site_index[("regen", node)]] += 1
            rows.append(row)
    return _minimal_rows(np.vstack(rows))


def elementwise_sweep(mat, priced, caps):
    """The original placement-by-placement sweep, kept as the reference."""
    priced_idx = np.flatnonzero(priced)
    dims = [caps + 1] * len(priced_idx)
    total = int(np.prod(dims)) if dims else 1
    grid = np.indices(dims, dtype=np.int16).reshape(len(priced_idx), total).T
    placements = np.zeros((total, len(priced)), dtype=np.int16)
    placements[:, priced_idx] = grid
    placements[:, np.flatnonzero(~priced)] = caps
    ok = np.zeros(total, dtype=bool)
    for row in mat:
        ok |= np.all(placements >= row, axis=1)
    return ok


def random_rows(rng, kind):
    """Seeded int16 requirement matrices of the shapes the oracle meets."""
    width = int(rng.integers(1, 9))
    if kind == "random":
        return rng.integers(0, 4, size=(int(rng.integers(1, 60)), width),
                            dtype=np.int16)
    if kind == "duplicates":
        pool = rng.integers(0, 3, size=(int(rng.integers(1, 6)), width),
                            dtype=np.int16)
        return pool[rng.integers(0, len(pool), size=int(rng.integers(2, 80)))]
    if kind == "single":
        return rng.integers(0, 4, size=(1, width), dtype=np.int16)
    if kind == "all-equal":
        row = rng.integers(0, 4, size=(1, width), dtype=np.int16)
        return np.repeat(row, int(rng.integers(2, 10)), axis=0)
    # Rows of equal sum: permutations of one vector, none dominating another
    # unless equal.
    base = rng.integers(0, 4, size=width, dtype=np.int16)
    return np.stack([rng.permutation(base)
                     for _ in range(int(rng.integers(2, 30)))])


ROW_KINDS = ("random", "duplicates", "single", "all-equal", "equal-sum")


class TestOracleInternals:
    @pytest.mark.parametrize("kind", ROW_KINDS)
    def test_minimal_rows_match_pairwise_loop(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(40):
            mat = random_rows(rng, kind)
            got = _minimal_rows(mat)
            want = pairwise_minimal_rows(mat)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), mat

    @pytest.mark.parametrize("width,top", [
        (20, 8),
        (70, 2),  # wide rows
        (5, 2**13),  # high counts
    ], ids=["narrow", "wide", "high"])
    def test_minimal_rows_of_wide_and_high_rows_match_pairwise_loop(self, width, top):
        # Rows near a few bases, so that copies and dominated rows abound.
        rng = np.random.default_rng(width)
        for _ in range(20):
            bases = rng.integers(0, top - 1, size=(4, width), dtype=np.int16)
            bumps = (rng.random((60, width)) < 0.03).astype(np.int16)
            mat = bases[rng.integers(0, len(bases), size=60)] + bumps
            got = _minimal_rows(mat)
            want = pairwise_minimal_rows(mat)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), mat

    @pytest.mark.parametrize("kind", ROW_KINDS)
    def test_box_sweep_matches_elementwise_sweep(self, kind):
        rng = np.random.default_rng(100 + sum(map(ord, kind)))
        for _ in range(40):
            caps = int(rng.integers(1, 4))
            mat = np.minimum(random_rows(rng, kind), caps)
            priced = rng.random(mat.shape[1]) < 0.7
            if kind == "single":
                priced[:] = False  # no priced site: a grid of one placement
            dims = [caps + 1] * int(priced.sum())
            got = _dominating_placements(mat[:, priced], dims)
            assert np.array_equal(got, elementwise_sweep(mat, priced, caps))

    def test_frontier_matches_per_mask_loop(self):
        cases = [micro_instance(seed) for seed in MICRO_SEEDS]
        topology, demands, costs = toy_network()
        cases.append((topology, demands, costs))
        cases.append((topology, DemandMatrix(entries=(("N1", "N2", REACH_EPS),)), costs))
        # Through a dual-router IP node M, a route of two links (and a port
        # pair when they land on different routers) competes with one long
        # link, and each leg has two relay options.
        transit = Topology(
            ip_nodes=("N1", "M", "N2"),
            optical_nodes=("O1", "O2", "O3", "O4"),
            routers=(Router("A", "N1"), Router("M1", "M"), Router("M2", "M"),
                     Router("B", "N2")),
            spans=tuple(Span(u, v, 600.0) for u, v in (
                ("N1", "O1"), ("N1", "O3"), ("O1", "M"), ("O3", "M"),
                ("M", "O2"), ("M", "O4"), ("O2", "N2"), ("O4", "N2"))),
            regen_dist=1000.0,
        )
        cases.append((transit, DemandMatrix(entries=(("N1", "N2", 1.0),)), costs))
        frontiers = 0
        for topology, demands, _ in cases:
            dirs = _demand_directions(topology, demands)
            sites = oracle_sites(topology)
            for scenario in enumerate_failures(topology):
                try:
                    want = per_mask_frontier(topology, scenario, dirs, sites)
                except ValueError:  # np.vstack of no rows: nothing can serve it
                    with pytest.raises(OracleError, match="no link configuration"):
                        _scenario_frontier(topology, scenario, dirs, sites)
                    continue
                got = _scenario_frontier(topology, scenario, dirs, sites)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes() and got.shape == want.shape
                frontiers += 1
        assert frontiers > 600

    def test_reachability_matches_max_flow(self):
        # The oracle's routability rule, on every mask of each random link
        # set, against max-flow over the network it replaced (unit links
        # both ways, source and sink edges of 2) and against the old
        # one-mask-at-a-time search.
        rng = np.random.default_rng(7)
        volumes = (0.0, 1e-10, REACH_EPS, 0.5, 1.0, 1.0 + REACH_EPS)
        checked = set()
        for _ in range(120):
            n = int(rng.integers(2, 8))
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            links = [p for p in pairs if rng.random() < rng.random()]
            links = [links[k] for k in rng.permutation(len(links))[:7]]
            picks = rng.integers(0, 3, size=n)  # 0 source, 1 sink
            if rng.random() < 0.15:
                picks[picks == 0] = 2  # no live source router
            sources = [r for r in range(n) if picks[r] == 0]
            sinks = [r for r in range(n) if picks[r] == 1]
            reach = _reachable(n, links, all_masks(len(links)), sources, sinks)
            assert reach.shape == (1 << len(links),)
            for mask, got_reach in enumerate(reach):
                active = [l for k, l in enumerate(links) if mask >> k & 1]
                net = {}
                for a, b in active:
                    net[(f"r{a}", f"r{b}")] = net[(f"r{b}", f"r{a}")] = 1
                net.update({("SRC*", f"r{r}"): 2 for r in sources})
                net.update({(f"r{r}", "DST*"): 2 for r in sinks})
                flow = reference_max_flow(net, "SRC*", "DST*")
                assert got_reach == _connects(active, sources, sinks)
                checked.add(bool(got_reach))
                for volume in volumes:
                    want = flow >= volume - REACH_EPS
                    got = volume <= REACH_EPS or got_reach
                    assert got == want, (active, sources, sinks, volume)
        assert checked == {False, True}

    def test_reachability_needs_up_to_n_minus_one_rounds(self):
        # A chain 0-1-...-(n-1): the sink is n - 1 links away, reached only
        # on the mask with every link on.
        for n in range(2, 8):
            links = [(k, k + 1) for k in range(n - 1)]
            reach = _reachable(n, links, all_masks(n - 1), [0], [n - 1])
            assert np.flatnonzero(reach).tolist() == [(1 << (n - 1)) - 1]


class TestOracleScope:
    def test_rejects_multiple_pairs(self):
        topology, _, costs = toy_network()
        wide = DemandMatrix(entries=(("N1", "N2", 0.5), ("N2", "O1", 0.5)))
        with pytest.raises(TopologyError):
            wide.validate_against(topology)  # O1 is not even an IP node
        three_ip, _, _ = micro_instance(2)
        assert len(three_ip.ip_nodes) == 3
        spread = DemandMatrix(entries=(("s", "t", 0.5), ("s", "m", 0.5)))
        with pytest.raises(OracleError, match="one node pair"):
            oracle_design_search(three_ip, spread, costs, [NF])

    def test_rejects_heavy_volume(self, toy_inputs):
        topology, _, costs = toy_inputs
        heavy = DemandMatrix(entries=(("N1", "N2", 1.5),))
        with pytest.raises(OracleError, match="one unit"):
            oracle_design_search(topology, heavy, costs, [NF])

    def test_duplicate_direction_rejected_at_construction(self):
        # The demand type itself forbids repeating a (src, dst) entry, so the
        # oracle never sees volumes it cannot reason about per direction.
        with pytest.raises(TopologyError):
            DemandMatrix(entries=(("N1", "N2", 0.5), ("N1", "N2", 0.4)))

    def test_search_space_guard(self, toy_inputs):
        topology, demands, costs = toy_inputs
        with pytest.raises(OracleSearchSpaceError):
            oracle_design_search(topology, demands, costs, [NF], caps=30)

    def test_nothing_within_caps(self, toy_inputs):
        topology, demands, costs = toy_inputs
        with pytest.raises(OracleError, match="caps"):
            oracle_design_search(topology, demands, costs, [NF], caps=0)


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", (0, 3, 8, 14))
    def test_matches_joint_solve(self, seed):
        topology, demands, costs = micro_instance(seed)
        design, _ = design_optimal(topology, demands, costs)
        cost, _ = oracle_design_search(
            topology, demands, costs, enumerate_failures(topology)
        )
        assert design.solve_status == "optimal"
        assert cost == pytest.approx(design.total_cost_reported)


class TestOracleDifferential:
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(min_value=max(MICRO_SEEDS) + 1, max_value=2**32))
    def test_random_networks_match_joint_solve(self, seed):
        # Micro networks beyond the pinned seeds: the joint solve and the
        # oracle agree on the cost, or both find no design at all.
        topology, demands, costs = micro_instance(seed)
        failures = enumerate_failures(topology)
        try:
            design, _ = design_optimal(topology, demands, costs)
        except InfeasibleDesignError:
            with pytest.raises(OracleError):
                oracle_design_search(topology, demands, costs, failures)
            return
        cost, _ = oracle_design_search(topology, demands, costs, failures)
        assert design.solve_status == "optimal"
        assert cost == pytest.approx(design.total_cost_reported)


class TestCheckers:
    def test_regen_walk_boundaries(self, toy_inputs):
        topology, _, _ = toy_inputs
        top = ("N1", "O1", "O2", "O3", "N2")
        assert check_regen_feasible_path(topology, NF, top, ("O2",))
        assert not check_regen_feasible_path(topology, NF, top, ())
        assert not check_regen_feasible_path(topology, NF, top, ("O1",))
        # Regens at nodes the walk never visits change nothing.
        assert check_regen_feasible_path(topology, NF, top, ("O2", "O4"))

    def test_regen_walk_rejects_bad_walks(self, toy_inputs):
        topology, _, _ = toy_inputs
        with pytest.raises(TopologyError, match="two nodes"):
            check_regen_feasible_path(topology, NF, ("N1",), ())
        with pytest.raises(TopologyError, match="missing or cut"):
            check_regen_feasible_path(topology, NF, ("N1", "O2"), ())
        cut = FailureScenario.span_cut("O1", "O2")
        with pytest.raises(TopologyError, match="missing or cut"):
            check_regen_feasible_path(
                topology, cut, ("N1", "O1", "O2", "O3", "N2"), ("O2",)
            )

    def test_regen_walk_exact_reach(self):
        from roadmnet import Router, Span, Topology

        topology = Topology(
            ip_nodes=("A", "B"),
            optical_nodes=("X",),
            routers=(Router("a1", "A"), Router("b1", "B")),
            spans=(Span("A", "X", 1000.0), Span("X", "B", 1000.0)),
            regen_dist=1000.0,
        )
        assert check_regen_feasible_path(topology, NF, ("A", "X", "B"), ("X",))
        assert not check_regen_feasible_path(topology, NF, ("A", "X", "B"), ())

    def test_flow_conservation_flags_leaks(self, toy_inputs, toy_optimal):
        _, demands, _ = toy_inputs
        _, plans = toy_optimal
        plan = plans[NF]
        assert check_flow_conservation(plan, demands) == []
        (s, t, a, b), value = next(iter(plan.flows.items()))
        tampered = dataclasses.replace(
            plan, flows={**plan.flows, (s, t, a, b): value + 0.5}
        )
        assert check_flow_conservation(tampered, demands) != []

    def test_flow_conservation_transit_message(self):
        # n01a relays n00->n02 traffic but passes on only 0.5 of the 0.8
        # it takes in: it gains 0.3, and the destination is short by as much.
        topology, _, _ = grid_network(1, 3, ((0, 0), (0, 1), (0, 2)))
        demands = DemandMatrix(entries=(("n00", "n02", 0.8),))
        flows = {("n00", "n02", "n00a", "n01a"): 0.8, ("n00", "n02", "n01a", "n02a"): 0.5}
        plan = OperationPlan.from_links(topology, NF, (), flows)
        assert check_flow_conservation(plan, demands) == [
            "n00->n02: router n01a gains 0.3 units",
            "n00->n02: destination receives 0.5 of 0.8 units",
        ]

    def test_within_design_overloaded_arc_message(self, toy_inputs, toy_optimal):
        _, demands, _ = toy_inputs
        design, plans = toy_optimal
        plan = plans[NF]
        assert plan.link_caps == {("R1", "R4"): 1, ("R4", "R1"): 1}
        overloaded = dataclasses.replace(plan, flows={("N1", "N2", "R1", "R4"): 1.5})
        assert check_plan_within_design(overloaded, design, demands) == [
            "arc R1->R4 carries 1.5 over capacity 1",
        ]

    def test_within_design_flags_shortfalls(self, toy_inputs, toy_optimal):
        _, demands, _ = toy_inputs
        design, plans = toy_optimal
        plan = plans[NF]
        assert check_plan_within_design(plan, design, demands) == []

        (a, b, _), = plan.canonical_links()
        no_tails = dataclasses.replace(
            design, tails={**design.tails, a: 0}, regens_raw=design.regens_raw
        )
        problems = check_plan_within_design(plan, no_tails, demands)
        assert any("tails" in p for p in problems)

        lopsided = dataclasses.replace(
            plan, link_caps={**plan.link_caps, (b, a): 7}
        )
        problems = check_plan_within_design(lopsided, design, demands)
        assert any("asymmetric" in p for p in problems)

        chainless = dataclasses.replace(plan, regen_chains={(a, b): ()})
        problems = check_plan_within_design(chainless, design, demands)
        assert any("chains" in p for p in problems)

    def test_within_design_budget_messages(self, grid_inputs, grid_optimal):
        # Every count zeroed, and one intra-node link added so that ports
        # are used too: tails, then ports, then regens, each in plan order.
        _, demands, _ = grid_inputs
        design, plans = grid_optimal
        plan = plans[NF]
        plan = dataclasses.replace(
            plan, link_caps={**plan.link_caps, ("a1", "a2"): 2, ("a2", "a1"): 2}
        )
        empty = dataclasses.replace(
            design,
            tails=dict.fromkeys(design.tails, 0),
            ports=dict.fromkeys(design.ports, 0),
            regens_reported=dict.fromkeys(design.regens_reported, 0),
        )
        assert check_plan_within_design(plan, empty, demands) == [
            "router a1 uses 1 tails of 0",
            "router d2 uses 1 tails of 0",
            "router a1 uses 2 ports of 0",
            "router a2 uses 2 ports of 0",
            "node n10 uses 1 regens of 0",
            "node n11 uses 1 regens of 0",
            "node n21 uses 1 regens of 0",
        ]


class TestEnumeration:
    def test_refuses_continuous(self):
        m = LinearModel()
        m.add_variable("x", ub=1.0)
        with pytest.raises(ValueError, match="continuous"):
            enumerate_milp_minimum(m)

    def test_refuses_unbounded(self):
        m = LinearModel()
        m.add_variable("x", integer=True)
        with pytest.raises(ValueError, match="unbounded"):
            enumerate_milp_minimum(m)

    def test_refuses_oversized_sweeps(self):
        m = LinearModel()
        for i in range(40):
            m.add_variable(f"x{i}", ub=3, integer=True)
        m.add_constraint({"x0": 1}, "<=", 3)
        with pytest.raises(ValueError, match="exceed"):
            enumerate_milp_minimum(m)

    def test_empty_model(self):
        assert enumerate_milp_minimum(LinearModel()) == (0.0, {})

    def test_parity_infeasibility_detected(self):
        m = LinearModel()
        m.add_variable("x", ub=3, integer=True)
        m.add_constraint({"x": 2}, "==", 3)
        assert enumerate_milp_minimum(m) == (None, None)

    def test_fractional_integer_bounds_sweep_the_integers_within(self):
        m = LinearModel()
        m.add_variable("x", lb=0.5, ub=3.0, integer=True)
        m.add_variable("y", lb=-2.0, ub=-0.5, integer=True)
        m.add_constraint({"x": 1, "y": 1}, ">=", -5)
        m.set_objective({"x": 1, "y": -1})
        assert enumerate_milp_minimum(m) == (2.0, {"x": 1.0, "y": -1.0})
        result = solve(m)
        assert result.status == "optimal"
        assert result.objective_value == pytest.approx(2.0)
        lone = LinearModel()
        lone.add_variable("z", lb=0.2, ub=0.8, integer=True)
        assert enumerate_milp_minimum(lone) == (None, None)
        assert solve(lone).status == "infeasible"

    @pytest.mark.parametrize("lb,ub,total", [
        (0, 1e19, 10**19 + 1),  # beyond int64: raised OverflowError
        (-2**62, 2**62, 2**63 + 1),  # wraps int64: swept nothing, "infeasible"
    ], ids=["bound-beyond-int64", "range-beyond-int64"])
    def test_ranges_beyond_int64_exceed_the_sweep_limit(self, lb, ub, total):
        m = LinearModel()
        m.add_variable("x", lb=lb, ub=ub, integer=True)
        m.set_objective({"x": 1})
        with pytest.raises(ValueError, match=f"^{total} assignments exceed the sweep"):
            enumerate_milp_minimum(m)

    @pytest.mark.parametrize("lb,ub", [
        (2**63, 2**63 + 2048),  # 2,049 states: raised OverflowError
        (-2**63 - 4096, -2**63 - 2048),
    ], ids=["above-int64", "below-int64"])
    def test_few_states_beyond_int64_are_refused_by_name(self, lb, ub):
        m = LinearModel()
        m.add_variable("y", ub=1, integer=True)
        m.add_variable("x", lb=lb, ub=ub, integer=True)
        m.set_objective({"x": 1})
        with pytest.raises(ValueError, match="^variable 'x' has integer bounds beyond int64$"):
            enumerate_milp_minimum(m)

    @pytest.mark.parametrize("seed", (41, 47, 53))
    def test_agrees_with_solver(self, seed):
        m = random_integer_model(seed)
        expected, _ = enumerate_milp_minimum(m)
        result = solve(m)
        if expected is None:
            assert result.status == "infeasible"
        else:
            assert result.objective_value == pytest.approx(expected)
