"""Model-layer checks: the joint placement model solved directly."""

from __future__ import annotations

import hashlib

import pytest

from roadmnet import algorithms, operation
from roadmnet.design import (
    Design,
    PriorPlacement,
    add_routing,
    build_design_model,
    extract_design,
    iround,
)
from roadmnet.milp import LinearModel, _compile, export_lp, solve, validate_solution
from roadmnet.topology import (
    CostModel,
    DemandMatrix,
    FailureScenario,
    Router,
    Span,
    Topology,
    TopologyError,
    enumerate_failures,
)

from instances import toy_network

NF = FailureScenario.no_failure()


@pytest.fixture(scope="module")
def toy():
    return toy_network()


def test_no_failure_minimum(toy):
    topology, demands, costs = toy
    dm = build_design_model(topology, demands, [NF], costs)
    result = solve(dm.model)
    assert result.status == "optimal"
    assert result.objective_value == pytest.approx(3.0)
    design = extract_design(dm, result)
    assert design.tail_count == 2
    assert design.regen_count == 1
    assert design.regens_reported["O2"] == 1
    # One launch hop at N1 rides the fresh transponder signal: no device,
    # but it is a hop, so the raw tally runs one higher.
    assert design.total_cost_raw == pytest.approx(4.0)
    assert design.total_cost_reported == pytest.approx(3.0)


def test_all_failures_minimum(toy):
    topology, demands, costs = toy
    dm = build_design_model(topology, demands, enumerate_failures(topology), costs)
    result = solve(dm.model)
    assert result.status == "optimal"
    assert result.objective_value == pytest.approx(6.0)
    design = extract_design(dm, result)
    assert design.tail_count == 4
    assert design.regen_count == 2
    assert {n for n, c in design.regens_reported.items() if c} == {"O2", "O4"}
    assert validate_solution(dm.model, result.values) == []


def test_long_reach_removes_regens(toy):
    topology, demands, costs = toy
    stretched = Topology(
        ip_nodes=topology.ip_nodes,
        optical_nodes=topology.optical_nodes,
        routers=topology.routers,
        spans=topology.spans,
        regen_dist=10000.0,
    )
    dm = build_design_model(
        stretched, demands, enumerate_failures(stretched), costs
    )
    result = solve(dm.model)
    assert result.objective_value == pytest.approx(4.0)
    assert extract_design(dm, result).regen_count == 0


def test_strengthening_preserves_optimum(toy):
    topology, demands, costs = toy
    plain = build_design_model(topology, demands, [NF], costs, strengthen=False)
    assert solve(plain.model).objective_value == pytest.approx(3.0)


def test_prior_covering_everything_costs_nothing(toy):
    topology, demands, costs = toy
    dm = build_design_model(
        topology, demands, enumerate_failures(topology), costs
    )
    base = extract_design(dm, solve(dm.model))
    prior = PriorPlacement(
        tails=base.tails, regens=base.regens_raw, ports=base.ports
    )
    redo = build_design_model(
        topology, demands, enumerate_failures(topology), costs, prior
    )
    result = solve(redo.model)
    assert result.status == "optimal"
    assert result.objective_value == pytest.approx(0.0)


def test_variable_layout(toy):
    topology, demands, costs = toy
    dm = build_design_model(topology, demands, [NF], costs)
    assert set(dm.tail_vars) == {"R1", "R2", "R3", "R4"}
    assert set(dm.regen_vars) == set(topology.all_nodes)
    # Both IP nodes host two routers, so every router gets a port counter.
    assert set(dm.port_vars) == {"R1", "R2", "R3", "R4"}


def test_single_router_node_has_no_port_variable():
    topology, demands, costs = toy_network()
    slim = Topology(
        ip_nodes=topology.ip_nodes,
        optical_nodes=topology.optical_nodes,
        routers=tuple(r for r in topology.routers if r.id not in ("R2",)),
        spans=topology.spans,
        regen_dist=topology.regen_dist,
    )
    dm = build_design_model(slim, demands, [NF], costs)
    assert "R1" not in dm.port_vars
    assert set(dm.port_vars) == {"R3", "R4"}


def test_fixed_design_mode_feasible_and_tight(toy):
    topology, demands, costs = toy
    dm = build_design_model(topology, demands, [NF], costs)
    design = extract_design(dm, solve(dm.model))
    fixed = build_design_model(
        topology, demands, [NF], costs, fixed_design=design
    )
    result = solve(fixed.model)
    assert result.status == "optimal"

    # Starve the budget of its single regen and feasibility must collapse.
    starved = design.__class__(
        tails=design.tails,
        regens_raw={},
        regens_reported={},
        ports=design.ports,
        total_cost_raw=0.0,
        total_cost_reported=0.0,
    )
    broken = build_design_model(
        topology, demands, [NF], costs, fixed_design=starved
    )
    assert solve(broken.model).status == "infeasible"


def test_operating_with_prior_budgets_design_plus_prior(toy):
    topology, demands, costs = toy
    sized = build_design_model(topology, demands, [NF], costs)
    design = extract_design(sized, solve(sized.model))
    prior = PriorPlacement(tails={"R1": 1, "R3": 2}, regens={"O2": 1, "O4": 3},
                           ports={"R2": 1, "R4": 2})
    dm = build_design_model(topology, demands, [NF], costs, prior, fixed_design=design)
    budgets = {"tail": (design.tails, prior.tails), "port": (design.ports, prior.ports),
               "regen": (design.regens_reported, prior.regens)}
    seen = set()
    for con in dm.model.constraints:
        kind, *_, key = con.name.split("_")
        if kind in budgets:
            counts, prior_counts = budgets[kind]
            assert con.sense == "<="
            assert con.rhs == counts.get(key, 0) + prior_counts.get(key, 0), con.name
            assert all(not v.startswith(("T_", "R_", "P_")) for v, _ in con.coeffs)
            seen.add(kind)
    assert seen == set(budgets)


def test_iround_rejects_fractional_values():
    assert iround(2.0000001, "x") == 2
    with pytest.raises(TopologyError, match="x is not integral"):
        iround(1.5, "x")


def test_model_usage_tracks_launch_hops(toy):
    topology, demands, costs = toy
    dm = build_design_model(topology, demands, [NF], costs)
    result = solve(dm.model)
    tails, regens, ports, launches = dm.usage(result.values)
    # One external link, sourced at the lower-id endpoint's home (N1).
    assert launches.get("N1", 0) == 1
    assert launches.get("N2", 0) == 0
    # Purchases are read from the purchase columns, one count per column.
    assert (set(tails), set(regens), set(ports)) == (
        set(dm.tail_vars), set(dm.regen_vars), set(dm.port_vars))
    assert sum(tails.values()) == 2 and sum(regens.values()) == 1


def test_infeasible_single_router_endpoint():
    topology, demands, costs = toy_network()
    lonely = Topology(
        ip_nodes=topology.ip_nodes,
        optical_nodes=topology.optical_nodes,
        routers=tuple(r for r in topology.routers if r.id != "R2"),
        spans=topology.spans,
        regen_dist=topology.regen_dist,
    )
    down = FailureScenario.router_down("R1")
    dm = build_design_model(lonely, demands, [NF, down], costs)
    assert solve(dm.model).status == "infeasible"


# Routers a1 (node A), b1 (node B), c1 and c2 (node C), d1 (node D, no arcs).
FLOW_ROUTERS = tuple(
    Router(rid, rid[0].upper()) for rid in ("a1", "b1", "c1", "c2", "d1")
)
FLOW_ARCS = (("a1", "c1"), ("c1", "b1"), ("c1", "c2"), ("c2", "b1"), ("b1", "a1"))


ONE_DEMAND = DemandMatrix(entries=(("A", "B", 0.5),))


def flow_capacities(m: LinearModel) -> dict:
    """Two units on every FLOW_ARCS arc, but a column x on arc c1 -> c2."""
    m.add_variable("x")
    return {arc: ("x", 0.0) if arc == ("c1", "c2") else (None, 2.0) for arc in FLOW_ARCS}


def y(a: str, b: str) -> str:
    return f"Y_t_A_B_{a}_{b}"


def test_commodity_flow_balances_only_transit_routers():
    m = LinearModel()
    routes = add_routing(m, "t", flow_capacities(m), FLOW_ROUTERS, ONE_DEMAND)
    assert routes == {("A", "B"): {arc: y(*arc) for arc in FLOW_ARCS}}
    assert [v.name for v in m.variables] == ["x", *(y(*arc) for arc in FLOW_ARCS)]
    rows = [(c.name, dict(c.coeffs), c.sense, c.rhs) for c in m.constraints]
    assert rows == [
        ("balance_Y_t_A_B_c1",
         {y("a1", "c1"): 1.0, y("c1", "b1"): -1.0, y("c1", "c2"): -1.0}, "==", 0.0),
        ("balance_Y_t_A_B_c2", {y("c1", "c2"): 1.0, y("c2", "b1"): -1.0}, "==", 0.0),
        ("flow_src_t_A_B", {y("a1", "c1"): 1.0, y("b1", "a1"): -1.0}, "==", 0.5),
        ("flow_dst_t_A_B",
         {y("c1", "b1"): 1.0, y("c2", "b1"): 1.0, y("b1", "a1"): -1.0}, "==", 0.5),
        ("cap_t_a1_c1", {y("a1", "c1"): 1.0}, "<=", 2.0),
        ("cap_t_c1_b1", {y("c1", "b1"): 1.0}, "<=", 2.0),
        ("cap_t_c1_c2", {y("c1", "c2"): 1.0, "x": -1.0}, "<=", 0.0),
        ("cap_t_c2_b1", {y("c2", "b1"): 1.0}, "<=", 2.0),
        ("cap_t_b1_a1", {y("b1", "a1"): 1.0}, "<=", 2.0),
    ]


def test_commodity_flow_endpoint_terms_empty_when_its_router_is_down():
    alive = tuple(r for r in FLOW_ROUTERS if r.id != "a1")
    m = LinearModel()
    add_routing(m, "t", flow_capacities(m), alive, ONE_DEMAND)
    rows = [(c.name, dict(c.coeffs), c.sense, c.rhs) for c in m.constraints]
    assert [v.name for v in m.variables] == ["x", *(y(*arc) for arc in FLOW_ARCS)]
    # The demand's block: its transit rows, then an empty source row.
    assert rows[:4] == [
        ("balance_Y_t_A_B_c1",
         {y("a1", "c1"): 1.0, y("c1", "b1"): -1.0, y("c1", "c2"): -1.0}, "==", 0.0),
        ("balance_Y_t_A_B_c2", {y("c1", "c2"): 1.0, y("c2", "b1"): -1.0}, "==", 0.0),
        ("flow_src_t_A_B", {}, "==", 0.5),
        ("flow_dst_t_A_B",
         {y("c1", "b1"): 1.0, y("c2", "b1"): 1.0, y("b1", "a1"): -1.0}, "==", 0.5),
    ]
    assert rows[4:] == [
        ("cap_t_a1_c1", {y("a1", "c1"): 1.0}, "<=", 2.0),
        ("cap_t_c1_b1", {y("c1", "b1"): 1.0}, "<=", 2.0),
        ("cap_t_c1_c2", {y("c1", "c2"): 1.0, "x": -1.0}, "<=", 0.0),
        ("cap_t_c2_b1", {y("c2", "b1"): 1.0}, "<=", 2.0),
        ("cap_t_b1_a1", {y("b1", "a1"): 1.0}, "<=", 2.0),
    ]
    assert solve(m).status == "infeasible"

    # With a served column the empty endpoint row degenerates to served = 0.
    m = LinearModel()
    arcs = flow_capacities(m)
    d = m.add_variable("d_A_B", ub=0.5)
    add_routing(m, "t", arcs, alive, ONE_DEMAND, {("A", "B"): (d, 1.0)})
    rows = {c.name: (dict(c.coeffs), c.sense, c.rhs) for c in m.constraints}
    assert [v.name for v in m.variables[:3]] == ["x", "d_A_B", y("a1", "c1")]
    assert rows["flow_src_t_A_B"] == ({"d_A_B": -1.0}, "==", 0.0)
    assert rows["flow_dst_t_A_B"] == (
        {y("c1", "b1"): 1.0, y("c2", "b1"): 1.0, y("b1", "a1"): -1.0, "d_A_B": -1.0}, "==", 0.0)
    assert len(rows) == 2 + 2 + len(FLOW_ARCS)


def test_covering_design_rolls_up_costs_and_status():
    topology = Topology(
        ip_nodes=("n1", "n2"),
        optical_nodes=("o1",),
        routers=(Router("r1", "n1"), Router("r2", "n2"), Router("r3", "n2")),
        spans=(Span("n1", "o1", 100.0), Span("o1", "n2", 100.0)),
    )
    costs = CostModel(tail=2.0, regen=3.0, port=0.5)
    design = Design.covering(
        topology,
        costs,
        [({"r1": 1, "r2": 2}, {"o1": 1}, {"r2": 1}, {"n1": 2}),
         ({"r1": 3}, {"o1": 0}, {"r3": 1}, {"n1": 1, "n2": 1})],
        ["optimal", "feasible"],
    )
    # The elementwise maximum, every router and node counted.
    assert design.tails == {"r1": 3, "r2": 2, "r3": 0}
    assert design.regens_reported == {"n1": 0, "n2": 0, "o1": 1}
    assert design.ports == {"r1": 0, "r2": 1, "r3": 1}
    # Launch hops only reach the raw counts and the raw total.
    assert design.regens_raw == {"n1": 2, "n2": 1, "o1": 1}
    assert design.total_cost_reported == pytest.approx(2.0 * 5 + 3.0 * 1 + 0.5 * 2)
    assert design.total_cost_raw - design.total_cost_reported == pytest.approx(3.0 * 3)
    assert design.solve_status == "feasible"
    again = Design.covering(topology, costs, [], ["optimal", "optimal"])
    assert again.solve_status == "optimal"
    assert again.tails == again.ports == {"r1": 0, "r2": 0, "r3": 0}
    assert again.regens_raw == again.regens_reported == {"n1": 0, "n2": 0, "o1": 0}
    assert again.total_cost_raw == again.total_cost_reported == 0.0


# sha256 of the LP text of the joint sizing model over every enumerated
# failure ("sizing") and of the no-failure operating model of the optimal
# design ("operate"), per shipped fixture.  Variable and row names, their
# order, bounds and coefficient order all feed the digest.
GOLDEN_MODELS = {
    ("toy2x5", "sizing"): "c6b18b4c35909866b85618161ea4d56405c9f70ae848228363d93797a9f1c986",
    ("toy2x5", "operate"): "54f1d98466fc377fb6791e6dd50b34f56bc1634add9d3a16798266b36716fda6",
    ("grid3x3_600", "sizing"): "09fd07b4274e9ed37a125df2e42ff4327f43006ba94be471e9f8d65cd69d3259",
    ("grid3x3_600", "operate"): "f28925132449d9153a6ee23f01ea006e502ed9145a22f883e8ba9f69323632be",
}


@pytest.mark.parametrize("fixture,kind", sorted(GOLDEN_MODELS))
def test_model_lp_text_matches_golden_hash(request, fixture, kind):
    inputs = request.getfixturevalue(
        "toy_inputs" if fixture == "toy2x5" else "grid_inputs"
    )
    topology, demands, costs = inputs
    if kind == "sizing":
        dm = build_design_model(topology, demands, enumerate_failures(topology), costs)
    else:
        design = request.getfixturevalue(
            "toy_optimal" if fixture == "toy2x5" else "grid_optimal"
        )[0]
        dm = build_design_model(
            topology, demands, [NF], CostModel(0.0, 0.0, 0.0), fixed_design=design
        )
    digest = hashlib.sha256(export_lp(dm.model).encode()).hexdigest()
    assert digest == GOLDEN_MODELS[(fixture, kind)]


def model_fingerprint(m: LinearModel) -> str:
    """sha256 of everything a LinearModel stores, floats as ``float.hex``.

    Unlike the LP text, which prints numbers with ``%g``, this sees every
    bit of every bound, coefficient, right-hand side and objective term.
    """
    def hexed(values):
        return [float(v).hex() for v in values]

    parts = [
        m.name, list(m._index.items()), hexed(m._lb), hexed(m._ub), m._integer,
        m._cols, hexed(m._vals), m._row_len, m._senses, hexed(m._rhs),
        m._row_names, [(name, float(c).hex()) for name, c in m._objective.items()],
    ]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def greedy_second_prior(topology, demands, costs) -> PriorPlacement:
    """What design_greedy owns when it reaches its second scenario."""
    dm = build_design_model(topology, demands, enumerate_failures(topology)[:1], costs)
    first = extract_design(dm, solve(dm.model))
    return PriorPlacement(first.tails, first.regens_reported, first.ports)


# model_fingerprint of the joint sizing model ("sizing"), the same without
# strengthening ("plain"), greedy's second one-scenario model with what the
# first scenario bought as a prior ("prior") and the no-failure operating
# model of the optimal design ("operate"), per shipped fixture.
MODEL_FINGERPRINTS = {
    ("toy2x5", "sizing"): "68744d5dcaed04cd01d109c4f6335e12b6e17ba57155195cf9c104d68cecfb3b",
    ("toy2x5", "plain"): "5b4ca911ba13e7f9301e1407b441ae63ca965d3d2b5515ffb15c42e7254735b2",
    ("toy2x5", "prior"): "d382dea720fd24dcce5508c23d4a973ffab403cde4b2e75694a5aefda70685c5",
    ("toy2x5", "operate"): "d62fdb169a9cd2c8698e48a1d99ffadddbb39dae951dbf18f2a102f0d2ed6e5e",
    ("grid3x3_600", "sizing"): "84dc426ea147ad71eb32e487225768a74cf9e5ea2540174b45cc9c82dd4c0555",
    ("grid3x3_600", "plain"): "1ca19e3e87a4f3b89e5fe31c5ed5b9aae81b9a7864cbda60707032083afdde8f",
    ("grid3x3_600", "prior"): "a865d565b0fb620479f971a3c9fbcac237fd6017921ab213cc3e81f74ec36165",
    ("grid3x3_600", "operate"): "89157b2f918882a4d7508be8db3822f081fe2a8df10c3029e3d8abe6862e65a8",
}


@pytest.mark.parametrize("fixture,kind", sorted(MODEL_FINGERPRINTS))
def test_model_bytes_match_fingerprint(request, fixture, kind):
    toy = fixture == "toy2x5"
    topology, demands, costs = request.getfixturevalue("toy_inputs" if toy else "grid_inputs")
    failures = enumerate_failures(topology)
    if kind == "sizing":
        dm = build_design_model(topology, demands, failures, costs)
    elif kind == "plain":
        dm = build_design_model(topology, demands, failures, costs, strengthen=False)
    elif kind == "prior":
        prior = greedy_second_prior(topology, demands, costs)
        assert any(prior.tails.values()) and any(prior.regens.values())
        dm = build_design_model(topology, demands, failures[1:2], costs, prior)
    else:
        design = request.getfixturevalue("toy_optimal" if toy else "grid_optimal")[0]
        dm = build_design_model(
            topology, demands, [NF], CostModel(0.0, 0.0, 0.0), fixed_design=design
        )
    assert model_fingerprint(dm.model) == MODEL_FINGERPRINTS[(fixture, kind)]


def compiled_fingerprint(models) -> str:
    """sha256 of the arrays HiGHS is given for each model, in order.

    Covers the objective, the CSC triple, the row and column bounds and the
    integer columns, each with its dtype and shape; names do not feed it.
    """
    digest = hashlib.sha256()
    for model in models:
        comp = _compile(model)
        for arr in (comp.c, *comp.csc, comp.row_lower, comp.row_upper, comp.lb, comp.ub,
                    comp.int_idx):
            digest.update(f"{arr.dtype.str}{arr.shape}".encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


# compiled_fingerprint of every model that transient rating solves, over each
# enumerated failure from the optimal design's no-failure plan, maximizing the
# total ("transient") or the common fraction ("concurrent"), and of every
# model design_legacy solves ("legacy"), per shipped fixture.
COMPILED_FINGERPRINTS = {
    ("toy2x5", "transient"): "902f881f13b048099b237b350ccc03bd27f1938d72289dfb92ed97e520585bbc",
    ("toy2x5", "concurrent"): "8378d3bc0acd69294cd016c9aa89cab6d23b12d62d5c944518f7ff2196bc318f",
    ("toy2x5", "legacy"): "1299d91d218afdbe8a03ae71f443a343044e5068bdad67d65ba8a730ccb1c90e",
    ("grid3x3_600", "transient"): "19dc0e0b0944422f36955cc3f4bb90db6695f93eefffcd8a0c2615851ae8c2f3",
    ("grid3x3_600", "concurrent"): "60c48527290363e13831910ee9cc24dbd5d7c009738258a358104214fc254fe1",
    ("grid3x3_600", "legacy"): "44ce038b7ddf4e45e6886ba5a60adb02bcfc7c5fea3cc2fb05d0a7c959fdc663",
}


@pytest.mark.parametrize("fixture,kind", sorted(COMPILED_FINGERPRINTS))
def test_solved_arrays_match_fingerprint(request, monkeypatch, fixture, kind):
    toy = fixture == "toy2x5"
    topology, demands, costs = request.getfixturevalue("toy_inputs" if toy else "grid_inputs")
    failures = enumerate_failures(topology)
    plan = request.getfixturevalue("toy_optimal" if toy else "grid_optimal")[1][NF]
    module = algorithms if kind == "legacy" else operation
    models, real = [], module.solve

    def recording(model, *args):
        models.append(model)
        return real(model, *args)

    monkeypatch.setattr(module, "solve", recording)
    if kind == "legacy":
        algorithms.design_legacy(topology, demands, costs)
    else:
        operation.transient_reports(topology, demands, plan, failures,
                                    concurrent=kind == "concurrent")
    assert len(models) == len(failures)
    assert compiled_fingerprint(models) == COMPILED_FINGERPRINTS[(fixture, kind)]
