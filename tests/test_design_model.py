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
    ("toy2x5", "operate"): "188ed15d02e3733caab8829fd38ac8018f76d0d8c7d034aa0fcfd6df456c8a76",
    ("grid3x3_600", "sizing"): "09fd07b4274e9ed37a125df2e42ff4327f43006ba94be471e9f8d65cd69d3259",
    ("grid3x3_600", "operate"): "b27414c9d0597685a94a5a677e2a786bb4be4c6b903bd7fb3291105f17f3e354",
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
        m._row_names, hexed(m._cost),
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
    ("toy2x5", "sizing"): "7e6cb36f168d05c009c9a1f35db9c2bf524a4f26326a9170b7f89fe913376e23",
    ("toy2x5", "plain"): "cc0d8994e770fbb32aa17478baf3f92b7b53ac004767575d5823e5b76c747d84",
    ("toy2x5", "prior"): "3634d371ed516d5f7033b95d68d0299be19eca30c3c38801593c662213b2c59d",
    ("toy2x5", "operate"): "24a08fb3026c5fcdda9654805935dabc5842524f707903cc292deed4f6c0f08e",
    ("grid3x3_600", "sizing"): "b85c448f8fea3c466e85de72c434acf3cfb5bfd53fa0f73172e35a2147af6315",
    ("grid3x3_600", "plain"): "eceaaab23a04265cbfcb9db1b78082e21ceb68414e479137f0d89ae152eada64",
    ("grid3x3_600", "prior"): "c733f4ccc27c7ff977f65f8bd407ffe233e48e738b9953755e0c673da20be75c",
    ("grid3x3_600", "operate"): "78d2eba53c213ce80a6f493c210d3f13ce0ae807884ae38c85419b31a70d4450",
}


def built_model(request, fixture: str, kind: str) -> LinearModel:
    """The ``sizing``, ``plain``, ``prior`` or ``operate`` model of a fixture,
    as MODEL_FINGERPRINTS describes them."""
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
    return dm.model


@pytest.mark.parametrize("fixture,kind", sorted(MODEL_FINGERPRINTS))
def test_model_bytes_match_fingerprint(request, fixture, kind):
    model = built_model(request, fixture, kind)
    assert model_fingerprint(model) == MODEL_FINGERPRINTS[(fixture, kind)]


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
# total ("transient") or the common fraction ("concurrent"), of every model
# design_legacy solves ("legacy"), and of each of MODEL_FINGERPRINTS' four
# models on its own, per shipped fixture.
COMPILED_FINGERPRINTS = {
    ("toy2x5", "sizing"): "1f23de00bec3c5a2ef23be2632b891cbc50d1da4ca5ba6c9322bb898bf45649c",
    ("toy2x5", "plain"): "65e66f6a2bb9e55778355e2468f24dde0e029671f89cc4b09b3959d43ef0251d",
    ("toy2x5", "prior"): "3d846593e900453dd42615e4adeabee9892dcc78d33ac318f22d400059f237e4",
    ("toy2x5", "operate"): "bc9ac2e30649fd3edb877de516e90cae3868e576ddceecb9dfdbf989c88733e3",
    ("grid3x3_600", "sizing"): "ec96ea2d4c513230ab65d1ab01bde3deede916c7e6372a1aaed9d25ca2ad1dcb",
    ("grid3x3_600", "plain"): "dde5693078ff23640b3a408c8bc0e48f2d57647b5ea4317234b1be786e446840",
    ("grid3x3_600", "prior"): "4c3c3ea620af33ce0dc470bd3bdce51a0e5229e09c3f9a5d6bd567c804728782",
    ("grid3x3_600", "operate"): "bbbd939d8eb3d5f4d0c104e814f4141358ae615b489c7b9037ff6b715a2c9c15",
    ("toy2x5", "transient"): "902f881f13b048099b237b350ccc03bd27f1938d72289dfb92ed97e520585bbc",
    ("toy2x5", "concurrent"): "8378d3bc0acd69294cd016c9aa89cab6d23b12d62d5c944518f7ff2196bc318f",
    ("toy2x5", "legacy"): "1299d91d218afdbe8a03ae71f443a343044e5068bdad67d65ba8a730ccb1c90e",
    ("grid3x3_600", "transient"): "19dc0e0b0944422f36955cc3f4bb90db6695f93eefffcd8a0c2615851ae8c2f3",
    ("grid3x3_600", "concurrent"): "60c48527290363e13831910ee9cc24dbd5d7c009738258a358104214fc254fe1",
    ("grid3x3_600", "legacy"): "44ce038b7ddf4e45e6886ba5a60adb02bcfc7c5fea3cc2fb05d0a7c959fdc663",
}


@pytest.mark.parametrize("fixture,kind", sorted(COMPILED_FINGERPRINTS))
def test_solved_arrays_match_fingerprint(request, monkeypatch, fixture, kind):
    if kind in ("sizing", "plain", "prior", "operate"):
        models = [built_model(request, fixture, kind)]
    else:
        models = solved_models(request, monkeypatch, fixture, kind)
    assert compiled_fingerprint(models) == COMPILED_FINGERPRINTS[(fixture, kind)]


def solved_models(request, monkeypatch, fixture: str, kind: str) -> list[LinearModel]:
    """Every model transient rating or design_legacy solves, in order."""
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
    return models
