from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

from roadmnet import algorithms, milp, operation
from roadmnet.cli import main
from roadmnet.io import (
    InputFormatError,
    design_payload,
    load_design,
    load_inputs,
    parse_scenario_label,
    plan_links,
    save_design,
)
from roadmnet.milp import SolveResult
from roadmnet.topology import FailureScenario, TopologyError

from conftest import fixture_path
from instances import walk_from_spans

NF = FailureScenario.no_failure()


# ---------------------------------------------------------------------------
# Network input files
# ---------------------------------------------------------------------------


def test_load_toy_fixture():
    topology, demands, costs = load_inputs(fixture_path("toy2x5"))
    assert topology.ip_nodes == ("N1", "N2")
    assert len(topology.spans) == 8
    assert topology.regen_dist == 1000.0
    assert demands.pairs == (("N1", "N2", 0.8),)
    assert (costs.tail, costs.regen, costs.port) == (1.0, 1.0, 0.0)


def test_costs_default_when_missing(tmp_path):
    doc = json.loads(open(fixture_path("toy2x5")).read())
    del doc["costs"]
    path = tmp_path / "nocosts.json"
    path.write_text(json.dumps(doc))
    _, _, costs = load_inputs(str(path))
    assert (costs.tail, costs.regen, costs.port) == (1.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("spans"), "spans"),
        (lambda d: d["routers"][0].pop("home"), "routers[0]"),
        (lambda d: d["spans"][2].__setitem__("miles", "far"), "spans[2].miles"),
        (lambda d: d["demands"][0].__setitem__("units", None), "demands[0].units"),
        (lambda d: d.__setitem__("ip_nodes", "N1"), "ip_nodes"),
    ],
)
def test_structural_errors_name_the_field(tmp_path, mutate, needle):
    doc = json.loads(open(fixture_path("toy2x5")).read())
    mutate(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputFormatError, match=needle.replace("[", r"\[")):
        load_inputs(str(path))


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(InputFormatError, match="valid JSON"):
        load_inputs(str(path))


def test_semantic_errors_come_from_topology(tmp_path):
    doc = json.loads(open(fixture_path("toy2x5")).read())
    doc["demands"][0]["src"] = "O1"  # an optical node cannot offer traffic
    path = tmp_path / "semantic.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError):
        load_inputs(str(path))


# ---------------------------------------------------------------------------
# Design documents
# ---------------------------------------------------------------------------


def test_design_document_round_trip(tmp_path, toy_inputs, toy_optimal):
    topology, _, costs = toy_inputs
    design, plans = toy_optimal
    links = {s.label(): plan_links(p) for s, p in plans.items()}
    path = tmp_path / "design.json"
    save_design(str(path), design, costs, algorithm="optimal", links=links)

    doc = load_design(str(path))
    assert doc.algorithm == "optimal"
    assert doc.design == design
    assert set(doc.links) == set(links)
    assert doc.links["no-failure"] == links["no-failure"]

    again = tmp_path / "again.json"
    save_design(str(again), doc.design, doc.costs, algorithm=doc.algorithm,
                links=doc.links)
    assert path.read_bytes() == again.read_bytes()


def test_document_rebuilds_base_plan(tmp_path, toy_inputs, toy_optimal):
    topology, _, costs = toy_inputs
    design, plans = toy_optimal
    links = {NF.label(): plan_links(plans[NF])}
    path = tmp_path / "design.json"
    save_design(str(path), design, costs, algorithm="optimal", links=links)
    rebuilt = load_design(str(path)).plan(topology)
    original = plans[NF]
    assert rebuilt.link_caps == original.link_caps
    assert rebuilt.regen_chains == original.regen_chains
    assert rebuilt.span_paths == original.span_paths
    assert rebuilt.flows == {}


def test_document_for_other_network_rejected(tmp_path, toy_inputs, toy_optimal):
    _, _, costs = toy_inputs
    design, plans = toy_optimal
    links = {NF.label(): plan_links(plans[NF])}
    path = tmp_path / "design.json"
    save_design(str(path), design, costs, algorithm="optimal", links=links)
    grid_topology, _, _ = load_inputs(fixture_path("grid3x3_600"))
    with pytest.raises(InputFormatError, match="different network"):
        load_design(str(path)).plan(grid_topology)


def test_unsupported_format_flag(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"format": "something-else/9"}))
    with pytest.raises(InputFormatError, match="unsupported format"):
        load_design(str(path))


def test_parse_scenario_labels(toy_inputs):
    topology, _, _ = toy_inputs
    for scen in (NF, FailureScenario.span_cut("O1", "O2"),
                 FailureScenario.router_down("R3")):
        assert parse_scenario_label(topology, scen.label()) == scen
    with pytest.raises(InputFormatError):
        parse_scenario_label(topology, "span:O1")
    with pytest.raises(InputFormatError):
        parse_scenario_label(topology, "router:nope")
    with pytest.raises(InputFormatError):
        parse_scenario_label(topology, "meteor:N1")


@pytest.fixture(scope="module")
def toy_document(toy_inputs, toy_optimal):
    """The toy fixture's optimal design document as parsed JSON."""
    _, _, costs = toy_inputs
    design, plans = toy_optimal
    links = {s.label(): plan_links(p) for s, p in plans.items()}
    return design_payload(design, costs, algorithm="optimal", links=links)


def _no_failure_links(doc):
    (scenario,) = [s for s in doc["scenarios"] if s["scenario"] == "no-failure"]
    return scenario["links"]


def _intra(links, **extra):
    links.append({"a": "R1", "b": "R2", "units": 1, "regen_chains": [],
                  "span_paths": [], **extra})


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda ls: ls[0].update(a=ls[0]["b"], b=ls[0]["a"]), "sorted order"),
        (lambda ls: ls[0].update(b=ls[0]["a"]), "sorted order"),
        (lambda ls: ls[0].update(units=5), "of 5 units needs 5"),
        (lambda ls: ls[0].update(units=0), "at least one unit"),
        (lambda ls: ls[0].update(units=-2), "at least one unit"),
        (lambda ls: ls.append(dict(ls[0])), "listed twice"),
        (lambda ls: ls[0]["regen_chains"].append([]), "not 2 and 1"),
        (lambda ls: ls[0].update(span_paths=[]), "not 1 and 0"),
        (lambda ls: _intra(ls, regen_chains=[["O2"]]), "intra-node link"),
        (lambda ls: _intra(ls, span_paths=[[["N1", "O1"]]]), "intra-node link"),
        (lambda ls: ls[0].update(span_paths=[[["O2", "O5"]]], regen_chains=[["O3"]]),
         "span O2-O5 does not continue from N1"),
        (lambda ls: ls[0]["span_paths"][0].pop(1), "span O2-O3 does not continue from O1"),
        (lambda ls: ls[0]["span_paths"][0].pop(), "ends at O3, not at N2"),
        (lambda ls: ls[0].update(span_paths=[[]]), "ends at N1, not at N2"),
        (lambda ls: ls[0].update(regen_chains=[["O4"]]), "does not lie on its span path"),
        (lambda ls: ls[0].update(regen_chains=[["O3", "O1"]]), "in order"),
        (lambda ls: ls[0].update(regen_chains=[["O2", "O2"]]), "in order"),
        (lambda ls: ls[0].update(regen_chains=[["N2"]]), "in order"),
    ],
)
def test_malformed_link_records_rejected(tmp_path, toy_inputs, toy_document,
                                         mutate, needle):
    topology, _, _ = toy_inputs
    doc = json.loads(json.dumps(toy_document))
    mutate(_no_failure_links(doc))
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputFormatError, match=needle):
        load_design(str(path)).plan(topology)


def test_negative_price_in_document_is_a_format_error(tmp_path, toy_document):
    doc = json.loads(json.dumps(toy_document))
    doc["costs"]["regen"] = -1
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputFormatError, match="negative regen cost"):
        load_design(str(path))


def test_intra_node_record_without_optics_accepted(tmp_path, toy_inputs,
                                                   toy_document):
    topology, _, _ = toy_inputs
    doc = json.loads(json.dumps(toy_document))
    _intra(_no_failure_links(doc))
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    plan = load_design(str(path)).plan(topology)
    assert plan.link_caps[("R1", "R2")] == plan.link_caps[("R2", "R1")] == 1
    assert ("R1", "R2") not in plan.regen_chains


def test_transient_rejects_swapped_endpoints(tmp_path, capsys, toy_document):
    # Read back under its canonical pair, a swapped record used to lose its
    # span paths and rate as delivering nothing, with exit code 0.
    doc = json.loads(json.dumps(toy_document))
    record = _no_failure_links(doc)[0]
    record["a"], record["b"] = record["b"], record["a"]
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    assert main([
        "transient", fixture_path("toy2x5"), "--design", str(path),
    ]) == 2
    assert "sorted order" in capsys.readouterr().err


def test_transient_rejects_a_span_path_off_the_link(tmp_path, capsys, toy_document):
    # A path joining neither endpoint used to rate 1.000 delivered, exit 0.
    doc = json.loads(json.dumps(toy_document))
    _no_failure_links(doc)[0].update(span_paths=[[["O2", "O5"]]], regen_chains=[["O3"]])
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    assert main([
        "transient", fixture_path("toy2x5"), "--design", str(path),
    ]) == 2
    assert "span O2-O5 does not continue from N1" in capsys.readouterr().err


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.floats(-2, 2),
    st.sampled_from(["", "R1", "R4", "O2", "no-failure", "span:O1~O2"]),
    st.just([]), st.just({}), st.just([["N1", "O1"]]),
)


def _locations(node, out):
    """Every (container, key) pair inside a JSON tree, parents first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return out
    for key, value in items:
        out.append((node, key))
        _locations(value, out)
    return out


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_design_documents_fail_cleanly(tmp_path_factory, toy_inputs,
                                               toy_document, data):
    topology, _, _ = toy_inputs
    doc = json.loads(json.dumps(toy_document))
    for _ in range(data.draw(st.integers(1, 3))):
        where = _locations(doc, [])
        container, key = data.draw(st.sampled_from(where))
        value = container[key]
        action = data.draw(st.sampled_from(["drop", "retype", "swap", "count"]))
        if action == "drop":
            del container[key]
        elif action == "retype":
            container[key] = data.draw(_JUNK)
        elif action == "swap" and isinstance(value, dict) and {"a", "b"} <= set(value):
            value["a"], value["b"] = value["b"], value["a"]
        elif action == "count" and isinstance(value, list) and value:
            i = data.draw(st.integers(0, len(value) - 1))
            if data.draw(st.booleans()):
                value.append(json.loads(json.dumps(value[i])))
            else:
                del value[i]
        elif action == "count" and type(value) is int:
            container[key] = value + data.draw(st.sampled_from([-2, -1, 1, 3]))
    path = tmp_path_factory.mktemp("mutated") / "design.json"
    path.write_text(json.dumps(doc))
    try:
        loaded = load_design(str(path))
        plans = [loaded.plan(topology, label) for label in loaded.links]
    except InputFormatError:
        return
    for plan in plans:
        for (a, b), chains in plan.regen_chains.items():
            assert len(chains) == len(plan.span_paths[a, b]) == plan.link_caps[a, b]
            for chain, spans in zip(chains, plan.span_paths[a, b]):
                walk = walk_from_spans(topology, topology.home(a), spans)
                assert walk[-1] == topology.home(b)
                on_path = iter(walk[1:-1])
                assert all(site in on_path for site in chain)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def test_cli_design_and_transient(tmp_path, capsys):
    design_path = tmp_path / "opt.json"
    assert main(["design", fixture_path("toy2x5"), "--out", str(design_path)]) == 0
    out = capsys.readouterr().out
    assert "4 tails, 2 regens" in out
    assert design_path.exists()

    csv_path = tmp_path / "tr.csv"
    code = main([
        "transient", fixture_path("toy2x5"),
        "--design", str(design_path), "--out", str(csv_path),
    ])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "scenario_kind,scenario_id,offered,delivered,fraction"
    assert len(lines) == 1 + 13
    fractions = [float(line.split(",")[4]) for line in lines[1:]]
    assert fractions.count(0.0) == 6  # four cut spans + two router losses
    assert fractions.count(1.0) == 7


def test_cli_transient_stdout_when_no_out(tmp_path, capsys):
    design_path = tmp_path / "opt.json"
    main(["design", fixture_path("toy2x5"), "--out", str(design_path)])
    capsys.readouterr()
    assert main([
        "transient", fixture_path("toy2x5"), "--design", str(design_path),
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario_kind,")


def test_cli_legacy_transient_rides_out_failures(tmp_path):
    design_path = tmp_path / "legacy.json"
    assert main([
        "design", fixture_path("toy2x5"), "--algorithm", "legacy",
        "--out", str(design_path),
    ]) == 0
    csv_path = tmp_path / "tr.csv"
    main([
        "transient", fixture_path("toy2x5"),
        "--design", str(design_path), "--out", str(csv_path),
    ])
    rows = csv_path.read_text().splitlines()[1:]
    assert all(row.endswith(",1.000000") for row in rows)


def test_cli_design_rewrites_identically(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["design", fixture_path("toy2x5"), "--out", str(a)])
    main(["design", fixture_path("toy2x5"), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# sha256 of the design document `roadmnet design` writes per fixture and
# algorithm.  The bundled branch-and-bound breaks ties by column index, so a
# refactor that reorders any model's variables or rows changes these bytes.
GOLDEN_DOCUMENTS = {
    ("toy2x5", "optimal"): "acbcc34f555269522f0f25fbd07e06207cd446b721a55c7809154e0ab82eb7d9",
    ("toy2x5", "simple"): "e2e17791d7102b0c7d753b7076ccd743b347afba4ac6618842f67fff19d39807",
    ("toy2x5", "greedy"): "ddfbc7bf8e255b9f6fa71f5bf710ecd1fde465fda0a6144e0f62672e18f3b5cf",
    ("toy2x5", "legacy"): "6f42c321bbc41299e3800198bdac2fe409c2a0ec1c80c46f8e7b4dcd05637967",
    ("grid3x3_600", "optimal"): "e0430fa56101c853feffbb0750fd4825dceea9080a0caef54a5270f219d11384",
    ("grid3x3_600", "simple"): "66b30632ced0501ac222c201376a283f28e58cc76416d8631b84ceb6494d09b8",
    ("grid3x3_600", "greedy"): "fbaad9f383c15bb5d4ea7cb3461c11485cc9ca5ca48d5f2a09ce3dcd5346d592",
    ("grid3x3_600", "legacy"): "ed8d2959b8081d9f13677a894820cf97a0efc4362496b901cac0d10f9bcf5d5b",
}


@pytest.mark.parametrize("fixture,algorithm", sorted(GOLDEN_DOCUMENTS))
def test_cli_design_document_matches_golden_hash(tmp_path, capsys, fixture, algorithm):
    path = tmp_path / "design.json"
    assert main([
        "design", fixture_path(fixture), "--algorithm", algorithm,
        "--out", str(path),
    ]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_DOCUMENTS[(fixture, algorithm)]


class TestHelperProcess:
    """roadmnet design with the LP helper process at work, dead or failing."""

    @pytest.mark.parametrize("helper", ["paired", "local", "dead"])
    def test_grid_design_document_is_unchanged(self, helper, tmp_path, capsys,
                                               own_helper, monkeypatch):
        monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", math.inf if helper == "local" else 0.0)
        if helper == "dead":  # exits at once: every LP is solved here
            monkeypatch.setattr(milp, "_serve", lambda conn, parent_end: None)
        path = tmp_path / "design.json"
        assert main(["design", fixture_path("grid3x3_600"), "--out", str(path)]) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_DOCUMENTS[("grid3x3_600", "optimal")]
        assert capsys.readouterr().err == ""

    def test_failing_helper_is_a_clean_exit(self, capsys, own_helper, monkeypatch):
        def failing(conn, parent_end):
            parent_end.close()
            while True:
                conn.recv()
                conn.send("MemoryError: out of memory")

        monkeypatch.setattr(milp, "_serve", failing)
        monkeypatch.setattr(milp, "_PAIR_MIN_ROOT_S", 0.0)
        if milp._pair_helper() is None:
            pytest.skip("no helper process on this machine")
        assert main(["design", fixture_path("grid3x3_600")]) == 4
        err = capsys.readouterr().err
        assert "solver failed: LP helper failed: MemoryError: out of memory" in err
        assert "Traceback" not in err


def test_cli_compare(tmp_path, capsys):
    csv_path = tmp_path / "cmp.csv"
    assert main([
        "compare", fixture_path("toy2x5"), "--csv", str(csv_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "optimal" in out and "legacy" in out
    header = csv_path.read_text().splitlines()[0]
    assert header == "algorithm,cost,tails,regens,ports,seconds"
    rows = csv_path.read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [
        "optimal", "simple", "greedy", "legacy",
    ]


class TestExitCodes:
    def test_missing_input(self, capsys):
        assert main(["design", "/no/such/file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_garbage_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("]")
        assert main(["design", str(bad)]) == 2

    def test_missing_design_document(self, capsys):
        assert main([
            "transient", fixture_path("toy2x5"), "--design", "/no/doc.json",
        ]) == 2

    def test_unparsable_arguments(self, capsys):
        assert main([]) == 2
        assert main(["design"]) == 2
        assert main(["design", "x.json", "--algorithm", "psychic"]) == 2

    def test_infeasible_network(self, tmp_path, capsys):
        doc = json.loads(open(fixture_path("toy2x5")).read())
        doc["routers"] = [r for r in doc["routers"] if r["id"] != "R2"]
        path = tmp_path / "fragile.json"
        path.write_text(json.dumps(doc))
        assert main(["design", str(path)]) == 3
        assert "infeasible" in capsys.readouterr().err

    def test_budget_too_small_for_any_answer(self, capsys):
        assert main([
            "design", fixture_path("toy2x5"), "--time-limit", "0.0",
        ]) == 4
        assert "budget" in capsys.readouterr().err

    def test_transient_solve_out_of_time(self, tmp_path, capsys, monkeypatch):
        doc = tmp_path / "design.json"
        assert main([
            "design", fixture_path("toy2x5"), "--algorithm", "greedy",
            "--out", str(doc),
        ]) == 0
        monkeypatch.setattr(
            operation, "solve",
            lambda model, time_limit=None: SolveResult("no_solution", {}, None, None),
        )
        assert main([
            "transient", fixture_path("toy2x5"), "--design", str(doc),
        ]) == 4
        assert "no transient routing found" in capsys.readouterr().err

    def test_failed_child_lp_is_a_clean_exit(self, capsys, monkeypatch):
        real = milp.linprog
        calls = []

        def fail_after_root(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                return real(*args, **kwargs)
            return OptimizeResult(status=4, fun=None, x=None)

        monkeypatch.setattr(milp, "linprog", fail_after_root)
        assert main(["design", fixture_path("toy2x5")]) == 4
        err = capsys.readouterr().err
        assert "solver failed: LP backend failed with status 4" in err

    def test_fractional_legacy_purchase_is_rejected(self, toy_inputs, capsys, monkeypatch):
        real = algorithms.solve

        def fractional(model, time_limit=None):
            result = real(model, time_limit)
            values = {
                name: 0.6 if name.startswith("buy_") and value > 0.5 else value
                for name, value in result.values.items()
            }
            return dataclasses.replace(result, values=values)

        monkeypatch.setattr(algorithms, "solve", fractional)
        with pytest.raises(TopologyError, match="not integral"):
            algorithms.design_legacy(*toy_inputs)
        assert main([
            "design", fixture_path("toy2x5"), "--algorithm", "legacy",
        ]) == 2
        assert "not integral" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "roadmnet", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "design" in proc.stdout
