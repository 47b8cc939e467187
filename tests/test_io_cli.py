from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

from roadmnet import algorithms, cli, milp, operation
from roadmnet import io as roadmnet_io
from roadmnet.cli import ALGORITHMS, main
from roadmnet.design import NoIncumbentError
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
from roadmnet.topology import FailureScenario, TopologyError, enumerate_failures

from conftest import fixture_path
from instances import grid_network, input_payload, walk_from_spans

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


def _toy_input():
    with open(fixture_path("toy2x5")) as fh:
        return json.load(fh)


def test_costs_default_when_missing(tmp_path):
    doc = _toy_input()
    del doc["costs"]
    path = tmp_path / "nocosts.json"
    path.write_text(json.dumps(doc))
    _, _, costs = load_inputs(str(path))
    assert (costs.tail, costs.regen, costs.port) == (1.0, 1.0, 0.0)


# Each case breaks the toy input (load_inputs) or the toy optimal design
# document (load_design) and gives the whole message it must raise, with
# "{path}" for the file.  The first five ids are the ones pytest gave these
# cases when they matched a field name only; they are kept as they were.
@pytest.mark.parametrize(
    "load,mutate,message",
    [
        pytest.param(load_inputs, lambda d: d.pop("spans"),
                     "{path}: missing key 'spans'", id="<lambda>-spans"),
        pytest.param(load_inputs, lambda d: d["routers"][0].pop("home"),
                     "routers[0]: missing key 'home'", id="<lambda>-routers[0]"),
        pytest.param(load_inputs, lambda d: d["spans"][2].__setitem__("miles", "far"),
                     "spans[2].miles: expected a number", id="<lambda>-spans[2].miles"),
        pytest.param(load_inputs, lambda d: d["demands"][0].__setitem__("units", None),
                     "demands[0].units: expected a number",
                     id="<lambda>-demands[0].units"),
        pytest.param(load_inputs, lambda d: d.__setitem__("ip_nodes", "N1"),
                     "ip_nodes: expected a list", id="<lambda>-ip_nodes"),
        pytest.param(load_inputs, lambda d: d["optical_nodes"].__setitem__(1, ""),
                     "optical_nodes[1]: expected a non-empty string",
                     id="inputs-optical_nodes[1]"),
        pytest.param(load_inputs, lambda d: d["spans"].__setitem__(3, ["O3", "N2"]),
                     "spans[3]: expected an object", id="inputs-spans[3]"),
        pytest.param(load_inputs, lambda d: d["costs"].__setitem__("tail", "1"),
                     "costs.tail: expected a number", id="inputs-costs.tail"),
        pytest.param(load_inputs, lambda d: d.__setitem__("costs", [1, 1, 0]),
                     "costs: expected an object", id="inputs-costs"),
        pytest.param(load_design, lambda d: d["costs"].pop("total_raw"),
                     "costs: missing key 'total_raw'", id="design-costs"),
        pytest.param(load_design, lambda d: d["costs"].__setitem__("regen", True),
                     "costs.regen: expected a number", id="design-costs.regen"),
        pytest.param(load_design, lambda d: d["tails"].__setitem__("R1", 1.5),
                     "tails['R1']: expected an integer", id="design-tails"),
        pytest.param(load_design, lambda d: d.__setitem__("ports", [0, 0]),
                     "ports: expected an object", id="design-ports"),
        pytest.param(load_design, lambda d: d.pop("algorithm"),
                     "{path}: missing key 'algorithm'", id="design-algorithm"),
        pytest.param(load_design, lambda d: d.__setitem__("status", ""),
                     "status: expected a non-empty string", id="design-status"),
        pytest.param(load_design, lambda d: d.__setitem__("scenarios", {}),
                     "scenarios: expected a list", id="design-scenarios"),
        pytest.param(load_design, lambda d: d["scenarios"][1].pop("links"),
                     "scenarios[1]: missing key 'links'", id="design-scenarios[1]"),
        pytest.param(load_design, lambda d: d["scenarios"][0].__setitem__("links", {}),
                     "scenarios[0].links: expected a list", id="design-links"),
        pytest.param(load_design, lambda d: d["scenarios"][5].__setitem__("links", {}),
                     "scenarios[5].links: expected a list", id="design-links-later"),
        pytest.param(load_design, lambda d: _no_failure_links(d).append("R1-R4"),
                     "scenarios[0].links[1]: expected an object", id="design-link"),
        pytest.param(load_design,
                     lambda d: _no_failure_links(d)[0].__setitem__("units", "2"),
                     "scenarios[0].links[0].units: expected an integer",
                     id="design-link-units"),
        pytest.param(load_design,
                     lambda d: _no_failure_links(d)[0]["regen_chains"][0].append(""),
                     "scenarios[0].links[0].regen_chains: expected a non-empty string",
                     id="design-link-regen_chains"),
        pytest.param(load_design,
                     lambda d: _no_failure_links(d)[0]["span_paths"][0][1].pop(),
                     "scenarios[0].links[0].span_paths: span keys are [u, v] pairs",
                     id="design-link-span_paths"),
        pytest.param(load_design, lambda d: d["scenarios"][1]["links"][0].pop("b"),
                     "scenarios[1].links[0]: missing key 'b'", id="design-link-b"),
    ],
)
def test_structural_errors_name_the_field(tmp_path, toy_document, load, mutate,
                                          message):
    if load is load_inputs:
        doc = _toy_input()
    else:
        doc = json.loads(json.dumps(toy_document))
    mutate(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputFormatError) as info:
        load(str(path))
    assert str(info.value) == message.format(path=path)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(InputFormatError, match="valid JSON"):
        load_inputs(str(path))


def test_semantic_errors_come_from_topology(tmp_path):
    doc = _toy_input()
    doc["demands"][0]["src"] = "O1"  # an optical node cannot offer traffic
    path = tmp_path / "semantic.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError):
        load_inputs(str(path))


@pytest.mark.parametrize(
    "mutate,needle",
    [
        # Unchecked, these gave "cost 0" (exit 0), an OverflowError
        # traceback, "cost nan" (exit 0), a "time limit expired" exit 4 with
        # no limit set, and "infeasible" exits 3.
        (lambda d: d["demands"][0].__setitem__("units", math.nan), "volume nan"),
        (lambda d: d["demands"][0].__setitem__("units", math.inf), "volume inf"),
        (lambda d: d["costs"].__setitem__("port", math.inf), "port cost is inf"),
        (lambda d: d["costs"].__setitem__("tail", math.nan), "tail cost is nan"),
        (lambda d: d["spans"][0].__setitem__("miles", math.nan), "mileage nan"),
        (lambda d: d["spans"][0].__setitem__("miles", math.inf), "mileage inf"),
        (lambda d: d.__setitem__("regen_dist", math.nan), "regen_dist must be positive"),
    ],
    ids=["units-nan", "units-inf", "port-inf", "tail-nan", "miles-nan", "miles-inf",
         "regen-dist-nan"],
)
def test_non_finite_inputs_exit_2(tmp_path, capsys, mutate, needle):
    doc = _toy_input()
    mutate(doc)
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity, as Python's json reads them
    with pytest.raises(TopologyError, match=needle):
        load_inputs(str(path))
    assert main(["design", str(path)]) == 2
    assert needle in capsys.readouterr().err


def test_infinite_reach_is_accepted(tmp_path, capsys):
    doc = _toy_input()
    doc["regen_dist"] = math.inf  # unlimited reach: no regens needed
    path = tmp_path / "unlimited.json"
    path.write_text(json.dumps(doc))
    assert main(["design", str(path)]) == 0
    assert "0 regens" in capsys.readouterr().out


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


def test_failed_save_keeps_previous_document(tmp_path, monkeypatch, toy_inputs,
                                             toy_optimal):
    _, _, costs = toy_inputs
    design, plans = toy_optimal
    links = {s.label(): plan_links(p) for s, p in plans.items()}
    path = tmp_path / "design.json"
    save_design(str(path), design, costs, algorithm="optimal", links=links)
    before = path.read_bytes()

    # Everything serialises but a last, unserialisable field.
    payload = design_payload(design, costs, algorithm="optimal", links=links)
    monkeypatch.setattr(roadmnet_io, "design_payload",
                        lambda *args, **kwargs: {**payload, "extra": object()})
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_design(str(path), design, costs, algorithm="optimal", links=links)
    assert path.read_bytes() == before


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


def test_nan_price_in_document_is_a_format_error(tmp_path, toy_document):
    doc = json.loads(json.dumps(toy_document))
    doc["costs"]["port"] = math.nan
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputFormatError, match="port cost is nan"):
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


def test_transient_rejects_a_failure_state_listed_twice(tmp_path, capsys, toy_document):
    # The later entry used to replace the earlier one: an empty no-failure
    # state rated 0.000000 on every row, with exit code 0.
    doc = json.loads(json.dumps(toy_document))
    n = len(doc["scenarios"])
    doc["scenarios"].append({"scenario": "no-failure", "links": []})
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputFormatError) as info:
        load_design(str(path))
    assert str(info.value) == f"scenarios[{n}]: scenario 'no-failure' listed twice"
    assert main([
        "transient", fixture_path("toy2x5"), "--design", str(path),
    ]) == 2
    assert "scenario 'no-failure' listed twice" in capsys.readouterr().err


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


def test_cli_legacy_round_trip_with_routers_against_name_order(tmp_path, capsys):
    # n22a/n22b are listed before n00a/n00b, so legacy walks a link from the
    # home of the router whose id sorts second.
    inputs, design_path = tmp_path / "grid.json", tmp_path / "legacy.json"
    inputs.write_text(json.dumps(input_payload(*grid_network(3, 3, ((2, 2), (0, 0))))))
    assert main([
        "design", str(inputs), "--algorithm", "legacy", "--out", str(design_path),
    ]) == 0
    csv_path = tmp_path / "tr.csv"
    assert main([
        "transient", str(inputs), "--design", str(design_path), "--out", str(csv_path),
    ]) == 0
    rows = csv_path.read_text().splitlines()[1:]
    assert len(rows) == 17 and all(row.endswith(",1.000000") for row in rows)


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


class TestPairedSiblings:
    """roadmnet design with sibling LPs on two threads or all on one."""

    @pytest.mark.parametrize("siblings", ["paired", "local"])
    def test_grid_design_document_is_unchanged(self, siblings, tmp_path, capsys,
                                               monkeypatch):
        if siblings == "local":
            monkeypatch.setattr(milp.os, "sched_getaffinity", lambda pid: {0})
        path = tmp_path / "design.json"
        assert main(["design", fixture_path("grid3x3_600"), "--out", str(path)]) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_DOCUMENTS[("grid3x3_600", "optimal")]
        assert capsys.readouterr().err == ""


def test_cli_compare(tmp_path, capsys):
    csv_path = tmp_path / "cmp.csv"
    assert main([
        "compare", fixture_path("toy2x5"), "--csv", str(csv_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "optimal" in out and "legacy" in out
    header = csv_path.read_text().splitlines()[0]
    assert header == "algorithm,status,cost,tails,regens,ports,seconds"
    rows = csv_path.read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [
        "optimal", "simple", "greedy", "legacy",
    ]
    assert all(r.split(",")[1] == "optimal" for r in rows)


def test_cli_compare_keeps_going_when_one_algorithm_runs_out_of_time(
        tmp_path, capsys, monkeypatch):
    def out_of_time(*args):
        raise NoIncumbentError("time limit expired with no placement found (joint model)")

    monkeypatch.setattr(cli, "design_optimal", out_of_time)
    csv_path = tmp_path / "cmp.csv"
    assert main(["compare", fixture_path("toy2x5"), "--csv", str(csv_path)]) == 4
    out, err = capsys.readouterr()
    table = out.splitlines()[1:5]
    assert [line.split()[0] for line in table] == list(ALGORITHMS)
    assert table[0].split() == ["optimal", "no", "answer", "-", "-", "-", "-", "-"]
    assert all(line.split()[1] == "optimal" for line in table[1:])
    rows = csv_path.read_text().splitlines()[1:]
    assert rows[0] == "optimal,no answer,,,,,"
    assert [row.split(",")[1] for row in rows[1:]] == ["optimal"] * 3
    assert err.count("\n") == 1 and err.startswith("no answer within budget: optimal (")


def test_cli_compare_keeps_going_when_one_algorithms_solver_fails(
        tmp_path, capsys, monkeypatch):
    def solver_fails(*args):
        raise milp.SolverError("LP backend failed with status 4")

    monkeypatch.setattr(cli, "design_greedy", solver_fails)
    csv_path = tmp_path / "cmp.csv"
    assert main(["compare", fixture_path("toy2x5"), "--csv", str(csv_path)]) == 4
    out, err = capsys.readouterr()
    table = out.splitlines()[1:5]
    assert [line.split()[1] for line in table] == ["optimal", "optimal", "no", "optimal"]
    assert table[2].split() == ["greedy", "no", "answer", "-", "-", "-", "-", "-"]
    rows = csv_path.read_text().splitlines()[1:]
    assert rows[2] == "greedy,no answer,,,,,"
    assert err == "solver failed: greedy (LP backend failed with status 4)\n"


def test_cli_compare_reports_time_outs_and_solver_failures_on_one_line(capsys, monkeypatch):
    # Every child LP on the calling thread fails: each solve that branches
    # raises SolverError (greedy's toy solves never branch).  design_optimal
    # runs out of time before it would.
    real = milp.linprog

    def fail_children(lp, lb, ub, time_limit):
        if np.array_equal(lb, lp.comp.lb) and np.array_equal(ub, lp.comp.ub):
            return real(lp, lb, ub, time_limit)
        return OptimizeResult(status=4, fun=None, x=None)

    def out_of_time(*args):
        raise NoIncumbentError("time limit expired with no placement found (joint model)")

    monkeypatch.setattr(milp, "linprog", fail_children)
    monkeypatch.setattr(cli, "design_optimal", out_of_time)
    assert main(["compare", fixture_path("toy2x5")]) == 4
    out, err = capsys.readouterr()
    assert [line.split()[:2] for line in out.splitlines()[1:5]] == [
        ["optimal", "no"], ["simple", "no"], ["greedy", "optimal"], ["legacy", "no"]]
    assert err == ("no answer within budget: optimal (time limit expired with no placement "
                   "found (joint model)); solver failed: simple (LP backend failed with "
                   "status 4); solver failed: legacy (LP backend failed with status 4)\n")


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

    @pytest.mark.parametrize("content", [
        b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)),
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["binary", "utf16-bom", "deep-nesting"])
    def test_unreadable_json_is_an_input_error(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["design", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not valid JSON: ")
        assert err.count("\n") == 1
        assert main(["transient", fixture_path("toy2x5"), "--design", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad} is not valid JSON: ")

    @pytest.mark.parametrize("section, key", [("spans", "miles"), ("demands", "units")])
    def test_number_out_of_range_in_input(self, tmp_path, capsys, section, key):
        doc = _toy_input()
        doc[section][0][key] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["design", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {section}[0].{key}: number out of range\n"
        )

    @pytest.mark.parametrize("field", ["costs.total_raw", "intra-node units"])
    def test_number_out_of_range_in_design_document(self, tmp_path, capsys, field):
        doc = tmp_path / "design.json"
        assert main([
            "design", fixture_path("toy2x5"), "--algorithm", "greedy",
            "--out", str(doc),
        ]) == 0
        payload = json.loads(doc.read_text())
        if field == "costs.total_raw":
            payload["costs"]["total_raw"] = 10**400
        else:
            # An intra-node link carries no chains to count its units against.
            field = "scenarios[0].links[1].units"
            payload["scenarios"][0]["links"].append({
                "a": "R1", "b": "R2", "units": 10**400,
                "regen_chains": [], "span_paths": [],
            })
        doc.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["transient", fixture_path("toy2x5"), "--design", str(doc)]) == 2
        assert capsys.readouterr().err == f"error: {field}: number out of range\n"

    def test_unparsable_arguments(self, capsys):
        assert main([]) == 2
        assert main(["design"]) == 2
        assert main(["design", "x.json", "--algorithm", "psychic"]) == 2

    def test_infeasible_network(self, tmp_path, capsys):
        doc = _toy_input()
        doc["routers"] = [r for r in doc["routers"] if r["id"] != "R2"]
        path = tmp_path / "fragile.json"
        path.write_text(json.dumps(doc))
        assert main(["design", str(path)]) == 3
        assert "infeasible" in capsys.readouterr().err

    def test_budget_too_small_for_any_answer(self, capsys):
        assert main([
            "design", fixture_path("toy2x5"), "--time-limit", "1e-9",
        ]) == 4
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["design", "in.json"],
        ["transient", "in.json", "--design", "doc.json"],
        ["compare", "in.json"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("seconds", ["nan", "-1", "0", "-inf", "soon"])
    def test_time_limit_must_be_positive(self, command, seconds, capsys):
        assert main([*command, f"--time-limit={seconds}"]) == 2
        assert "--time-limit: expected seconds > 0" in capsys.readouterr().err

    def test_infinite_time_limit_is_no_limit(self, capsys):
        assert main(["design", fixture_path("toy2x5"), "--time-limit", "inf"]) == 0

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

    def test_failed_root_lp_is_a_solver_failure_not_a_time_out(self, capsys, monkeypatch):
        monkeypatch.setattr(milp, "linprog",
                            lambda *args: OptimizeResult(status=4, fun=None, x=None))
        assert main(["design", fixture_path("toy2x5")]) == 4
        assert capsys.readouterr().err == "solver failed: LP backend failed with status 4\n"

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


# ---------------------------------------------------------------------------
# The time budget: seconds per failure state, for every solve
# ---------------------------------------------------------------------------


def record_limits(monkeypatch) -> list:
    """[(module, failure states of the model, time limit)] of every solve.

    A model that ``algorithms.build_design_model`` built over N failure
    states counts N; every other model counts one.
    """
    states, seen = {}, []
    real_build = algorithms.build_design_model

    def build(*args, **kwargs):
        dm = real_build(*args, **kwargs)
        # Holding the model keeps its id from being reused by a later one.
        states[id(dm.model)] = (dm.model, len(dm.blocks))
        return dm

    monkeypatch.setattr(algorithms, "build_design_model", build)
    for module in (algorithms, operation):
        def recording(model, time_limit=None, real=module.solve, name=module.__name__):
            seen.append((name, states.get(id(model), (model, 1))[1], time_limit))
            return real(model, time_limit)

        monkeypatch.setattr(module, "solve", recording)
    return seen


class TestTimeBudget:
    @pytest.mark.parametrize("fixture,algorithm", sorted(GOLDEN_DOCUMENTS))
    def test_every_design_solve_gets_the_per_state_limit(self, tmp_path, capsys,
                                                         monkeypatch, fixture, algorithm):
        seen = record_limits(monkeypatch)
        path = tmp_path / "design.json"
        assert main([
            "design", fixture_path(fixture), "--algorithm", algorithm,
            "--time-limit", "3600", "--out", str(path),
        ]) == 0
        n = len(enumerate_failures(load_inputs(fixture_path(fixture))[0]))
        assert all(limit == states * 3600.0 for _, states, limit in seen)
        joint = [states for _, states, _ in seen if states > 1]
        operated = [m for m, *_ in seen if m == "roadmnet.operation"]
        if algorithm == "optimal":
            assert joint == [n] and len(operated) == n
        else:  # a solve per state, then the CLI operates the no-failure state
            assert joint == [] and len(seen) - len(operated) >= n
            assert len(operated) == (algorithm != "legacy")
        # A limit nothing reaches changes no byte.
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_DOCUMENTS[(fixture, algorithm)]

    def test_compare_and_transient_limit_every_solve(self, tmp_path, capsys,
                                                     monkeypatch):
        doc = tmp_path / "design.json"
        assert main(["design", fixture_path("toy2x5"), "--out", str(doc)]) == 0
        seen = record_limits(monkeypatch)
        assert main(["compare", fixture_path("toy2x5"), "--time-limit", "600"]) == 0
        n = len(enumerate_failures(load_inputs(fixture_path("toy2x5"))[0]))
        assert [states for _, states, _ in seen if states > 1] == [n]
        assert all(limit == states * 600.0 for _, states, limit in seen)
        seen.clear()
        assert main([
            "transient", fixture_path("toy2x5"), "--design", str(doc),
            "--time-limit", "600",
        ]) == 0
        assert [limit for *_, limit in seen] == [600.0] * n

    def test_each_diagnosis_solve_gets_the_per_state_limit(self, tmp_path, capsys,
                                                           monkeypatch):
        doc = _toy_input()
        doc["routers"] = [r for r in doc["routers"] if r["id"] != "R2"]
        path = tmp_path / "fragile.json"
        path.write_text(json.dumps(doc))
        seen = record_limits(monkeypatch)
        assert main(["design", str(path), "--time-limit", "600"]) == 3
        n = len(enumerate_failures(load_inputs(str(path))[0]))
        joint, *diagnosis = seen
        assert joint[1:] == (n, 600.0 * n)
        assert diagnosis and all(entry[1:] == (1, 600.0) for entry in diagnosis)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_tight_limit_exits_4_promptly(self, tmp_path, capsys, algorithm):
        path = tmp_path / "grid4x4.json"
        grid = grid_network(4, 4, ((0, 0), (1, 2), (3, 3)))
        path.write_text(json.dumps(input_payload(*grid)))
        start = time.perf_counter()
        assert main([
            "design", str(path), "--algorithm", algorithm, "--time-limit", "1e-3",
        ]) == 4
        assert time.perf_counter() - start < 2.0
        assert "no answer within budget" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "roadmnet", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "design" in proc.stdout
