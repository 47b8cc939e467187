"""JSON input and design-document handling.

Two file formats live here: the *network input* (topology, demands, unit
costs) and the *design document* (a placement plus the per-scenario link
assignments needed to re-evaluate it later).  Both are plain JSON with
deterministic serialization, so writing the same design twice produces
identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .design import Design
from .operation import OperationPlan
from .topology import (
    CostModel,
    DemandMatrix,
    FailureScenario,
    Router,
    Span,
    SpanKey,
    Topology,
    TopologyError,
    validate_scenario,
)

DESIGN_FORMAT = "roadmnet-design/1"


class InputFormatError(ValueError):
    """A file is syntactically or structurally not what was expected."""


# ---------------------------------------------------------------------------
# Network input
# ---------------------------------------------------------------------------


def _require(mapping: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in mapping:
        raise InputFormatError(f"{where}: missing key {key!r}")
    return mapping[key]


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise InputFormatError(f"{where}: expected a non-empty string")
    return value


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFormatError(f"{where}: expected a number")
    return float(value)


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise InputFormatError(f"{where}: expected a list")
    return value


def _as_object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputFormatError(f"{where}: expected an object")
    return value


def load_inputs(path: str) -> tuple[Topology, DemandMatrix, CostModel]:
    """Read a network input file.

    Expected shape::

        {
          "ip_nodes": ["N1", "N2"],
          "optical_nodes": ["O1"],
          "routers": [{"id": "R1", "home": "N1"}, ...],
          "spans": [{"u": "N1", "v": "O1", "miles": 450}, ...],
          "regen_dist": 1000,
          "demands": [{"src": "N1", "dst": "N2", "units": 0.8}, ...],
          "costs": {"tail": 1.0, "regen": 1.0, "port": 0.0}
        }

    ``costs`` is optional (defaults: tail 1, regen 1, port 0); everything
    else is required.  Structural problems raise InputFormatError; semantic
    ones (unknown nodes, disconnected fiber) raise TopologyError.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    doc = _as_object(raw, path)

    ip_nodes = tuple(
        _as_str(n, f"ip_nodes[{i}]")
        for i, n in enumerate(_as_list(_require(doc, "ip_nodes", path), "ip_nodes"))
    )
    optical_nodes = tuple(
        _as_str(n, f"optical_nodes[{i}]")
        for i, n in enumerate(
            _as_list(_require(doc, "optical_nodes", path), "optical_nodes")
        )
    )
    routers = []
    for i, entry in enumerate(_as_list(_require(doc, "routers", path), "routers")):
        obj = _as_object(entry, f"routers[{i}]")
        routers.append(
            Router(
                id=_as_str(_require(obj, "id", f"routers[{i}]"), f"routers[{i}].id"),
                node=_as_str(
                    _require(obj, "home", f"routers[{i}]"), f"routers[{i}].home"
                ),
            )
        )
    spans = []
    for i, entry in enumerate(_as_list(_require(doc, "spans", path), "spans")):
        obj = _as_object(entry, f"spans[{i}]")
        spans.append(
            Span(
                u=_as_str(_require(obj, "u", f"spans[{i}]"), f"spans[{i}].u"),
                v=_as_str(_require(obj, "v", f"spans[{i}]"), f"spans[{i}].v"),
                miles=_as_number(
                    _require(obj, "miles", f"spans[{i}]"), f"spans[{i}].miles"
                ),
            )
        )
    regen_dist = _as_number(_require(doc, "regen_dist", path), "regen_dist")
    topology = Topology(
        ip_nodes=ip_nodes,
        optical_nodes=optical_nodes,
        routers=tuple(routers),
        spans=tuple(spans),
        regen_dist=regen_dist,
    )

    entries = []
    for i, entry in enumerate(_as_list(_require(doc, "demands", path), "demands")):
        obj = _as_object(entry, f"demands[{i}]")
        entries.append(
            (
                _as_str(_require(obj, "src", f"demands[{i}]"), f"demands[{i}].src"),
                _as_str(_require(obj, "dst", f"demands[{i}]"), f"demands[{i}].dst"),
                _as_number(
                    _require(obj, "units", f"demands[{i}]"), f"demands[{i}].units"
                ),
            )
        )
    demands = DemandMatrix(entries=tuple(entries))
    demands.validate_against(topology)

    costs_obj = doc.get("costs", {})
    costs_obj = _as_object(costs_obj, "costs")
    costs = CostModel(
        tail=_as_number(costs_obj.get("tail", 1.0), "costs.tail"),
        regen=_as_number(costs_obj.get("regen", 1.0), "costs.regen"),
        port=_as_number(costs_obj.get("port", 0.0), "costs.port"),
    )
    return topology, demands, costs


# ---------------------------------------------------------------------------
# Design documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkRecord:
    """One provisioned link: endpoints, units, and per-unit optical detail."""

    a: str
    b: str
    units: int
    regen_chains: tuple[tuple[str, ...], ...]
    span_paths: tuple[tuple[SpanKey, ...], ...]


@dataclass(frozen=True)
class DesignDocument:
    """A saved design plus its per-scenario link assignments."""

    algorithm: str
    costs: CostModel
    design: Design
    links: dict[str, tuple[LinkRecord, ...]]  # keyed by scenario label

    def plan(self, topology: Topology, label: str = "no-failure") -> OperationPlan:
        """Rebuild an OperationPlan for one stored scenario (without flows)."""
        if label not in self.links:
            raise InputFormatError(f"design document has no scenario {label!r}")
        scenario = parse_scenario_label(topology, label)
        link_caps: dict[tuple[str, str], int] = {}
        chains: dict[tuple[str, str], tuple[tuple[str, ...], ...]] = {}
        paths: dict[tuple[str, str], tuple[tuple[SpanKey, ...], ...]] = {}
        for rec in self.links[label]:
            for rid in (rec.a, rec.b):
                if rid not in topology.router_by_id:
                    raise InputFormatError(
                        f"design document names unknown router {rid!r}; "
                        "was it written for a different network?"
                    )
            for path in rec.span_paths:
                for key in path:
                    if key not in topology.span_by_key:
                        raise InputFormatError(
                            f"design document names unknown span {key[0]}-{key[1]}"
                        )
            # Records are keyed and read back by their canonical pair; an
            # external link carries one regen chain and one span path per
            # unit, an intra-node link none.
            link = f"design document link {rec.a}-{rec.b}"
            if rec.a >= rec.b:
                raise InputFormatError(f"{link}: endpoints must be in sorted order")
            if rec.units < 1:
                raise InputFormatError(f"{link}: needs at least one unit")
            if (rec.a, rec.b) in link_caps:
                raise InputFormatError(f"{link}: listed twice in {label}")
            external = topology.home(rec.a) != topology.home(rec.b)
            optics = rec.units if external else 0
            if len(rec.regen_chains) != optics or len(rec.span_paths) != optics:
                raise InputFormatError(
                    f"{link}: an {'external' if external else 'intra-node'} link "
                    f"of {rec.units} units needs {optics} regen chains and span "
                    f"paths, not {len(rec.regen_chains)} and {len(rec.span_paths)}"
                )
            for chain, path in zip(rec.regen_chains, rec.span_paths):
                walk = [topology.home(rec.a)]
                for u, v in path:
                    if walk[-1] not in (u, v):
                        raise InputFormatError(f"{link}: span {u}-{v} does not "
                                               f"continue from {walk[-1]}")
                    walk.append(v if walk[-1] == u else u)
                if walk[-1] != topology.home(rec.b):
                    raise InputFormatError(f"{link}: span path ends at {walk[-1]}, "
                                           f"not at {topology.home(rec.b)}")
                on_path = iter(walk[1:-1])  # in order: each found after the last
                if not all(site in on_path for site in chain):
                    raise InputFormatError(f"{link}: regen chain {list(chain)} "
                                           "does not lie on its span path in order")
            link_caps[(rec.a, rec.b)] = rec.units
            link_caps[(rec.b, rec.a)] = rec.units
            if external:
                chains[(rec.a, rec.b)] = rec.regen_chains
                paths[(rec.a, rec.b)] = rec.span_paths
        return OperationPlan(
            topology=topology,
            scenario=scenario,
            link_caps=link_caps,
            flows={},
            regen_chains=chains,
            span_paths=paths,
        )


def parse_scenario_label(topology: Topology, label: str) -> FailureScenario:
    """Inverse of FailureScenario.label(), validated against the topology."""
    if label == "no-failure":
        return FailureScenario.no_failure()
    if label.startswith("span:"):
        parts = label[len("span:"):].split("~")
        if len(parts) != 2:
            raise InputFormatError(f"bad span scenario label {label!r}")
        scen = FailureScenario.span_cut(parts[0], parts[1])
    elif label.startswith("router:"):
        scen = FailureScenario.router_down(label[len("router:"):])
    else:
        raise InputFormatError(f"unknown scenario label {label!r}")
    try:
        validate_scenario(topology, scen)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    return scen


def plan_links(plan: OperationPlan) -> tuple[LinkRecord, ...]:
    """LinkRecords for a plan's provisioned links, canonically ordered."""
    out = []
    for a, b, units in plan.canonical_links():
        out.append(
            LinkRecord(
                a=a,
                b=b,
                units=units,
                regen_chains=plan.regen_chains.get((a, b), ()),
                span_paths=plan.span_paths.get((a, b), ()),
            )
        )
    return tuple(out)


def design_payload(
    design: Design,
    costs: CostModel,
    *,
    algorithm: str,
    links: Mapping[str, tuple[LinkRecord, ...]] | None = None,
) -> dict:
    """The JSON-ready document for a design."""
    scenarios = []
    for label, records in (links or {}).items():
        scenarios.append(
            {
                "scenario": label,
                "links": [
                    {
                        "a": rec.a,
                        "b": rec.b,
                        "units": rec.units,
                        "regen_chains": [list(ch) for ch in rec.regen_chains],
                        "span_paths": [
                            [list(k) for k in path] for path in rec.span_paths
                        ],
                    }
                    for rec in records
                ],
            }
        )
    return {
        "format": DESIGN_FORMAT,
        "algorithm": algorithm,
        "status": design.solve_status,
        "tails": {k: int(v) for k, v in sorted(design.tails.items())},
        "regens_raw": {k: int(v) for k, v in sorted(design.regens_raw.items())},
        "regens_reported": {
            k: int(v) for k, v in sorted(design.regens_reported.items())
        },
        "ports": {k: int(v) for k, v in sorted(design.ports.items())},
        "costs": {
            "tail": costs.tail,
            "regen": costs.regen,
            "port": costs.port,
            "total_raw": design.total_cost_raw,
            "total_reported": design.total_cost_reported,
        },
        "scenarios": scenarios,
    }


def save_design(
    path: str,
    design: Design,
    costs: CostModel,
    *,
    algorithm: str,
    links: Mapping[str, tuple[LinkRecord, ...]] | None = None,
) -> None:
    payload = design_payload(design, costs, algorithm=algorithm, links=links)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _int_counts(obj: Any, where: str) -> dict[str, int]:
    result = {}
    for k, v in _as_object(obj, where).items():
        if isinstance(v, bool) or not isinstance(v, int):
            raise InputFormatError(f"{where}[{k!r}]: expected an integer")
        result[k] = v
    return result


def load_design(path: str) -> DesignDocument:
    """Read a design document written by :func:`save_design`."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    doc = _as_object(raw, path)
    if doc.get("format") != DESIGN_FORMAT:
        raise InputFormatError(
            f"{path}: unsupported format {doc.get('format')!r}"
        )
    costs_obj = _as_object(_require(doc, "costs", path), "costs")
    try:
        costs = CostModel(
            tail=_as_number(_require(costs_obj, "tail", "costs"), "costs.tail"),
            regen=_as_number(_require(costs_obj, "regen", "costs"), "costs.regen"),
            port=_as_number(_require(costs_obj, "port", "costs"), "costs.port"),
        )
    except TopologyError as exc:  # a negative or non-finite price
        raise InputFormatError(f"costs: {exc}") from exc
    design = Design(
        tails=_int_counts(_require(doc, "tails", path), "tails"),
        regens_raw=_int_counts(_require(doc, "regens_raw", path), "regens_raw"),
        regens_reported=_int_counts(
            _require(doc, "regens_reported", path), "regens_reported"
        ),
        ports=_int_counts(_require(doc, "ports", path), "ports"),
        total_cost_raw=_as_number(
            _require(costs_obj, "total_raw", "costs"), "costs.total_raw"
        ),
        total_cost_reported=_as_number(
            _require(costs_obj, "total_reported", "costs"), "costs.total_reported"
        ),
        solve_status=_as_str(_require(doc, "status", path), "status"),
    )
    links: dict[str, tuple[LinkRecord, ...]] = {}
    for i, entry in enumerate(_as_list(doc.get("scenarios", []), "scenarios")):
        obj = _as_object(entry, f"scenarios[{i}]")
        label = _as_str(_require(obj, "scenario", f"scenarios[{i}]"),
                        f"scenarios[{i}].scenario")
        records = []
        for j, rec in enumerate(
            _as_list(_require(obj, "links", f"scenarios[{i}]"), "links")
        ):
            where = f"scenarios[{i}].links[{j}]"
            robj = _as_object(rec, where)
            units = _require(robj, "units", where)
            if isinstance(units, bool) or not isinstance(units, int):
                raise InputFormatError(f"{where}.units: expected an integer")
            chains = tuple(
                tuple(_as_str(n, f"{where}.regen_chains") for n in _as_list(ch, f"{where}.regen_chains"))
                for ch in _as_list(robj.get("regen_chains", []), f"{where}.regen_chains")
            )
            paths = []
            for p in _as_list(robj.get("span_paths", []), f"{where}.span_paths"):
                keys = []
                for k in _as_list(p, f"{where}.span_paths"):
                    pair = _as_list(k, f"{where}.span_paths")
                    if len(pair) != 2:
                        raise InputFormatError(
                            f"{where}.span_paths: span keys are [u, v] pairs"
                        )
                    keys.append((
                        _as_str(pair[0], f"{where}.span_paths"),
                        _as_str(pair[1], f"{where}.span_paths"),
                    ))
                paths.append(tuple(keys))
            records.append(
                LinkRecord(
                    a=_as_str(_require(robj, "a", where), f"{where}.a"),
                    b=_as_str(_require(robj, "b", where), f"{where}.b"),
                    units=units,
                    regen_chains=chains,
                    span_paths=tuple(paths),
                )
            )
        links[label] = tuple(records)
    return DesignDocument(
        algorithm=_as_str(_require(doc, "algorithm", path), "algorithm"),
        costs=costs,
        design=design,
        links=links,
    )
