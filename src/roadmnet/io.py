"""JSON input and design-document handling.

Two file formats live here: the *network input* (topology, demands, unit
costs) and the *design document* (a placement plus the per-scenario link
assignments needed to re-evaluate it later).  Both are plain JSON with
deterministic serialization, so writing the same design twice produces
identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Iterator, Mapping

from .design import Design
from .operation import LinkRecord, OperationPlan
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
# CostModel's prices and Design's equipment counts, under the names the
# classes and the files share; the writer and both loaders use these.
_PRICES = ("tail", "regen", "port")
_COUNTS = ("tails", "regens_raw", "regens_reported", "ports")


class InputFormatError(ValueError):
    """A file is syntactically or structurally not what was expected."""


# ---------------------------------------------------------------------------
# Readers shared by both formats, and the network input
# ---------------------------------------------------------------------------


def _read_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    # ValueError covers malformed JSON and bytes that are not UTF-8;
    # RecursionError, arrays or objects nested too deep to parse.
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc


def _fields(value: Any, where: str, prefix: str | None = None) -> Callable[..., Any]:
    """A reader for the fields of the JSON object ``value``, named ``where``.

    ``field(key, read[, default])`` returns ``value[key]``, or ``default`` if
    the key is absent, checked by ``read``; without a default (``None``) the
    key is required.  A missing key is named at ``where``, a bad value at the
    field: ``where.key``, or ``prefix + key`` (a file's top-level fields are
    named by their key alone).
    """
    obj = _as_object(value, where)
    if prefix is None:
        prefix = f"{where}."

    def field(key: str, read: Callable[[Any, str], Any], default: Any = None) -> Any:
        if key in obj:
            found = obj[key]
        elif default is None:
            raise InputFormatError(f"{where}: missing key {key!r}")
        else:
            found = default
        return read(found, prefix + key)

    return field


def _objects(value: Any, where: str) -> Iterator[Callable[..., Any]]:
    """A field reader for each entry of the list of objects ``value``.

    The list is named ``where`` (a nested one by its full path, such as
    ``scenarios[5].links``), entry i ``where[i]``.  Each entry is checked
    only when it is reached, so a file with several faults reports the
    first one its loader reads.
    """
    for i, entry in enumerate(_as_list(value, where)):
        yield _fields(entry, f"{where}[{i}]")


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise InputFormatError(f"{where}: expected a non-empty string")
    return value


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFormatError(f"{where}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise InputFormatError(f"{where}: number out of range") from None


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{where}: expected an integer")
    _as_number(value, where)  # the solver takes every count as a float
    return value


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise InputFormatError(f"{where}: expected a list")
    return value


def _as_object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputFormatError(f"{where}: expected an object")
    return value


def _strings(value: Any, where: str) -> tuple[str, ...]:
    return tuple(
        _as_str(s, f"{where}[{i}]") for i, s in enumerate(_as_list(value, where))
    )


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
    top = _fields(_read_json(path), path, "")
    topology = Topology(
        ip_nodes=top("ip_nodes", _strings),
        optical_nodes=top("optical_nodes", _strings),
        routers=tuple(
            Router(id=router("id", _as_str), node=router("home", _as_str))
            for router in top("routers", _objects)
        ),
        spans=tuple(
            Span(u=span("u", _as_str), v=span("v", _as_str),
                 miles=span("miles", _as_number))
            for span in top("spans", _objects)
        ),
        regen_dist=top("regen_dist", _as_number),
    )
    demands = DemandMatrix(
        entries=tuple(
            (demand("src", _as_str), demand("dst", _as_str),
             demand("units", _as_number))
            for demand in top("demands", _objects)
        )
    )
    demands.validate_against(topology)

    price = top("costs", _fields, {})
    costs = CostModel(  # a missing price takes CostModel's default
        **{kind: price(kind, _as_number, getattr(CostModel, kind)) for kind in _PRICES}
    )
    return topology, demands, costs


# ---------------------------------------------------------------------------
# Design documents
# ---------------------------------------------------------------------------


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
        seen: set[tuple[str, str]] = set()
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
            if (rec.a, rec.b) in seen:
                raise InputFormatError(f"{link}: listed twice in {label}")
            seen.add((rec.a, rec.b))
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
        return OperationPlan.from_links(topology, scenario, self.links[label], {})


def parse_scenario_label(topology: Topology, label: str) -> FailureScenario:
    """Inverse of FailureScenario.label(), validated against the topology.

    A ``span:`` label is matched against the topology's spans, so node ids
    may hold ``~``; one that matches none is split on ``~``.
    """
    if label == "no-failure":
        return FailureScenario.no_failure()
    if label.startswith("span:"):
        text = label[len("span:"):]
        keys = [key for key in topology.span_by_key if "~".join(key) == text]
        if len(keys) > 1:
            raise InputFormatError(
                f"span scenario label {label!r} names both {keys[0]} and {keys[1]}"
            )
        (parts,) = keys or [text.split("~")]
        if len(parts) != 2:
            raise InputFormatError(f"bad span scenario label {label!r}")
        scen = FailureScenario.span_cut(*parts)
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
    """LinkRecords for a plan's provisioned links, canonically ordered: the
    inverse of ``OperationPlan.from_links``."""
    return tuple(
        LinkRecord(a, b, units, plan.regen_chains.get((a, b), ()),
                   plan.span_paths.get((a, b), ()))
        for a, b, units in plan.canonical_links()
    )


def design_payload(
    design: Design,
    costs: CostModel,
    *,
    algorithm: str,
    links: Mapping[str, tuple[LinkRecord, ...]] | None = None,
) -> dict:
    """The JSON-ready document for a design."""
    # asdict keeps LinkRecord's field order, and json writes its tuples as lists.
    scenarios = [{"scenario": label, "links": [asdict(rec) for rec in records]}
                 for label, records in (links or {}).items()]
    return {
        "format": DESIGN_FORMAT,
        "algorithm": algorithm,
        "status": design.solve_status,
        **{
            key: {k: int(v) for k, v in sorted(getattr(design, key).items())}
            for key in _COUNTS
        },
        "costs": {
            **{kind: getattr(costs, kind) for kind in _PRICES},
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
    # The whole text first: a payload that fails to serialise leaves the old file.
    text = json.dumps(payload, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _as_count(value: Any, where: str) -> int:
    if _as_int(value, where) < 0:
        raise InputFormatError(f"{where}: expected a count >= 0")
    return value


def _int_counts(value: Any, where: str) -> dict[str, int]:
    counts = _as_object(value, where)
    return {k: _as_count(v, f"{where}[{k!r}]") for k, v in counts.items()}


def _as_status(value: Any, where: str) -> str:
    if _as_str(value, where) not in ("optimal", "feasible"):
        raise InputFormatError(f'{where}: expected "optimal" or "feasible"')
    return value


def _span_key(value: Any, where: str) -> SpanKey:
    pair = _as_list(value, where)
    if len(pair) != 2:
        raise InputFormatError(f"{where}: span keys are [u, v] pairs")
    return _as_str(pair[0], where), _as_str(pair[1], where)


def _lists(value: Any, where: str, read: Callable[[Any, str], Any]) -> tuple:
    """A list of lists whose items ``read`` checks, all named ``where``."""
    return tuple(
        tuple(read(item, where) for item in _as_list(inner, where))
        for inner in _as_list(value, where)
    )


def load_design(path: str) -> DesignDocument:
    """Read a design document written by :func:`save_design`."""
    doc = _read_json(path)
    top = _fields(doc, path, "")
    if doc.get("format") != DESIGN_FORMAT:
        raise InputFormatError(
            f"{path}: unsupported format {doc.get('format')!r}"
        )
    price = top("costs", _fields)
    try:
        costs = CostModel(**{kind: price(kind, _as_number) for kind in _PRICES})
    except TopologyError as exc:  # a negative or non-finite price
        raise InputFormatError(f"costs: {exc}") from exc
    design = Design(
        **{key: top(key, _int_counts) for key in _COUNTS},
        total_cost_raw=price("total_raw", _as_number),
        total_cost_reported=price("total_reported", _as_number),
        solve_status=top("status", _as_status),
    )
    links: dict[str, tuple[LinkRecord, ...]] = {}
    for i, scenario in enumerate(top("scenarios", _objects, [])):
        label = scenario("scenario", _as_str)
        if label in links:
            raise InputFormatError(f"scenarios[{i}]: scenario {label!r} listed twice")
        links[label] = tuple(
            LinkRecord(  # checked in this order: units, optics, endpoints
                units=link("units", _as_int),
                regen_chains=link("regen_chains", partial(_lists, read=_as_str), []),
                span_paths=link("span_paths", partial(_lists, read=_span_key), []),
                a=link("a", _as_str),
                b=link("b", _as_str),
            )
            for link in scenario("links", _objects)
        )
    return DesignDocument(
        algorithm=top("algorithm", _as_str),
        costs=costs,
        design=design,
        links=links,
    )
