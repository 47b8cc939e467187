"""Shared deterministic instance builders for the test suite."""

from __future__ import annotations

import random

from roadmnet.milp import LinearModel
from roadmnet.topology import (
    CostModel,
    DemandMatrix,
    Router,
    Span,
    Topology,
    span_key,
)

# Sixty seeds whose micro instances are feasible under every enumerated
# failure and solve quickly; frozen after a scan of the generator.
MICRO_SEEDS = tuple(range(60))


def toy_network() -> tuple[Topology, DemandMatrix, CostModel]:
    """The hand-built two-path running example (same as the shipped fixture).

    Top route N1-O1-O2-O3-N2 in four 450-mile spans; bottom route
    N1-O4-O2-O5-N2 with two 900-mile spans into O2 and two 450s out.
    """
    topology = Topology(
        ip_nodes=("N1", "N2"),
        optical_nodes=("O1", "O2", "O3", "O4", "O5"),
        routers=(
            Router("R1", "N1"),
            Router("R2", "N1"),
            Router("R3", "N2"),
            Router("R4", "N2"),
        ),
        spans=(
            Span("N1", "O1", 450.0),
            Span("O1", "O2", 450.0),
            Span("O2", "O3", 450.0),
            Span("O3", "N2", 450.0),
            Span("N1", "O4", 900.0),
            Span("O4", "O2", 900.0),
            Span("O2", "O5", 450.0),
            Span("O5", "N2", 450.0),
        ),
        regen_dist=1000.0,
    )
    demands = DemandMatrix(entries=(("N1", "N2", 0.8),))
    return topology, demands, CostModel(tail=1.0, regen=1.0, port=0.0)


def grid_network(
    rows: int, cols: int, ip_cells: tuple[tuple[int, int], ...]
) -> tuple[Topology, DemandMatrix, CostModel]:
    """A rows x cols grid of 600-mile spans with two routers at each IP cell.

    1000-mile reach, so every regen-free hop is one span, and 0.8-unit
    demands between every ordered pair of IP nodes (the shipped
    ``grid3x3_600`` fixture is ``grid_network(3, 3, ((0, 0), (2, 2)))``).
    """
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    ip = [f"n{r}{c}" for r, c in ip_cells]
    topology = Topology(
        ip_nodes=tuple(ip),
        optical_nodes=tuple(f"n{r}{c}" for r, c in cells if f"n{r}{c}" not in ip),
        routers=tuple(Router(f"{n}{i}", n) for n in ip for i in "ab"),
        spans=tuple(
            Span(f"n{r}{c}", f"n{nr}{nc}", 600.0)
            for r, c in cells
            for nr, nc in ((r, c + 1), (r + 1, c))
            if nr < rows and nc < cols
        ),
        regen_dist=1000.0,
    )
    demands = DemandMatrix(entries=tuple((s, t, 0.8) for s in ip for t in ip if s != t))
    return topology, demands, CostModel(tail=1.0, regen=1.0, port=0.0)



def input_payload(topology: Topology, demands: DemandMatrix, costs: CostModel) -> dict:
    """The network as the JSON input ``load_inputs`` reads."""
    return {
        "ip_nodes": list(topology.ip_nodes),
        "optical_nodes": list(topology.optical_nodes),
        "routers": [{"id": r.id, "home": r.node} for r in topology.routers],
        "spans": [{"u": s.u, "v": s.v, "miles": s.miles} for s in topology.spans],
        "regen_dist": topology.regen_dist,
        "demands": [{"src": s, "dst": t, "units": u} for s, t, u in demands.entries],
        "costs": {"tail": costs.tail, "regen": costs.regen, "port": costs.port},
    }

def micro_instance(seed: int) -> tuple[Topology, DemandMatrix, CostModel]:
    """A small random ring network with demands between two IP nodes.

    Shaped so that the exhaustive placement oracle stays in scope: one
    demanded node pair, at most one unit per direction, and few enough
    priced sites that counts up to 2 enumerate quickly.  Demand endpoints
    always get two routers so no single router loss is fatal.
    """
    rng = random.Random(seed)
    n_opt = rng.randint(2, 4)
    optical = tuple(f"o{i}" for i in range(1, n_opt + 1))
    with_mid = n_opt <= 3 and rng.random() < 0.35
    ip_nodes = ("s", "t") + (("m",) if with_mid else ())
    routers = [
        Router("s1", "s"),
        Router("s2", "s"),
        Router("t1", "t"),
        Router("t2", "t"),
    ]
    if with_mid:
        routers.append(Router("m1", "m"))

    nodes = list(ip_nodes + optical)
    rng.shuffle(nodes)
    miles_pool = (300.0, 450.0, 600.0, 750.0, 900.0)
    spans = [
        Span(nodes[i], nodes[(i + 1) % len(nodes)], rng.choice(miles_pool))
        for i in range(len(nodes))
    ]
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(nodes, 2)
        if all(s.key != span_key(u, v) for s in spans):
            spans.append(Span(u, v, rng.choice(miles_pool)))

    entries = [("s", "t", rng.choice((0.5, 0.8, 1.0)))]
    if rng.random() < 0.5:
        entries.append(("t", "s", rng.choice((0.5, 0.8, 1.0))))
    # Priced ports blow up the enumeration space, so only on tiny instances.
    port_cost = 0.5 if (not with_mid and n_opt <= 3 and rng.random() < 0.3) else 0.0
    costs = CostModel(
        tail=1.0, regen=rng.choice((1.0, 1.0, 2.0)), port=port_cost
    )
    topology = Topology(
        ip_nodes=ip_nodes,
        optical_nodes=optical,
        routers=tuple(routers),
        spans=tuple(spans),
        regen_dist=1000.0,
    )
    return topology, DemandMatrix(entries=tuple(entries)), costs


def random_integer_model(seed: int) -> LinearModel:
    """A small bounded all-integer model; roughly half are feasible."""
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    model = LinearModel(f"random_{seed}")
    for i in range(n):
        model.add_variable(f"x{i}", lb=0, ub=rng.randint(1, 3), integer=True)
    senses = ("<=", "<=", ">=", ">=", "==")
    for _ in range(rng.randint(2, 5)):
        support = rng.sample(range(n), rng.randint(1, min(3, n)))
        coeffs = {f"x{i}": rng.randint(-3, 3) or 1 for i in support}
        model.add_constraint(coeffs, rng.choice(senses), rng.randint(-1, 7))
    model.set_objective({f"x{i}": rng.randint(-4, 4) for i in range(n)})
    return model


def walk_from_spans(
    topology: Topology, start: str, spans: tuple[tuple[str, str], ...]
) -> tuple[str, ...]:
    """Node sequence of a span-key path beginning at ``start``."""
    walk = [start]
    for u, v in spans:
        here = walk[-1]
        if here == u:
            walk.append(v)
        elif here == v:
            walk.append(u)
        else:
            raise ValueError(f"span {u}-{v} does not continue from {here}")
    return tuple(walk)
