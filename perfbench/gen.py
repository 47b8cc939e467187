"""Seeded input generators for the benchmark.

Every generator returns a JSON-ready payload in the roadmnet input format (the
dict ``load_inputs`` reads from disk), so the inputs of a run can be written
out, hashed and compared byte for byte.  The same arguments always give the
same payload.

Each workload fixes a family of network structures; ``relabel`` turns the
benchmark seed into fresh names for every node and router and a fresh order
for every list.  Names steer roadmnet's lexicographic tie-breaks, its
scenario order and the column order of every model, so two seeds are
genuinely different inputs (the solver explores a different tree), while the
structure, and with it the amount of work per seed, stays comparable.
"""

from __future__ import annotations

import json
import random
import string

MILES = 600.0
REACH = 1000.0
UNITS = 0.8


def grid_payload(rows: int, cols: int, ip_cells) -> dict:
    """A rows x cols optical grid with dual-router IP nodes at ``ip_cells``.

    600-mile spans, 1000-mile reach (so every regen-free hop is one span) and
    all-pairs 0.8-unit demands between the IP nodes.
    """
    def name(rc):
        return f"n{rc[0]}{rc[1]}"

    cells = [(r, c) for r in range(rows) for c in range(cols)]
    ip = [name(rc) for rc in ip_cells]
    spans = []
    for r, c in cells:
        for nb in ((r, c + 1), (r + 1, c)):
            if nb[0] < rows and nb[1] < cols:
                spans.append({"u": name((r, c)), "v": name(nb), "miles": MILES})
    return {
        "ip_nodes": ip,
        "optical_nodes": [name(rc) for rc in cells if name(rc) not in ip],
        "routers": [{"id": f"{n}{i}", "home": n} for n in ip for i in "ab"],
        "spans": spans,
        "regen_dist": REACH,
        "demands": [
            {"src": s, "dst": t, "units": UNITS} for s in ip for t in ip if s != t
        ],
        "costs": {"tail": 1.0, "regen": 1.0, "port": 0.0},
    }


def micro_payload(structure: int) -> dict:
    """The test suite's micro ring network number ``structure``.

    Re-implements ``tests/instances.py::micro_instance`` draw for draw: a ring
    over two dual-router demand endpoints, an optional single-router IP node
    and two to four optical sites, up to two chords, one or two demands.
    """
    rng = random.Random(structure)
    n_opt = rng.randint(2, 4)
    optical = [f"o{i}" for i in range(1, n_opt + 1)]
    with_mid = n_opt <= 3 and rng.random() < 0.35
    ip_nodes = ["s", "t"] + (["m"] if with_mid else [])
    routers = [{"id": rid, "home": rid[0]} for rid in ("s1", "s2", "t1", "t2")]
    if with_mid:
        routers.append({"id": "m1", "home": "m"})
    nodes = ip_nodes + optical
    rng.shuffle(nodes)
    pool = (300.0, 450.0, 600.0, 750.0, 900.0)
    spans = [
        {"u": nodes[i], "v": nodes[(i + 1) % len(nodes)], "miles": rng.choice(pool)}
        for i in range(len(nodes))
    ]
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(nodes, 2)
        if all({s["u"], s["v"]} != {u, v} for s in spans):
            spans.append({"u": u, "v": v, "miles": rng.choice(pool)})
    demands = [{"src": "s", "dst": "t", "units": rng.choice((0.5, 0.8, 1.0))}]
    if rng.random() < 0.5:
        demands.append({"src": "t", "dst": "s", "units": rng.choice((0.5, 0.8, 1.0))})
    port = 0.5 if (not with_mid and n_opt <= 3 and rng.random() < 0.3) else 0.0
    return {
        "ip_nodes": ip_nodes,
        "optical_nodes": optical,
        "routers": routers,
        "spans": spans,
        "regen_dist": REACH,
        "demands": demands,
        "costs": {"tail": 1.0, "regen": rng.choice((1.0, 1.0, 2.0)), "port": port},
    }


def relabel(payload: dict, seed: int) -> dict:
    """The same network under fresh seeded names and list orders."""
    rng = random.Random(seed)
    used: set[str] = set()

    def fresh(prefix: str) -> str:
        while True:
            name = prefix + "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
            if name not in used:
                used.add(name)
                return name

    node = {n: fresh("n") for n in payload["ip_nodes"] + payload["optical_nodes"]}
    router = {r["id"]: fresh("r") for r in payload["routers"]}

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    spans = []
    for s in payload["spans"]:
        ends = shuffled((node[s["u"]], node[s["v"]]))
        spans.append({"u": ends[0], "v": ends[1], "miles": s["miles"]})
    return {
        "ip_nodes": shuffled(node[n] for n in payload["ip_nodes"]),
        "optical_nodes": shuffled(node[n] for n in payload["optical_nodes"]),
        "routers": shuffled(
            {"id": router[r["id"]], "home": node[r["home"]]} for r in payload["routers"]
        ),
        "spans": shuffled(spans),
        "regen_dist": payload["regen_dist"],
        "demands": shuffled(
            {"src": node[d["src"]], "dst": node[d["dst"]], "units": d["units"]}
            for d in payload["demands"]
        ),
        "costs": dict(payload["costs"]),
    }


def payload_bytes(payload: dict) -> bytes:
    """The canonical file form of a payload (what ``load_inputs`` reads)."""
    return (json.dumps(payload, indent=1) + "\n").encode()


def build(payload: dict):
    """(Topology, DemandMatrix, CostModel) of a payload, without file I/O."""
    from roadmnet import CostModel, DemandMatrix, Router, Span, Topology

    topology = Topology(
        ip_nodes=tuple(payload["ip_nodes"]),
        optical_nodes=tuple(payload["optical_nodes"]),
        routers=tuple(Router(r["id"], r["home"]) for r in payload["routers"]),
        spans=tuple(Span(s["u"], s["v"], s["miles"]) for s in payload["spans"]),
        regen_dist=payload["regen_dist"],
    )
    demands = DemandMatrix(
        entries=tuple((d["src"], d["dst"], d["units"]) for d in payload["demands"])
    )
    return topology, demands, CostModel(**payload["costs"])
