"""Command-line front end.

Three subcommands:

* ``design``    -- place equipment for an input network and save the design
* ``transient`` -- rate a saved design's immediate post-failure delivery
* ``compare``   -- run all four placement algorithms side by side

Exit codes: 0 success, 2 bad input or arguments, 3 the instance cannot be
made survivable, 4 the solver ran out of its time budget with no answer.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import defaultdict

from .algorithms import (
    design_greedy,
    design_legacy,
    design_optimal,
    design_simple,
)
from .design import Design, InfeasibleDesignError, NoIncumbentError
from .io import (
    InputFormatError,
    LinkRecord,
    load_design,
    load_inputs,
    plan_links,
    save_design,
)
from .operation import operate, transient_reports, write_transient_csv
from .topology import (
    CostModel,
    DemandMatrix,
    FailureScenario,
    Topology,
    TopologyError,
    enumerate_failures,
)

ALGORITHMS = ("optimal", "simple", "greedy", "legacy")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NO_INCUMBENT = 4


def _legacy_links(topology: Topology, fleet) -> tuple[LinkRecord, ...]:
    """The owned legacy fleet as link records (same-pair purchases merged)."""
    units: dict[tuple[str, str], int] = defaultdict(int)
    chains: dict[tuple[str, str], list[tuple[str, ...]]] = defaultdict(list)
    paths: dict[tuple[str, str], list[tuple]] = defaultdict(list)
    for link in fleet:
        key = (link.a, link.b)
        units[key] += link.units
        if not link.intra:
            chains[key].extend([link.regens] * link.units)
            paths[key].extend([link.spans] * link.units)
    return tuple(
        LinkRecord(
            a=a,
            b=b,
            units=units[(a, b)],
            regen_chains=tuple(chains.get((a, b), ())),
            span_paths=tuple(paths.get((a, b), ())),
        )
        for a, b in sorted(units)
    )


def _run_algorithm(
    name: str,
    topology: Topology,
    demands: DemandMatrix,
    costs: CostModel,
    time_limit: float | None,
) -> tuple[Design, dict[str, tuple[LinkRecord, ...]]]:
    """Produce a design plus the per-scenario links worth persisting.

    The jointly optimal run has a plan for every scenario; the others record
    the no-failure deployment, which is what transient rating needs.
    """
    nf = FailureScenario.no_failure()
    if name == "optimal":
        scenario_count = len(enumerate_failures(topology))
        budget = time_limit * scenario_count if time_limit is not None else None
        design, plans = design_optimal(topology, demands, costs, budget)
        links = {s.label(): plan_links(p) for s, p in plans.items()}
        return design, links
    if name == "simple":
        design = design_simple(topology, demands, costs, time_limit)
    elif name == "greedy":
        design = design_greedy(topology, demands, costs, time_limit)
    elif name == "legacy":
        design, fleet = design_legacy(topology, demands, costs, time_limit)
        return design, {nf.label(): _legacy_links(topology, fleet)}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown algorithm {name!r}")
    plan = operate(topology, demands, design, nf, time_limit)
    return design, {nf.label(): plan_links(plan)}


def _cmd_design(args: argparse.Namespace) -> int:
    topology, demands, costs = load_inputs(args.input)
    design, links = _run_algorithm(
        args.algorithm, topology, demands, costs, args.time_limit
    )
    if args.out:
        save_design(args.out, design, costs, algorithm=args.algorithm, links=links)
    print(f"algorithm: {args.algorithm}")
    print(design.summary())
    if args.out:
        print(f"saved: {args.out}")
    return EXIT_OK


def _cmd_transient(args: argparse.Namespace) -> int:
    topology, demands, _ = load_inputs(args.input)
    document = load_design(args.design)
    base_plan = document.plan(topology)
    reports = transient_reports(
        topology,
        demands,
        base_plan,
        enumerate_failures(topology),
        concurrent=args.concurrent,
        time_limit=args.time_limit,
    )
    if args.out:
        with open(args.out, "w") as fh:
            write_transient_csv(reports, fh)
        print(f"saved: {args.out}")
    else:
        write_transient_csv(reports, sys.stdout)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    topology, demands, costs = load_inputs(args.input)
    rows = []
    for name in ALGORITHMS:
        start = time.perf_counter()
        design, _ = _run_algorithm(name, topology, demands, costs, args.time_limit)
        elapsed = time.perf_counter() - start
        rows.append(
            (
                name,
                design.total_cost_reported,
                design.tail_count,
                design.regen_count,
                design.port_count,
                elapsed,
            )
        )
    header = ("algorithm", "cost", "tails", "regens", "ports", "seconds")
    widths = [max(len(header[i]), 9) for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" if i == 0 else f"{{:>{w}}}"
                    for i, w in enumerate(widths))
    print(fmt.format(*header))
    for name, cost, tails, regens, ports, secs in rows:
        print(fmt.format(name, f"{cost:g}", tails, regens, ports, f"{secs:.2f}"))
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for name, cost, tails, regens, ports, secs in rows:
                writer.writerow([name, f"{cost:g}", tails, regens, ports,
                                 f"{secs:.3f}"])
        print(f"saved: {args.csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadmnet",
        description="Survivable IP-over-optical capacity planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="place equipment for a network")
    p_design.add_argument("input", help="network input JSON")
    p_design.add_argument(
        "--algorithm", choices=ALGORITHMS, default="optimal",
        help="placement algorithm (default: optimal)",
    )
    p_design.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="per-scenario solver budget",
    )
    p_design.add_argument("--out", default=None, help="design document to write")
    p_design.set_defaults(func=_cmd_design)

    p_tr = sub.add_parser(
        "transient", help="rate a design's delivery right after each failure"
    )
    p_tr.add_argument("input", help="network input JSON")
    p_tr.add_argument("--design", required=True, help="design document to rate")
    p_tr.add_argument(
        "--concurrent", action="store_true",
        help="maximize the fraction served equally to all demands",
    )
    p_tr.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="per-scenario solver budget",
    )
    p_tr.add_argument("--out", default=None, help="CSV to write (default stdout)")
    p_tr.set_defaults(func=_cmd_transient)

    p_cmp = sub.add_parser("compare", help="run all placement algorithms")
    p_cmp.add_argument("input", help="network input JSON")
    p_cmp.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="per-scenario solver budget (the joint solve gets it per scenario)",
    )
    p_cmp.add_argument("--csv", default=None, help="also write the table as CSV")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputFormatError, TopologyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleDesignError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NoIncumbentError as exc:
        print(f"no answer within budget: {exc}", file=sys.stderr)
        return EXIT_NO_INCUMBENT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
