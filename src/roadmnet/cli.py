"""Command-line front end.

Three subcommands:

* ``design``    -- place equipment for an input network and save the design
* ``transient`` -- rate a saved design's immediate post-failure delivery
* ``compare``   -- run all four placement algorithms side by side

Exit codes: 0 success, 2 bad input or arguments (prices so large that an
objective term reaches 1e17 included) or output that standard output cannot
encode, 3 the instance cannot be made survivable, 4 the solver gave no
answer: it ran out of its time budget, or HiGHS failed on an LP relaxation
("solver failed: ...").  ``compare`` prints a row for every algorithm
first and exits 4 if any gave no answer, else 3 if any found the instance
infeasible.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
import time

from .algorithms import (
    design_greedy,
    design_legacy,
    design_optimal,
    design_simple,
    legacy_plan,
)
from .design import Design, InfeasibleDesignError, NoIncumbentError
from .io import (
    InputFormatError,
    load_design,
    load_inputs,
    plan_links,
    save_design,
)
from .milp import ModelError, SolverError
from .operation import LinkRecord, operate, transient_reports, write_transient_csv
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

# Each way a design can fail: the word its message starts with, its status
# in a compare row and its exit code.
_FAILURES = {
    InfeasibleDesignError: ("infeasible", "infeasible", EXIT_INFEASIBLE),
    NoIncumbentError: ("no answer within budget", "no answer", EXIT_NO_INCUMBENT),
    SolverError: ("solver failed", "no answer", EXIT_NO_INCUMBENT),
}


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
    ``time_limit`` is seconds per failure state, as the algorithms take it.
    """
    nf = FailureScenario.no_failure()
    if name == "optimal":
        design, plans = design_optimal(topology, demands, costs, time_limit)
    elif name == "legacy":
        design, fleet = design_legacy(topology, demands, costs, time_limit)
        plans = {nf: legacy_plan(topology, fleet)}
    else:
        heuristic = {"simple": design_simple, "greedy": design_greedy}[name]
        design = heuristic(topology, demands, costs, time_limit)
        plans = {nf: operate(topology, demands, design, nf, time_limit)}
    return design, {scen.label(): plan_links(plan) for scen, plan in plans.items()}


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
        with open(args.out, "w", encoding="utf-8") as fh:
            write_transient_csv(reports, fh)
        print(f"saved: {args.out}")
    else:  # the whole text at once: one that stdout cannot encode writes nothing
        text = io.StringIO()
        write_transient_csv(reports, text)
        sys.stdout.write(text.getvalue())
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    """A row per algorithm, also for one that found the network infeasible,
    ran out of time or whose solver failed; after the table one line on
    stderr names each, and the exit is 4 if any gave no answer, else 3 if
    any was infeasible."""
    topology, demands, costs = load_inputs(args.input)
    rows, failed, codes = [], [], [EXIT_OK]
    for name in ALGORITHMS:
        start = time.perf_counter()
        try:
            design, _ = _run_algorithm(name, topology, demands, costs, args.time_limit)
        except tuple(_FAILURES) as exc:
            why, status, code = _FAILURES[type(exc)]
            failed.append(f"{why}: {name} ({exc})")
            rows.append((name, status))
            codes.append(code)
            continue
        elapsed = time.perf_counter() - start
        rows.append(
            (
                name,
                design.solve_status,
                design.total_cost_reported,
                design.tail_count,
                design.regen_count,
                design.port_count,
                elapsed,
            )
        )
    header = ("algorithm", "status", "cost", "tails", "regens", "ports", "seconds")
    widths = [max(len(header[i]), 9) for i in range(len(header))]
    widths[1] = max(widths[1], *(len(status) for _, status, *_ in rows))
    fmt = "  ".join(f"{{:<{w}}}" if i < 2 else f"{{:>{w}}}"
                    for i, w in enumerate(widths))
    print(fmt.format(*header))
    for name, status, *numbers in rows:
        print(fmt.format(name, status, *_compare_cells(numbers, ".2f", "-")))
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for name, status, *numbers in rows:
                writer.writerow([name, status, *_compare_cells(numbers, ".3f", "")])
        print(f"saved: {args.csv}")
    if failed:
        print("; ".join(failed), file=sys.stderr)
    return max(codes)


def _compare_cells(numbers: list, seconds: str, missing: str) -> list:
    """A compare row's cost, tails, regens, ports and seconds as printed, or
    ``missing`` in each for an algorithm with no design."""
    if not numbers:
        return [missing] * 5
    cost, tails, regens, ports, secs = numbers
    return [f"{cost:g}", tails, regens, ports, format(secs, seconds)]


def _seconds(text: str) -> float:
    """A ``--time-limit`` value: seconds > 0 (``inf`` is no limit)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value > 0:  # also false for NaN
        raise argparse.ArgumentTypeError(f"expected seconds > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadmnet",
        description="Survivable IP-over-optical capacity planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--time-limit", type=_seconds, default=None, metavar="SECONDS",
        help="solver budget in seconds per failure state: each solve over one "
        "state gets it, the joint solve over N states N times it",
    )

    p_design = sub.add_parser(
        "design", parents=[budget], help="place equipment for a network"
    )
    p_design.add_argument("input", help="network input JSON")
    p_design.add_argument(
        "--algorithm", choices=ALGORITHMS, default="optimal",
        help="placement algorithm (default: optimal)",
    )
    p_design.add_argument("--out", default=None, help="design document to write")
    p_design.set_defaults(func=_cmd_design)

    p_tr = sub.add_parser(
        "transient", parents=[budget],
        help="rate a design's delivery right after each failure",
    )
    p_tr.add_argument("input", help="network input JSON")
    p_tr.add_argument("--design", required=True, help="design document to rate")
    p_tr.add_argument(
        "--concurrent", action="store_true",
        help="maximize the fraction served equally to all demands",
    )
    p_tr.add_argument("--out", default=None, help="CSV to write (default stdout)")
    p_tr.set_defaults(func=_cmd_transient)

    p_cmp = sub.add_parser(
        "compare", parents=[budget], help="run all placement algorithms"
    )
    p_cmp.add_argument("input", help="network input JSON")
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
    except (InputFormatError, TopologyError, ModelError, OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except tuple(_FAILURES) as exc:
        why, _, code = _FAILURES[type(exc)]
        print(f"{why}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
