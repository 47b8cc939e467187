"""roadmnet benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload joint-optimal --seed 0 --seconds 20 --trace 0

Run from the root of a roadmnet checkout; roadmnet is imported from its
``src/``.  The run sets up the workload's seeded inputs five times (the
median is ``setup_s``), then repeats passes in a closed loop, one after the
other in this process, for ``--seconds`` (at least two passes), and finally
checks every output against the pinned references in ``refs.json``.  The
timings are scaled to the reference speed with the reference kernel timed
between operations (``pace.py``).  With ``--trace 1`` it instead runs
untraced passes, then traced passes, and reports the per-layer metrics; the
spans go to ``.perfbench_out/``.

The last line of standard output is the result object; the line before it,
starting with ``record``, carries the workload, seed, environment stamp and
the informational figures (``design_cost``, ``ops_failed``, ``op_s.p90``,
sample counts, the measured pass time and the kernel's scale).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
MIN_PASSES = 2
# The recorded default seed, and one kept back to recheck claims on.
DEFAULT_SEED = 0
HELD_OUT_SEED = 99
SETUPS = 5
TOL = 1e-6

END_TO_END = [
    ("wall_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def import_roadmnet() -> float:
    """Import roadmnet from this checkout's src/ and return the seconds taken."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "roadmnet", "__init__.py")):
        raise SystemExit(f"benchmark: no roadmnet sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    # BLAS on one thread, set before numpy loads: the default second OpenBLAS
    # thread kept spinning after the oracle's matrix work and doubled the
    # reference kernel's time (pace.py) on a 2-vCPU machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    start = time.perf_counter()
    import roadmnet

    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(roadmnet.__file__))) != src:
        raise SystemExit(f"benchmark: roadmnet imported from {roadmnet.__file__}, not {src}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        import subprocess

        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def measure(workload, state, tr, seconds, first_pass=0, min_passes=MIN_PASSES):
    """Closed loop of passes; returns [(wall, states, [(key, secs, digest)])]
    and the first pass's raw results.  Digests are taken between passes,
    outside the timed region, and the reference kernel's time is taken out of
    each pass's wall time.  After ``min_passes`` the loop stops before a
    pass that would likely end beyond ``seconds``."""
    from pace import PACER

    passes, first_raw = [], None
    start = time.perf_counter()
    while len(passes) < min_passes or (
        time.perf_counter() - start + passes[-1][0] <= seconds
    ):
        tr.pass_id = first_pass + len(passes)
        kernel_s = PACER.spent
        t0 = time.perf_counter()
        ops, states = workload.run_pass(state, tr)
        wall = time.perf_counter() - t0 - (PACER.spent - kernel_s)
        if first_raw is None:
            first_raw = ops
        digests = [(key, secs, workload.digest(state, key, raw)) for key, secs, raw in ops]
        passes.append((wall, states, digests))
    return passes, first_raw


def matches(got: dict, want: dict) -> bool:
    for key, value in want.items():
        if isinstance(value, float) and isinstance(got.get(key), (int, float)):
            if abs(got[key] - value) > TOL:
                return False
        elif got.get(key) != value:
            return False
    return True


def gate(workload, state, seed, passes, first_raw, refs):
    """(attempted, failed, problems): every op of every pass is checked against
    its pinned (or independently recomputed) reference and against the first
    pass; the first pass's plans also go through the plan checkers."""
    pinned = refs.get(workload.name, {}).get(str(seed), {}).get("ops")
    expected = pinned if pinned is not None else workload.independent(state)
    deep = {key: workload.deep_check(state, key, raw) for key, _, raw in first_raw}
    first = {key: digest for key, _, digest in passes[0][2]}
    attempted = failed = 0
    problems: list[str] = []
    for p, (_, _, digests) in enumerate(passes):
        if pinned is not None and sorted(k for k, _, _ in digests) != sorted(pinned):
            problems.append(f"pass {p}: operations differ from the pinned set")
        for key, _, digest in digests:
            attempted += 1
            why = []
            if "error" in digest:
                why.append(digest["error"])
            if digest.get("status", "optimal") != "optimal":
                why.append(f"status {digest['status']}")
            if key in expected and not matches(digest, expected[key]):
                why.append(f"{digest} differs from reference {expected[key]}")
            if digest != first[key]:
                why.append("differs from the first pass")
            if p == 0:
                why += deep[key]
            if why:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"pass {p} op {key}: {'; '.join(map(str, why))}")
    return attempted, failed, problems


def design_cost(state, passes) -> float:
    if "cost" in state:
        return state["cost"]
    return sum(d.get("cost", 0.0) for _, _, d in passes[0][2])


def end_to_end(passes, setups, rss_mb, scale) -> dict:
    """The timed run's metrics, every time at the reference speed (pace.py)."""
    wall = statistics.median(wall for wall, _, _ in passes) * scale
    ops = [secs for _, _, digests in passes for _, secs, _ in digests]
    return {
        "wall_s": wall,
        "scenarios_per_s": passes[0][1] / wall,
        "op_s.p50": statistics.median(ops) * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_roadmnet()
    import spans as tracing
    from pace import PACER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "refs.json")) as fh:
        refs = json.load(fh)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        setups = []
        for _ in range(SETUPS if not args.trace else 1):
            t0 = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            setups.append(import_s + time.perf_counter() - t0)

        problems: list[str] = []
        null = tracing.NullTracer()
        if not args.trace:
            passes, first_raw = measure(workload, state, null, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(passes, setups, rss_mb, PACER.scale())
            units = dict(END_TO_END)
        else:
            plain, first_raw = measure(workload, state, null, args.seconds / 2)
            tracer = tracing.Tracer()
            restore = tracing.instrument(tracer)
            try:
                traced, _ = measure(workload, state, tracer, args.seconds / 2,
                                    first_pass=len(plain))
            finally:
                restore()
            passes = plain + traced
            per_pass = tracing.layer_metrics(tracer)
            traced_ids = range(len(plain), len(passes))
            metrics = {
                name: statistics.median(per_pass.get(p, {}).get(name, 0.0) for p in traced_ids)
                for name, _, _ in tracing.PER_LAYER[:-2]
            }
            metrics["trace.overhead_s"] = (
                statistics.median(w for w, _, _ in traced)
                - statistics.median(w for w, _, _ in plain)
            )
            metrics["trace.coverage"] = min(
                tracing.coverage(tracer, p, passes[p][0]) for p in traced_ids
            )
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            pinned = refs.get(workload.name, {}).get(str(args.seed), {}).get("sizes")
            problems += trace_checks(per_pass, traced_ids, metrics, pinned)
            tracer.write(os.path.join(OUT, f"trace-{workload.name}-{args.seed}.json"))

        attempted, failed, gate_problems = gate(
            workload, state, args.seed, passes, first_raw, refs)
        problems += gate_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    cost = design_cost(state, passes)
    samples = [secs for _, _, digests in passes for _, secs, _ in digests]
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[-1] * PACER.scale()
    print(f"{'op_s.p90':36s} {p90:14.6g} s ({len(samples)} operations)")
    print(f"{'design_cost':36s} {cost:14.6g} units")
    print(f"{'ops_failed':36s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "ops": len(samples),
        "op_s.p90": p90,
        "wall_measured_s": statistics.median(wall for wall, _, _ in passes),
        "kernel_s": statistics.median(PACER.samples),
        "scale": PACER.scale(),
        "design_cost": cost,
        "ops_failed": failed / attempted,
        "env": environment(),
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def trace_checks(per_pass, traced_ids, metrics, pinned) -> list[str]:
    """Model sizes repeat exactly, pass to pass and against the pin; the
    top-level spans cover the pass."""
    problems = []
    keys = [k for k in metrics if k.startswith("design.model.")]
    first = None
    for p in traced_ids:
        sizes = {k: per_pass.get(p, {}).get(k, 0) for k in keys}
        first = first or sizes
        if sizes != (pinned or first):
            problems.append(f"pass {p}: model sizes {sizes} differ from {pinned or first}")
    if metrics["trace.coverage"] < 0.95:
        problems.append(f"top-level spans cover only {metrics['trace.coverage']:.1%} of a pass")
    return problems


if __name__ == "__main__":
    sys.exit(main())
