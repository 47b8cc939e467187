"""Write the pinned references in perfbench/refs.json.

    python3 perfbench/pin.py [--seeds 0 1 ...] [--workload NAME ...]

For each workload and seed this runs one untraced pass, confirms every result
through an independent route, and only then pins its digest:

* joint-optimal: the cost equals the optimum ``solve_with_scipy_milp`` finds
  for the same joint model, and every plan passes the plan checkers;
* heuristic-sweep: every plan passes the plan checkers and no heuristic
  design is cheaper than the scipy joint optimum of its network;
* transient-rating: fractions lie in [0, 1], nothing is lost before a
  failure, and the concurrent rating never exceeds the total one;
* micro-crosscheck: the joint cost equals the exhaustive oracle's.

A second, traced pass must reproduce the digests exactly; its largest-model
sizes are pinned too.  Existing pins of other seeds and workloads are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from run import HELD_OUT_SEED, HERE, OUT, import_roadmnet, measure

DEFAULT_SEEDS = list(range(10)) + [HELD_OUT_SEED]


def confirm(workload, state, digests, raws) -> list[str]:
    problems = []
    for key, _, raw in raws:
        problems += workload.deep_check(state, key, raw)
    for key, digest in digests.items():
        if "error" in digest or digest.get("status", "optimal") != "optimal":
            problems.append(f"{key}: {digest}")
    return problems + workload.confirm(state, digests)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=DEFAULT_SEEDS)
    parser.add_argument("--workload", nargs="+")
    args = parser.parse_args(argv)

    import_roadmnet()
    import spans as tracing
    from workloads import WORKLOADS

    path = os.path.join(HERE, "refs.json")
    with open(path) as fh:
        refs = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    failures = 0
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            for seed in args.seeds:
                state = workload.setup(seed, workdir)
                plain, raws = measure(workload, state, tracing.NullTracer(), 0, min_passes=1)
                tracer = tracing.Tracer()
                restore = tracing.instrument(tracer)
                try:
                    traced, _ = measure(workload, state, tracer, 0, first_pass=1, min_passes=1)
                finally:
                    restore()
                digests = [{key: d for key, _, d in p[2]} for p in plain + traced]
                layer = tracing.layer_metrics(tracer)[1]
                sizes = {k: v for k, v in layer.items() if k.startswith("design.model.")}
                if digests[0] != digests[1]:
                    problems = ["the traced pass disagrees with the untraced one"]
                else:
                    problems = confirm(workload, state, digests[0], raws)
                if problems:
                    print(f"{name} seed {seed}: NOT pinned: {problems[:5]}")
                    failures += 1
                    continue
                refs.setdefault(name, {})[str(seed)] = {"ops": digests[0], "sizes": sizes}
                print(f"{name} seed {seed}: pinned {len(digests[0])} operations", flush=True)
                with open(path, "w") as fh:
                    json.dump(refs, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
