"""Summarise one result set, or compare two, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.txt [NEW.txt]

A result set is the concatenated standard output of benchmark runs
(``python3 perfbench/run.py ... >> BASE.txt``); each run contributes its
``record`` line and its result line.  For every workload and metric this
prints the median and quartiles (``statistics.quantiles(n=4)``) of each set
and the set's spread (interquartile distance over median).  For end-to-end
metrics it gives a verdict against the bound in BENCHMARK.json:

* ``worse``      NEW's median is worse than BASE's by more than the bound;
* ``unresolved`` BASE's own spread exceeds the bound, so no verdict holds
  unless every NEW run beats every BASE run (then ``better``);
* ``within``     otherwise.

Runs whose result is not ``correct`` are listed and left out.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str):
    """{(workload, trace): {metric: [values]}}, units, and incorrect runs."""
    values: dict = defaultdict(lambda: defaultdict(list))
    units: dict[str, str] = {}
    bad: list[str] = []
    record = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("record "):
                record = json.loads(line[len("record "):])
            elif line.startswith('{"correct"') and record is not None:
                result = json.loads(line)
                tag = f"{record['workload']} seed {record['seed']} trace {record['trace']}"
                if not result["correct"]:
                    bad.append(tag)
                else:
                    for name, m in result["metrics"].items():
                        values[(record["workload"], record["trace"])][name].append(m["value"])
                        units[name] = m["unit"]
                record = None
    return values, units, bad


def stats(xs):
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(path) for path in argv]
    for path, (_, _, bad) in zip(argv, sets):
        for tag in bad:
            print(f"{path}: incorrect run left out: {tag}")
    base = sets[0][0]
    units = sets[0][1]
    worse = 0
    for group in sorted(base):
        workload, trace = group
        print(f"\n{workload} ({'traced' if trace else 'timed'} runs)")
        for name, xs in base[group].items():
            rule = rules.get(name, {})
            bound = rule.get("bound")
            med, q1, q3, spread = stats(xs)
            line = (f"  {name:34s} {units[name]:6s} n={len(xs):<3d} "
                    f"median {med:<11.5g} [{q1:.5g}, {q3:.5g}] spread {spread:6.1%}")
            if bound is not None:
                line += f" bound {bound:.0%}"
            if len(sets) == 2:
                ys = sets[1][0].get(group, {}).get(name)
                if not ys:
                    print(line + "  (missing in NEW)")
                    continue
                med2, q1b, q3b, spread2 = stats(ys)
                sign = 1 if rule.get("better", "lower") == "lower" else -1
                change = sign * (med2 - med) / med if med else 0.0
                line += (f" | NEW median {med2:<11.5g} [{q1b:.5g}, {q3b:.5g}] "
                         f"spread {spread2:6.1%} worse by {change:+.1%}")
                if bound is not None:
                    if spread > bound:
                        beats = all(sign * (y - x) < 0 for y in ys for x in xs)
                        verdict = "better" if beats else "unresolved"
                    elif change > bound:
                        verdict = "worse"
                        worse += 1
                    else:
                        verdict = "within"
                    line += f"  {verdict}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
