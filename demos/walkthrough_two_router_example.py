"""
A first walk through the toolkit on the two-router example
==========================================================

Two IP nodes, two routers each, joined by a five-node optical layer with a
short northern fiber path and a longer southern detour.  We size the design
for the calm case first, then for every single failure, and watch where the
extra equipment goes.
"""

from __future__ import annotations

from importlib import resources

from roadmnet import (
    FailureScenario,
    design_optimal,
    enumerate_failures,
    expand_link_path,
    load_inputs,
    operate,
)

fixture = resources.files("roadmnet") / "data" / "toy2x5.json"
topology, demands, costs = load_inputs(str(fixture))

print("network:", ", ".join(n for n in topology.ip_nodes))
print("optical:", ", ".join(n for n in topology.optical_nodes))
for span in topology.spans:
    print(f"  span {span.u} - {span.v}: {span.miles:g} miles")
print(f"optical reach between regens: {topology.regen_dist:g} miles")
print(f"offered traffic: {demands.total_offered:g} unit(s)\n")

# -- Step 1: pretend nothing ever fails. ---------------------------------
# One link between one router pair suffices, and the 1800-mile northern
# route needs a single mid-way regenerator.

nf = FailureScenario.no_failure()
base, base_plans = design_optimal(topology, demands, costs, scenarios=[nf])
print("no-failure design:", base.summary())
for node, count in sorted(base.regens_reported.items()):
    if count:
        print(f"  regen at {node}: {count}")

# -- Step 2: now survive every span cut and every router loss. -----------
# The robust design doubles the tails (both routers on each side join in)
# but regens grow by just one: the same sites serve many failure states.

design, plans = design_optimal(topology, demands, costs)
print("\nrobust design:  ", design.summary())
print("  tails:", dict(sorted(design.tails.items())))
print("  regens:", {n: c for n, c in sorted(design.regens_reported.items()) if c})

# -- Step 3: watch one failure get replanned. ----------------------------
# Cutting the first northern span forces traffic onto the southern detour;
# the regen chain for the surviving link changes with it.

cut = FailureScenario.span_cut("O1", "O2")
plan = operate(topology, demands, design, cut)
print(f"\nafter {cut.label()}:")
for a, b, units in plan.canonical_links():
    for chain in plan.regen_chains[(a, b)]:
        route = expand_link_path(topology, cut, (a, b), chain)
        hops = " / ".join(f"{u}-{v}" for u, v in route)
        print(f"  link {a}-{b} x{units}: regens at {list(chain)}; fiber {hops}")

# -- Step 4: the full failure sweep, one line per scenario. --------------

print("\ncost of operating the robust design under each failure:")
for scenario in enumerate_failures(topology):
    p = operate(topology, demands, design, scenario)
    links = sum(units for _, _, units in p.canonical_links())
    regens = sum(p.usage()[1].values())  # (tails, regens, ports, launches)
    print(f"  {scenario.label():<14} {links} link unit(s), {regens} regen(s) in use")
