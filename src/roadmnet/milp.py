"""Small deterministic mixed-integer linear programming toolkit.

Models are assembled variable-by-variable and solved by branch-and-bound:
LP relaxations are delegated to scipy's HiGHS backend, branching follows a
most-fractional rule with lowest-index tie-breaks, and open nodes are explored
best-bound-first with FIFO tie-breaks, so identical models always produce
identical results.  A thin adapter onto :func:`scipy.optimize.milp` is kept
around as an independent cross-check backend for tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

INT_TOL = 1e-6
FEAS_TOL = 1e-6


class ModelError(ValueError):
    """Raised for malformed models (duplicate/unknown names, bad bounds...)."""


class SolverError(RuntimeError):
    """Raised when the LP backend fails in a way we cannot recover from."""


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float = 0.0
    ub: float = math.inf
    integer: bool = False


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: tuple[tuple[str, float], ...]
    sense: str  # "<=", ">=" or "=="
    rhs: float


@dataclass(frozen=True)
class Violation:
    """One way a candidate assignment fails a model."""

    kind: str  # "constraint" | "bound" | "integrality" | "unknown-variable" | "missing-variable"
    name: str
    amount: float

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.kind} {self.name} (by {self.amount:.3g})"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve.

    status is one of "optimal", "feasible" (time limit hit with an incumbent),
    "infeasible", "unbounded", or "no_solution" (time limit hit before any
    incumbent).  best_bound is the proven lower bound on the minimum; for
    "optimal" it coincides with objective_value.
    """

    status: str
    values: dict[str, float]
    objective_value: float | None
    best_bound: float | None
    nodes: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "feasible")


class LinearModel:
    """A minimization MILP built incrementally.

    Treat a model as frozen once handed to :func:`solve`; nothing here mutates
    it afterwards, which is what makes concurrent solves of independent models
    safe.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._vars: list[Variable] = []
        self._index: dict[str, int] = {}
        self._constraints: list[Constraint] = []
        self._objective: dict[str, float] = {}
        self._compiled_cache: _Compiled | None = None

    # -- construction ----------------------------------------------------

    def add_variable(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        *,
        integer: bool = False,
    ) -> str:
        if name in self._index:
            raise ModelError(f"duplicate variable name {name!r}")
        if not name:
            raise ModelError("variable name must be non-empty")
        if lb > ub:
            raise ModelError(f"variable {name!r} has lb {lb} > ub {ub}")
        self._index[name] = len(self._vars)
        self._vars.append(Variable(name, float(lb), float(ub), integer))
        return name

    def add_constraint(
        self,
        coeffs: Mapping[str, float] | Iterable[tuple[str, float]],
        sense: str,
        rhs: float,
        name: str = "",
    ) -> str:
        if isinstance(coeffs, Mapping):
            items = list(coeffs.items())
        else:
            items = list(coeffs)
        if not items:
            raise ModelError(f"constraint {name!r} has no terms")
        if sense not in ("<=", ">=", "=="):
            raise ModelError(f"constraint {name!r} has unknown sense {sense!r}")
        merged: dict[str, float] = {}
        for var, coef in items:
            if var not in self._index:
                raise ModelError(f"constraint {name!r} references unknown variable {var!r}")
            merged[var] = merged.get(var, 0.0) + float(coef)
        name = name or f"c{len(self._constraints)}"
        self._constraints.append(Constraint(name, tuple(merged.items()), sense, float(rhs)))
        return name

    def set_objective(self, coeffs: Mapping[str, float]) -> None:
        """Minimization objective; unmentioned variables get coefficient 0."""
        for var in coeffs:
            if var not in self._index:
                raise ModelError(f"objective references unknown variable {var!r}")
        self._objective = {v: float(c) for v, c in coeffs.items()}
        self._compiled_cache = None

    # -- introspection ---------------------------------------------------

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(self._vars)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    @property
    def objective(self) -> dict[str, float]:
        return dict(self._objective)

    def variable(self, name: str) -> Variable:
        try:
            return self._vars[self._index[name]]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    # -- compilation -----------------------------------------------------

    def _compiled(self) -> "_Compiled":
        cache = self._compiled_cache
        if cache is None or cache.stamp != (len(self._vars), len(self._constraints)):
            cache = _compile(self)
            self._compiled_cache = cache
        return cache


@dataclass
class _Compiled:
    c: np.ndarray
    a_ub: sparse.csr_matrix | None
    b_ub: np.ndarray | None
    a_eq: sparse.csr_matrix | None
    b_eq: np.ndarray | None
    lb: np.ndarray
    ub: np.ndarray
    int_idx: np.ndarray
    integral_objective: bool
    stamp: tuple[int, int]


def _compile(model: LinearModel) -> _Compiled:
    n = len(model._vars)
    c = np.zeros(n)
    for var, coef in model._objective.items():
        c[model._index[var]] = coef

    ub_rows: list[tuple[list[int], list[float], float]] = []
    eq_rows: list[tuple[list[int], list[float], float]] = []
    for con in model._constraints:
        idx = [model._index[v] for v, _ in con.coeffs]
        coefs = [c2 for _, c2 in con.coeffs]
        if con.sense == "==":
            eq_rows.append((idx, coefs, con.rhs))
        elif con.sense == "<=":
            ub_rows.append((idx, coefs, con.rhs))
        else:  # ">=" becomes "<=" after negation
            ub_rows.append((idx, [-x for x in coefs], -con.rhs))

    def build(rows):
        if not rows:
            return None, None
        data, ri, ci, rhs = [], [], [], []
        for r, (idx, coefs, b) in enumerate(rows):
            for j, x in zip(idx, coefs):
                ri.append(r)
                ci.append(j)
                data.append(x)
            rhs.append(b)
        mat = sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), n))
        return mat, np.array(rhs)

    a_ub, b_ub = build(ub_rows)
    a_eq, b_eq = build(eq_rows)
    lb = np.array([v.lb for v in model._vars])
    ub = np.array([v.ub for v in model._vars])
    int_idx = np.array([i for i, v in enumerate(model._vars) if v.integer], dtype=int)

    integral = all(
        float(coef).is_integer() and model._vars[model._index[var]].integer
        for var, coef in model._objective.items()
        if coef != 0.0
    )
    return _Compiled(c, a_ub, b_ub, a_eq, b_eq, lb, ub, int_idx, integral,
                     (n, len(model._constraints)))


def _solve_lp(comp: _Compiled, lb: np.ndarray, ub: np.ndarray,
              time_limit: float | None):
    options = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = max(time_limit, 0.05)
    res = linprog(
        comp.c,
        A_ub=comp.a_ub,
        b_ub=comp.b_ub,
        A_eq=comp.a_eq,
        b_eq=comp.b_eq,
        bounds=np.column_stack([lb, ub]),
        method="highs",
        options=options,
    )
    return res


def _most_fractional(x: np.ndarray, int_idx: np.ndarray) -> int | None:
    """Index of the integer variable farthest from integrality, or None."""
    if int_idx.size == 0:
        return None
    vals = x[int_idx]
    frac = vals - np.floor(vals)
    dist = np.minimum(frac, 1.0 - frac)
    j = int(np.argmax(dist))  # first max -> lowest index on ties
    if dist[j] <= INT_TOL:
        return None
    return int(int_idx[j])


def solve(model: LinearModel, time_limit: float | None = None) -> SolveResult:
    """Minimize the model by branch-and-bound over HiGHS LP relaxations.

    Deterministic: identical models (same construction order) yield identical
    results.  With ``time_limit`` (seconds) the search stops at the deadline
    and reports the incumbent ("feasible") or "no_solution", always with the
    proven best_bound so far.
    """
    comp = model._compiled()
    n = len(model.variables)
    deadline = None if time_limit is None else time.monotonic() + time_limit

    def remaining() -> float | None:
        return None if deadline is None else deadline - time.monotonic()

    def values_of(x: np.ndarray) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, var in enumerate(model.variables):
            v = float(x[i])
            if var.integer and abs(v - round(v)) <= 1e-7:
                v = float(round(v))
            out[var.name] = v
        return out

    if n == 0:
        return SolveResult("optimal", {}, 0.0, 0.0, nodes=0)

    root = _solve_lp(comp, comp.lb, comp.ub, remaining())
    if root.status == 2:
        return SolveResult("infeasible", {}, None, math.inf, nodes=1)
    if root.status == 3:
        return SolveResult("unbounded", {}, None, -math.inf, nodes=1)
    if root.status != 0:
        return SolveResult("no_solution", {}, None, -math.inf, nodes=1)

    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf
    nodes = 1
    counter = 0
    # Heap of open nodes: (LP bound, -insertion counter, LP solution, lb, ub).
    # Best bound first; among equal bounds the newest node wins, so the search
    # dives depth-first along a flat bound plateau instead of sweeping it
    # breadth-first, which finds the first incumbent far sooner.
    heap: list[tuple[float, int, np.ndarray, np.ndarray, np.ndarray]] = []
    heappush(heap, (float(root.fun), -counter, root.x, comp.lb, comp.ub))

    # With an all-integer objective any improving solution is better by >= 1,
    # which lets us prune much closer to the incumbent.
    def cutoff() -> float:
        if incumbent_obj is math.inf:
            return math.inf
        gap = 1.0 - 1e-6 if comp.integral_objective else 1e-9
        return incumbent_obj - gap

    interrupted_bound: float | None = None
    while heap:
        bound, _, x, lb, ub = heappop(heap)
        if bound > cutoff():
            continue
        rem = remaining()
        if rem is not None and rem <= 0:
            interrupted_bound = bound
            break
        branch = _most_fractional(x, comp.int_idx)
        if branch is None:
            if bound < incumbent_obj:
                incumbent_obj = bound
                incumbent_x = x
            continue
        xv = x[branch]
        # Push the nearest-rounding child last: it pops first on tied bounds.
        frac = xv - math.floor(xv)
        order = ("down", "up") if frac >= 0.5 else ("up", "down")
        for side in order:
            child_lb, child_ub = lb, ub
            if side == "down":
                child_ub = ub.copy()
                child_ub[branch] = math.floor(xv)
                if child_ub[branch] < child_lb[branch]:
                    continue
            else:
                child_lb = lb.copy()
                child_lb[branch] = math.ceil(xv)
                if child_lb[branch] > child_ub[branch]:
                    continue
            res = _solve_lp(comp, child_lb, child_ub, remaining())
            nodes += 1
            if res.status == 2:
                continue
            if res.status == 1:  # LP hit its own time/iteration limit
                interrupted_bound = bound
                break
            if res.status != 0:
                raise SolverError(f"LP backend failed with status {res.status}")
            child_bound = float(res.fun)
            if child_bound > cutoff():
                continue
            counter += 1
            heappush(heap, (child_bound, -counter, res.x, child_lb, child_ub))
        if interrupted_bound is not None:
            break

    open_bounds = [b for b, *_ in heap]
    if interrupted_bound is not None:
        open_bounds.append(interrupted_bound)

    if incumbent_x is None:
        if interrupted_bound is None and not open_bounds:
            return SolveResult("infeasible", {}, None, math.inf, nodes=nodes)
        return SolveResult(
            "no_solution", {}, None, min(open_bounds, default=math.inf), nodes=nodes
        )

    if open_bounds and min(open_bounds) < incumbent_obj - 1e-9:
        status = "feasible"
        best_bound = min(open_bounds)
    else:
        status = "optimal"
        best_bound = incumbent_obj
    return SolveResult(
        status, values_of(incumbent_x), incumbent_obj, best_bound, nodes=nodes
    )


def validate_solution(
    model: LinearModel, values: Mapping[str, float], tol: float = FEAS_TOL
) -> list[Violation]:
    """Every constraint, bound and integrality violation beyond ``tol``.

    Unknown names in ``values`` and model variables missing from ``values``
    are reported as violations too; missing variables count as 0 elsewhere.
    """
    out: list[Violation] = []
    known = model._index
    for name in values:
        if name not in known:
            out.append(Violation("unknown-variable", name, 0.0))
    for var in model.variables:
        if var.name not in values:
            out.append(Violation("missing-variable", var.name, 0.0))

    def val(name: str) -> float:
        return float(values.get(name, 0.0))

    for var in model.variables:
        x = val(var.name)
        if x < var.lb - tol:
            out.append(Violation("bound", var.name, var.lb - x))
        elif x > var.ub + tol:
            out.append(Violation("bound", var.name, x - var.ub))
        if var.integer and abs(x - round(x)) > tol:
            out.append(Violation("integrality", var.name, abs(x - round(x))))

    for con in model.constraints:
        lhs = sum(coef * val(v) for v, coef in con.coeffs)
        if con.sense == "<=":
            excess = lhs - con.rhs
        elif con.sense == ">=":
            excess = con.rhs - lhs
        else:
            excess = abs(lhs - con.rhs)
        if excess > tol:
            out.append(Violation("constraint", con.name, excess))
    return out


def export_lp(model: LinearModel) -> str:
    """Render the model in LP text format (CPLEX dialect)."""

    def render(coeffs: Sequence[tuple[str, float]]) -> str:
        parts: list[str] = []
        for i, (var, coef) in enumerate(coeffs):
            mag = abs(coef)
            num = "" if mag == 1 else f"{mag:g} "
            if i == 0:
                parts.append(f"{'- ' if coef < 0 else ''}{num}{var}")
            else:
                parts.append(f"{'-' if coef < 0 else '+'} {num}{var}")
        return " ".join(parts)

    lines = [f"\\ {model.name}", "Minimize"]
    obj = [(v, c) for v, c in model._objective.items() if c != 0.0]
    if not obj and model.variables:
        obj = [(model.variables[0].name, 0.0)]
    lines.append(" obj: " + render(obj))
    lines.append("Subject To")
    sense_txt = {"<=": "<=", ">=": ">=", "==": "="}
    for con in model.constraints:
        lines.append(
            f" {con.name}: {render(list(con.coeffs))} {sense_txt[con.sense]} {con.rhs:g}"
        )
    bound_lines = []
    for var in model.variables:
        default = var.lb == 0.0 and var.ub == math.inf
        if default:
            continue
        lo = "-inf" if var.lb == -math.inf else f"{var.lb:g}"
        hi = "+inf" if var.ub == math.inf else f"{var.ub:g}"
        if var.lb == -math.inf and var.ub == math.inf:
            bound_lines.append(f" {var.name} free")
        else:
            bound_lines.append(f" {lo} <= {var.name} <= {hi}")
    if bound_lines:
        lines.append("Bounds")
        lines.extend(bound_lines)
    generals = [v.name for v in model.variables if v.integer]
    if generals:
        lines.append("Generals")
        lines.append(" " + " ".join(generals))
    lines.append("End")
    return "\n".join(lines) + "\n"


def solve_with_scipy_milp(
    model: LinearModel, time_limit: float | None = None
) -> SolveResult:
    """Cross-check adapter onto scipy.optimize.milp (HiGHS branch-and-cut).

    Used in tests as an independent backend; the toolkit itself always runs
    the bundled :func:`solve`.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    comp = model._compiled()
    n = len(model.variables)
    if n == 0:
        return SolveResult("optimal", {}, 0.0, 0.0)
    constraints = []
    if comp.a_ub is not None:
        constraints.append(LinearConstraint(comp.a_ub, -np.inf, comp.b_ub))
    if comp.a_eq is not None:
        constraints.append(LinearConstraint(comp.a_eq, comp.b_eq, comp.b_eq))
    integrality = np.zeros(n)
    integrality[comp.int_idx] = 1
    # The bundled HiGHS build sometimes mis-presolves integer equality rows
    # and reports an infeasible point as optimal; run it with presolve off.
    options: dict[str, object] = {"presolve": False}
    if time_limit is not None:
        options["time_limit"] = time_limit
    res = milp(
        comp.c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(comp.lb, comp.ub),
        options=options,
    )
    if res.status == 2:
        return SolveResult("infeasible", {}, None, math.inf)
    if res.status == 3:
        return SolveResult("unbounded", {}, None, -math.inf)
    if res.x is None:
        return SolveResult("no_solution", {}, None, -math.inf)
    values = {v.name: float(res.x[i]) for i, v in enumerate(model.variables)}
    status = "optimal" if res.status == 0 else "feasible"
    bound = float(res.mip_dual_bound) if res.mip_dual_bound is not None else None
    return SolveResult(status, values, float(res.fun), bound)
