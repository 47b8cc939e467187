"""Small deterministic mixed-integer linear programming toolkit.

Models are assembled variable-by-variable and solved by branch-and-bound:
each LP relaxation goes straight to scipy's bundled HiGHS (:func:`linprog`,
with ``scipy.optimize.linprog``'s options and checks), branching follows a
most-fractional rule with lowest-index tie-breaks, and open nodes are explored
best-bound-first with FIFO tie-breaks, so identical models always produce
identical results.  A thin adapter onto :func:`scipy.optimize.milp` is kept
around as an independent cross-check backend for tests.

Where a node branches into two children and the root LP took at least
``_PAIR_MIN_ROOT_S``, the second child's LP goes to a helper process while
this one solves the first; both results are then used in the usual order,
so every answer is the same as with one process.  The helper is forked once
per interpreter, on the first such pair, gets each compiled model once and
lets it go when its solve ends.  Without ``fork``, with one usable CPU, in a
daemonic process, or once the helper has died or was interrupted mid-exchange,
every LP is solved here.  The helper runs the import-time :func:`linprog`, so
a patch of ``milp.linprog`` sees only the LPs solved in this process.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time
import weakref
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy
from scipy import sparse
from scipy.optimize import OptimizeResult

try:  # scipy's own HiGHS bindings, new in scipy 1.15
    from scipy.optimize._highspy import _core as highs
except ImportError as exc:
    raise ImportError(f"roadmnet needs scipy>=1.15; found {scipy.__version__}") from exc

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
        # Dicts first: the generic Mapping check costs ~10x more per row.
        if isinstance(coeffs, dict) or isinstance(coeffs, Mapping):
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
    a: sparse.csc_array  # the "<=" rows (">=" negated), then the "==" rows
    row_lower: np.ndarray
    row_upper: np.ndarray
    n_ub: int  # how many of the rows are "<=" rows
    lb: np.ndarray
    ub: np.ndarray
    int_idx: np.ndarray
    integral_objective: bool
    stamp: tuple[int, int]
    lp: highs.HighsLp = field(init=False)  # all of the above, as HiGHS takes it

    def __post_init__(self) -> None:
        # Lists: the bindings copy them into HiGHS about twice as fast as arrays.
        lp, mat = highs.HighsLp(), highs.HighsSparseMatrix()
        lp.num_col_ = mat.num_col_ = len(self.c)
        lp.num_row_ = mat.num_row_ = self.a.shape[0]
        mat.format_ = highs.MatrixFormat.kColwise
        a = self.a
        mat.start_, mat.index_ = a.indptr.tolist(), a.indices.tolist()
        mat.value_ = a.data.tolist()
        lp.a_matrix_ = mat  # a copy: mat is complete by now
        lp.col_cost_ = self.c.tolist()
        lp.col_lower_, lp.col_upper_ = self.lb.tolist(), self.ub.tolist()
        lp.row_lower_, lp.row_upper_ = self.row_lower.tolist(), self.row_upper.tolist()
        self.lp = lp

    # HiGHS's copy does not pickle: the helper process rebuilds it as above.
    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "lp"}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self.__post_init__()


def _compile(model: LinearModel) -> _Compiled:
    n = len(model._vars)
    c = np.zeros(n)
    for var, coef in model._objective.items():
        c[model._index[var]] = coef

    rows = [con for con in model._constraints if con.sense != "=="]
    n_ub = len(rows)
    rows += [con for con in model._constraints if con.sense == "=="]
    data, ri, ci, rhs = [], [], [], []
    for r, con in enumerate(rows):
        neg = con.sense == ">="  # ">=" becomes "<=" after negation
        ri += [r] * len(con.coeffs)
        ci += [model._index[v] for v, _ in con.coeffs]
        data += [-x if neg else x for _, x in con.coeffs]
        rhs.append(-con.rhs if neg else con.rhs)
    a = sparse.csc_array((np.array(data, dtype=float), (ri, ci)), shape=(len(rows), n))
    row_upper = np.array(rhs, dtype=float)
    row_lower = np.concatenate((np.full(n_ub, -highs.kHighsInf), row_upper[n_ub:]))
    lb = np.array([v.lb for v in model._vars])
    ub = np.array([v.ub for v in model._vars])
    int_idx = np.array([i for i, v in enumerate(model._vars) if v.integer], dtype=int)
    integral = all(
        float(coef).is_integer() and model._vars[model._index[var]].integer
        for var, coef in model._objective.items()
        if coef != 0.0
    )
    return _Compiled(c, a, row_lower, row_upper, n_ub, lb, ub, int_idx, integral,
                     (n, len(model._constraints)))


# The HiGHS options, status map and post-solve tolerance of
# scipy.optimize.linprog(method="highs"); every unmapped model status is 4.
_LP_OPTIONS = highs.HighsOptions()
_LP_OPTIONS.presolve = "on"
_LP_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
_LP_OPTIONS.output_flag = _LP_OPTIONS.log_to_console = False
_LP_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_MS = highs.HighsModelStatus
_LP_STATUS = {_MS.kOptimal: 0, _MS.kTimeLimit: 1, _MS.kIterationLimit: 1,
              _MS.kInfeasible: 2, _MS.kModelError: 2, _MS.kUnbounded: 3}
_CHECK_TOL = math.sqrt(1e-9) * 10


def linprog(comp: _Compiled, lb: np.ndarray, ub: np.ndarray,
            time_limit: float | None) -> OptimizeResult:
    """Solve one LP relaxation of a compiled model under column bounds lb/ub.

    This is ``scipy.optimize.linprog(method="highs")`` on the same data with
    the same HiGHS options (dual simplex, presolve on, a time limit of at
    least 0.05 s if any, no output), the same status codes (0 optimal, 1
    time or iteration limit, 2 infeasible, 3 unbounded, 4 anything else)
    and the same post-solve check, which turns an "optimal" point that
    misses a bound or a row by more than ~3.2e-4 into status 4.  ``x`` and
    ``fun`` are None unless the status is 0.
    """
    if not lb.shape == ub.shape == comp.c.shape:  # HiGHS reads len(c) of each
        raise ValueError(f"lb and ub need {len(comp.c)} entries")
    solver, error = highs._Highs(), highs.HighsStatus.kError
    solver.passOptions(_LP_OPTIONS)
    if time_limit is not None:
        solver.setOptionValue("time_limit", max(time_limit, 0.05))
    cols = np.arange(len(lb), dtype=np.int32)
    if (solver.passModel(comp.lp) == error
            or solver.changeColsBounds(len(cols), cols, lb, ub) == error):
        return OptimizeResult(status=2, fun=None, x=None)  # linprog's model error
    ran = solver.run() != error
    status = _LP_STATUS.get(solver.getModelStatus(), 4)
    if status != 0 or not ran:  # a failed run gives no point, so "optimal" is 4
        return OptimizeResult(status=status or 4, fun=None, x=None)
    solution = solver.getSolution()
    x, fun = np.array(solution.col_value), solver.getInfo().objective_function_value
    resid = comp.row_upper - np.array(solution.row_value)  # slacks, then residuals
    ok = _within_tolerance(x, fun, resid[:comp.n_ub], resid[comp.n_ub:], lb, ub)
    return OptimizeResult(status=0 if ok else 4, fun=fun, x=x)


def _within_tolerance(x, fun, slack, con, lb, ub) -> bool:
    """linprog's check of an optimal point: no NaN, bounds and rows kept."""
    tol = _CHECK_TOL
    return bool(not np.isnan(fun) and np.all((x >= lb - tol) & (x <= ub + tol))
                and np.all(slack >= -tol) and np.all(np.abs(con) <= tol))


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


# Sibling LPs are paired only in solves whose root LP took at least this long:
# on ~1.5-ms LPs the ~0.1-ms pipe round trip to the helper eats the gain.
_PAIR_MIN_ROOT_S = 0.004


def _serve(conn, parent_end, solve_lp=linprog) -> None:
    """The helper process: answer each (model or None, lb, ub, time limit)
    with :func:`linprog`'s result, or with the text of the error it raised.

    A model comes once and stays until the next one, or until a bare None
    (no reply) lets it go.  ``solve_lp`` is bound at import, so a patched
    ``milp.linprog`` never reaches the helper.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
    parent_end.close()  # so that the parent's exit reads here as EOF
    comp = None
    try:
        while True:
            message = conn.recv()
            if message is None:
                comp = None
                continue
            model, lb, ub, time_limit = message
            comp = model if model is not None else comp
            try:
                reply = solve_lp(comp, lb, ub, time_limit)
            except Exception as exc:
                reply = f"{type(exc).__name__}: {exc}"
            conn.send(reply)
    except (EOFError, OSError):
        return


class _Helper:
    """One forked process that solves one LP at a time for :func:`solve`."""

    def __init__(self, ctx) -> None:
        self.conn, theirs = ctx.Pipe()
        self.process = ctx.Process(target=_serve, args=(theirs, self.conn),
                                   name="roadmnet-lp", daemon=True)
        self.process.start()  # daemon: multiprocessing ends it at exit
        theirs.close()
        self.owner = os.getpid()
        self.lock = threading.Lock()  # one pair in flight, whichever thread
        self.model: weakref.ref | None = None  # the model the helper holds

    def send(self, comp: _Compiled, lb, ub, time_limit) -> bool:
        """Hand the helper one LP; False if it is busy or has died."""
        if not self.lock.acquire(blocking=False):
            return False
        held = self.model is not None and self.model() is comp
        try:
            self.conn.send((None if held else comp, lb, ub, time_limit))
        except BaseException as exc:  # a send cut off partway leaves a torn message
            self.lock.release()
            self.drop()
            if isinstance(exc, OSError):
                return False
            raise
        self.model = weakref.ref(comp)
        return True

    def receive(self) -> OptimizeResult | None:
        """The result of the LP last sent; None if the helper has died.

        An interrupt while waiting retires the helper: its late reply would
        otherwise be read as the answer to the next LP sent.
        """
        try:
            reply = self.conn.recv()
        except BaseException as exc:
            self.drop()
            if isinstance(exc, (EOFError, OSError)):
                return None
            raise
        finally:
            self.lock.release()
        if not isinstance(reply, OptimizeResult):
            raise SolverError(f"LP helper failed: {reply}")
        return reply

    def release(self, comp: _Compiled) -> None:
        """Let the helper drop ``comp`` if it holds it and is not busy."""
        if not self.lock.acquire(blocking=False):
            return
        try:
            if self.model is not None and self.model() is comp:
                self.model = None
                self.conn.send(None)
        except OSError:
            self.drop()
        finally:
            self.lock.release()

    def drop(self) -> None:
        """Stop using the helper; every later LP is solved in this process."""
        global _HELPER
        if _HELPER is self:
            _HELPER = None
        self.conn.close()


_UNSTARTED = object()
_HELPER: _Helper | None | object = _UNSTARTED
_HELPER_START = threading.Lock()  # two threads pairing first fork one helper


def _pair_helper() -> _Helper | None:
    """This interpreter's helper, forked on first use; None without one."""
    global _HELPER
    if _HELPER is _UNSTARTED:
        with _HELPER_START:
            if _HELPER is _UNSTARTED:
                _HELPER = _start_helper()
    helper = _HELPER
    if helper is not None and helper.owner != os.getpid():
        return None  # a forked copy of this interpreter: the pipe is not ours
    return helper


def _start_helper() -> _Helper | None:
    import multiprocessing  # here: a run that never pairs does not load it

    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if "fork" not in multiprocessing.get_all_start_methods() or len(cpus) < 2:
        return None
    try:
        return _Helper(multiprocessing.get_context("fork"))
    except Exception:  # no process to be had, or a daemon that may have none
        return None


def _child_lps(comp: _Compiled, children, pair: bool,
               remaining) -> Iterator[OptimizeResult]:
    """Each child's LP result, in order.

    With ``pair`` and two children the helper solves the second child's LP
    while this process solves the first; its answer is read before the first
    is yielded, so the pipe is clear whatever the caller does next.
    """
    helper = _pair_helper() if pair and len(children) == 2 else None
    if helper is None or not helper.send(comp, *children[1], remaining()):
        for lb, ub in children:
            yield linprog(comp, lb, ub, remaining())
        return
    try:
        first = linprog(comp, *children[0], remaining())
    finally:  # read the reply even on an interrupt; one while reading retires it
        second = helper.receive()
    yield first
    yield second if second is not None else linprog(comp, *children[1], remaining())


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

    started = time.perf_counter()
    root = linprog(comp, comp.lb, comp.ub, remaining())
    pair = time.perf_counter() - started >= _PAIR_MIN_ROOT_S
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
        down_ub, up_lb = ub.copy(), lb.copy()
        down_ub[branch], up_lb[branch] = math.floor(xv), math.ceil(xv)
        children = [(lb, down_ub), (up_lb, ub)]
        if xv - math.floor(xv) < 0.5:
            children.reverse()
        children = [(l, u) for l, u in children if l[branch] <= u[branch]]
        results = _child_lps(comp, children, pair, remaining)
        for (child_lb, child_ub), res in zip(children, results):
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
    if pair and isinstance(_HELPER, _Helper) and _HELPER.owner == os.getpid():
        _HELPER.release(comp)

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
    if comp.a.shape[0]:
        constraints.append(LinearConstraint(comp.a, comp.row_lower, comp.row_upper))
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
