"""Small deterministic mixed-integer linear programming toolkit.

Models are assembled in columns (a row comes by column position, or by
names resolved to column indices as it is added), compiled once with numpy
into one column-major matrix (a NaN or infinite coefficient, right-hand side
or objective term is a :class:`ModelError` there), and solved by
branch-and-bound: each LP relaxation goes straight to scipy's bundled HiGHS
(:func:`linprog`, with ``scipy.optimize.linprog``'s options and checks) on
the instance each thread keeps across solves (loaded once per solve, given
only the changed column bounds, its solver state cleared per LP),
branching follows a most-fractional rule with lowest-index tie-breaks, and
open nodes are explored best-bound-first, newest first on ties, so identical
models always produce identical results.  A child's LP is solved only when
the child first reaches the top of the heap, where it waits under its
parent's bound (a lower bound on its own).  No open node is below the one
popped, so the search ends at the first integral node it pops, which is
optimal: a bundled solve answers "optimal", "infeasible", "unbounded" or
"no_solution", never "feasible".  A thin adapter onto
:func:`scipy.optimize.milp` is kept around as an independent cross-check
backend for tests; only it answers "feasible".

Every LP of a solve runs on the calling thread; a solve nested in another
on one thread gets an instance of its own, and a solve clears its instance
of the model before it returns or raises.

Importing this module loads scipy's HiGHS bindings extension alone (see
:func:`_load_bindings`), not ``scipy.optimize`` or ``scipy.sparse``, which
would take most of the package's import time.  Code that needs either
imports it inside the function that uses it, as the cross-check adapter and
:attr:`_Compiled.a` do; new code keeps to the same rule.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
import scipy


def _load_bindings():
    """scipy's own HiGHS bindings (new in scipy 1.15), loaded without the
    rest of ``scipy.optimize``.

    An entry already in ``sys.modules`` is reused.  Otherwise the extension
    is found in scipy's ``optimize/_highspy`` folder and registered under its
    full name before it runs, so a later ``import scipy.optimize`` reuses
    this module object (pybind11 registers its classes only once a process).
    """
    name = "scipy.optimize._highspy._core"
    message = f"roadmnet needs scipy>=1.15; found {scipy.__version__}"
    if name in sys.modules:
        if sys.modules[name] is None:
            raise ImportError(message)
        return sys.modules[name]
    folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    spec = PathFinder.find_spec(name, [folder])
    if spec is None:
        raise ImportError(message)
    try:
        module = sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(module)
    except BaseException as exc:
        sys.modules.pop(name, None)
        if isinstance(exc, ImportError):
            raise ImportError(message) from exc
        raise
    return module


highs = _load_bindings()

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

    status is one of "optimal", "infeasible", "unbounded", "no_solution"
    (time limit hit before an integral solution) or, from
    :func:`solve_with_scipy_milp` only, "feasible" (time limit hit with a
    solution not proven optimal).  best_bound is the proven lower bound on
    the minimum; for "optimal" it coincides with objective_value.  nodes is
    the number of LP relaxations solved.
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

    The model is stored in columns: per variable its lower and upper bound
    and whether it is integer, indexed by name as it is added; per row its
    column indices and coefficients (flat, with each row's length), sense,
    right-hand side and name.  The package writes every row by column
    position, through :meth:`_add_block`; :meth:`add_variable` and
    :meth:`add_constraint`, which resolves a row's names once, are the
    by-name entry points for callers.  So compiling a model for :func:`solve`
    is array work without a name lookup.  The :class:`Variable` and
    :class:`Constraint` records are built on demand.

    Each :func:`solve` compiles the model afresh and never mutates it.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._index: dict[str, int] = {}  # variable name -> column, in column order
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._integer: list[bool] = []
        self._cols: list[int] = []  # every row's columns, one row after another
        self._vals: list[float] = []  # and their coefficients
        self._row_len: list[int] = []
        self._senses: list[int] = []  # an index into _SENSES
        self._rhs: list[float] = []
        self._row_names: list[str] = []
        self._objective: dict[str, float] = {}

    # -- construction ----------------------------------------------------

    def add_variable(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        *,
        integer: bool = False,
    ) -> str:
        self._add_columns((name,), lb, ub, integer)
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
        if sense not in _SENSE_CODE:
            raise ModelError(f"constraint {name!r} has unknown sense {sense!r}")
        index = self._index
        merged: dict[int, float] = {}  # repeated names merge, first occurrence first
        for var, coef in items:
            col = index.get(var)
            if col is None:
                raise ModelError(f"constraint {name!r} references unknown variable {var!r}")
            merged[col] = merged.get(col, 0.0) + float(coef)
        name = name or f"c{len(self._row_names)}"
        self._add_rows(list(merged), list(merged.values()), (len(merged),), (sense,),
                       (float(rhs),), (name,))
        return name

    # The one write path: _add_block (every row the package writes) and the
    # by-name add_variable and add_constraint append through these two.

    def _add_columns(self, names: Sequence[str], lb: float, ub: float, integer: bool) -> int:
        """Append a column per name, all alike; returns the first one's index."""
        start, index = len(self._lb), self._index
        fresh = dict(zip(names, range(start, start + len(names))))
        if len(fresh) < len(names) or not index.keys().isdisjoint(fresh):
            dup = next(n for i, n in enumerate(names) if n in index or n in names[:i])
            raise ModelError(f"duplicate variable name {dup!r}")
        if not all(names):
            raise ModelError("variable name must be non-empty")
        if not lb <= ub:  # also false when either bound is NaN
            raise ModelError(f"variable {names[0]!r} has bounds lb {lb}, ub {ub}")
        index.update(fresh)
        self._lb += [float(lb)] * len(fresh)
        self._ub += [float(ub)] * len(fresh)
        self._integer += [bool(integer)] * len(fresh)
        return start

    def _add_rows(self, cols: list[int], vals: list[float], lengths: Sequence[int],
                  senses: Sequence[str], rhs: Sequence[float], names: Sequence[str]) -> None:
        """Append rows: their columns and float coefficients one row after
        another, and each row's length, sense, rhs and name."""
        self._cols += cols
        self._vals += vals
        self._row_len += lengths
        self._senses += [_SENSE_CODE[sense] for sense in senses]
        self._rhs += rhs
        self._row_names += names

    def _add_block(self, names: Sequence[str], lb: float, ub: float, integer: bool,
                   rows: Sequence[tuple[Sequence[int], Sequence[float], str, float]],
                   outside: Sequence[int], row_names: Sequence[str]) -> int:
        """Append a column per name, all alike, and rows (positions, float
        coefficients, sense, rhs) over them: position k is the k-th new
        column, and position ``len(names) + i`` the existing column
        ``outside[i]``.  A row may be empty, unlike in
        :meth:`add_constraint`: it constrains 0 by its sense and rhs.
        Returns the first new column's index."""
        start = self._add_columns(names, lb, ub, integer)
        if rows:
            at = [*range(start, start + len(names)), *outside].__getitem__
            positions, vals, senses, rhs = zip(*rows)
            self._add_rows([at(k) for ks in positions for k in ks],
                           [x for xs in vals for x in xs], list(map(len, positions)),
                           senses, rhs, row_names)
        return start

    def set_objective(self, coeffs: Mapping[str, float]) -> None:
        """Minimization objective; unmentioned variables get coefficient 0."""
        for var in coeffs:
            if var not in self._index:
                raise ModelError(f"objective references unknown variable {var!r}")
        self._objective = {v: float(c) for v, c in coeffs.items()}

    # -- introspection ---------------------------------------------------

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(map(Variable, self._index, self._lb, self._ub, self._integer))

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        names, out, end = list(self._index), [], 0
        for row, length in enumerate(self._row_len):
            start, end = end, end + length
            coeffs = tuple(zip([names[j] for j in self._cols[start:end]],
                               self._vals[start:end]))
            out.append(Constraint(self._row_names[row], coeffs,
                                  _SENSES[self._senses[row]], self._rhs[row]))
        return tuple(out)

    @property
    def objective(self) -> dict[str, float]:
        return dict(self._objective)


_SENSES = ("<=", ">=", "==")
_SENSE_CODE = {sense: code for code, sense in enumerate(_SENSES)}


@dataclass
class _Compiled:
    c: np.ndarray
    # The "<=" rows (">=" negated), then the "==" rows, as HiGHS loads them:
    # values, row indices and column starts, the last two int32.
    csc: tuple[np.ndarray, np.ndarray, np.ndarray]
    row_lower: np.ndarray
    row_upper: np.ndarray
    n_ub: int  # how many of the rows are "<=" rows
    lb: np.ndarray
    ub: np.ndarray
    int_idx: np.ndarray

    @property
    def a(self) -> scipy.sparse.csc_array:
        """The matrix as scipy takes it, built on demand (for the cross-check
        adapter)."""
        from scipy import sparse

        data, rows, starts = self.csc
        return sparse.csc_array((data, rows.astype(np.int64), starts.astype(np.int64)),
                                shape=(len(self.row_upper), len(self.c)))


def _compile(model: LinearModel) -> _Compiled:
    n, m = len(model._lb), len(model._row_len)
    c = np.zeros(n)
    if model._objective:
        c[[model._index[var] for var in model._objective]] = list(model._objective.values())

    senses = np.array(model._senses, dtype=np.int8)
    sign = np.where(senses == 1, -1.0, 1.0)  # ">=" becomes "<=" after negation
    is_eq = senses == 2
    order = np.argsort(is_eq, kind="stable")  # the "<=" and ">=" rows, then the "==" rows
    n_ub = m - int(np.count_nonzero(is_eq))
    row_of = np.empty(m, dtype=np.int32)  # an input row's position in the matrix
    row_of[order] = np.arange(m)

    lengths = np.array(model._row_len, dtype=np.int64)
    nz_row = np.repeat(np.arange(m), lengths)  # each coefficient's input row
    cols = np.array(model._cols, dtype=np.int64)
    vals = np.array(model._vals, dtype=float)
    rhs = np.array(model._rhs, dtype=float)
    _check_finite(model, c, vals, rhs, cols, nz_row)

    # Coefficients in matrix row order, then a stable sort by column: each
    # column's entries come out in row order.
    by_row = np.argsort(is_eq[nz_row], kind="stable")
    entries = by_row[np.argsort(cols[by_row], kind="stable")]
    rows = nz_row[entries]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    csc = (vals[entries] * sign[rows], row_of[rows], indptr)
    row_upper = rhs[order] * sign[order]
    row_lower = np.concatenate((np.full(n_ub, -highs.kHighsInf), row_upper[n_ub:]))
    lb = np.array(model._lb, dtype=float)
    ub = np.array(model._ub, dtype=float)
    int_idx = np.flatnonzero(np.array(model._integer, dtype=bool))
    return _Compiled(c, csc, row_lower, row_upper, n_ub, lb, ub, int_idx)


def _check_finite(model: LinearModel, c, vals, rhs, cols, nz_row) -> None:
    """Raise ModelError naming the first NaN or infinite objective term,
    coefficient or right-hand side."""
    if not np.isfinite(c).all():
        j = int(np.argmax(~np.isfinite(c)))
        raise ModelError(f"objective term of {list(model._index)[j]!r} is {c[j]}")
    if not np.isfinite(vals).all():
        k = int(np.argmax(~np.isfinite(vals)))
        raise ModelError(f"constraint {model._row_names[nz_row[k]]!r} has coefficient "
                         f"{vals[k]} on {list(model._index)[cols[k]]!r}")
    if not np.isfinite(rhs).all():
        r = int(np.argmax(~np.isfinite(rhs)))
        raise ModelError(f"constraint {model._row_names[r]!r} has right-hand side {rhs[r]}")


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
_IDLE = threading.local()  # each thread's HiGHS instance while no solve holds it


class _LPResult(NamedTuple):
    """One LP's outcome, as :func:`linprog` reports it."""

    status: int
    fun: float | None
    x: np.ndarray | None


class _Loaded:
    """A compiled model in the calling thread's HiGHS instance, for one solve.

    The first LP on it loads the model into the thread's instance (a new one
    while another solve holds it); ``lb`` and ``ub`` are the column bounds
    the instance holds.
    """

    def __init__(self, comp: _Compiled):
        self.comp, self.highs, self.ok = comp, None, False
        self.lb, self.ub = comp.lb.copy(), comp.ub.copy()

    def release(self) -> None:
        """Clear the instance of the model, solver state and options, and
        give it back to the thread unless it keeps a nested solve's."""
        mine, self.highs = self.highs, None
        if mine is not None:
            mine.clear()
            mine.passOptions(_LP_OPTIONS)
            if getattr(_IDLE, "highs", None) is None:
                _IDLE.highs = mine


def linprog(lp: _Loaded, lb: np.ndarray, ub: np.ndarray,
            time_limit: float | None) -> _LPResult:
    """Solve one LP relaxation of a loaded model under column bounds lb/ub.

    This is ``scipy.optimize.linprog(method="highs")`` on the same data with
    the same HiGHS options (dual simplex, presolve on, a time limit of at
    least 0.05 s if any, no output), the same status codes (0 optimal, 1
    time or iteration limit, 2 infeasible, 3 unbounded, 4 anything else)
    and the same post-solve check, which turns an "optimal" point that
    misses a bound or a row by more than ~3.2e-4 into status 4.  ``x`` and
    ``fun`` are None unless the status is 0.  Only the column bounds that
    differ from the instance's are pushed, and the instance's solver state
    is cleared first, so every LP starts as it would on a fresh instance.
    """
    comp, error = lp.comp, highs.HighsStatus.kError
    if not lb.shape == ub.shape == comp.c.shape:  # HiGHS reads len(c) of each
        raise ValueError(f"lb and ub need {len(comp.c)} entries")
    if lp.highs is None:  # this thread's instance, or a new one while a solve holds it
        lp.highs, _IDLE.highs = getattr(_IDLE, "highs", None), None
        if lp.highs is None:
            lp.highs = highs._Highs()
            lp.highs.passOptions(_LP_OPTIONS)
        values, rows, starts = comp.csc
        continuous = np.zeros(len(comp.c), dtype=np.int32)  # the LP relaxation
        lp.ok = lp.highs.passModel(
            len(comp.c), len(comp.row_upper), len(values), highs.MatrixFormat.kColwise,
            highs.ObjSense.kMinimize, 0.0, comp.c, comp.lb, comp.ub, comp.row_lower,
            comp.row_upper, starts, rows, values, continuous) != error
    solver = lp.highs
    cols = np.flatnonzero((lb != lp.lb) | (ub != lp.ub)).astype(np.int32)
    if not lp.ok or (cols.size and solver.changeColsBounds(
            cols.size, cols, lb[cols], ub[cols]) == error):
        return _LPResult(2, None, None)  # linprog's model error
    lp.lb[cols], lp.ub[cols] = lb[cols], ub[cols]
    # HiGHS holds the time limit against the instance's run clock, which
    # adds up over its runs.
    solver.setOptionValue("time_limit", math.inf if time_limit is None
                          else solver.getRunTime() + max(time_limit, 0.05))
    solver.clearSolver()  # no basis or solution carries over to this LP
    ran = solver.run() != error
    status = _LP_STATUS.get(solver.getModelStatus(), 4)
    if status != 0 or not ran:  # a failed run gives no point, so "optimal" is 4
        return _LPResult(status or 4, None, None)
    solution = solver.getSolution()
    x, fun = np.array(solution.col_value), solver.getObjectiveValue()
    resid = comp.row_upper - np.array(solution.row_value)  # slacks, then residuals
    ok = _within_tolerance(x, fun, resid[:comp.n_ub], resid[comp.n_ub:], lb, ub)
    return _LPResult(0 if ok else 4, fun, x)


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


def solve(model: LinearModel, time_limit: float | None = None) -> SolveResult:
    """Minimize the model by branch-and-bound over HiGHS LP relaxations.

    Deterministic: identical models (same construction order) yield identical
    results.  The first integral node popped is optimal, so the status is
    "optimal", "infeasible", "unbounded" or "no_solution", never "feasible".
    With ``time_limit`` (seconds from the call, compiling the model included)
    a search that reaches the deadline before an integral node reports
    "no_solution" with the proven best_bound so far.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    comp = _compile(model)

    def remaining() -> float | None:
        return None if deadline is None else deadline - time.monotonic()

    if len(comp.c) == 0:
        return SolveResult("optimal", {}, 0.0, 0.0, nodes=0)
    lp = _Loaded(comp)
    try:
        return _branch_and_bound(model, comp, lp, remaining)
    finally:
        lp.release()


def _branch_and_bound(model: LinearModel, comp: _Compiled, lp: _Loaded,
                      remaining) -> SolveResult:
    root = linprog(lp, comp.lb, comp.ub, remaining())
    if root.status == 2:
        return SolveResult("infeasible", {}, None, math.inf, nodes=1)
    if root.status == 3:
        return SolveResult("unbounded", {}, None, -math.inf, nodes=1)
    if root.status == 1:  # the LP hit its own time/iteration limit
        return SolveResult("no_solution", {}, None, -math.inf, nodes=1)
    if root.status != 0:
        raise SolverError(f"LP backend failed with status {root.status}")

    nodes = 1
    counter = 0
    # Heap of open nodes: (bound, -insertion counter, LP solution, lb, ub).
    # Best bound first; among equal bounds the newest node wins, so the search
    # dives depth-first along a flat bound plateau instead of sweeping it
    # breadth-first, which reaches an integral node far sooner.  A child waits
    # unsolved (solution None) under its parent's bound, which is at most its
    # own; its LP is solved when it first reaches the top, and it goes back
    # under its own bound with the same counter.  So the first solved node
    # popped is the one a search that solves every child at once would pop.
    # No open node is below the popped one, so the first integral node popped
    # is optimal.
    heap = [(float(root.fun), -counter, root.x, comp.lb, comp.ub)]

    def no_solution(bound: float) -> SolveResult:
        """Stopped before an integral node, the popped one's bound open."""
        least = min([*(b for b, *_ in heap), bound])
        return SolveResult("no_solution", {}, None, least, nodes=nodes)

    while heap:
        bound, order, x, lb, ub = heappop(heap)
        rem = remaining()
        if rem is not None and rem <= 0:
            return no_solution(bound)
        if x is None:
            res = linprog(lp, lb, ub, rem)
            nodes += 1
            if res.status == 2:
                continue
            if res.status == 1:  # LP hit its own time/iteration limit
                return no_solution(bound)
            if res.status != 0:
                raise SolverError(f"LP backend failed with status {res.status}")
            heappush(heap, (float(res.fun), order, res.x, lb, ub))
            continue
        branch = _most_fractional(x, comp.int_idx)
        if branch is None:
            return SolveResult("optimal", _values_of(model, comp, x), bound, bound, nodes=nodes)
        xv = x[branch]
        # Push the nearest-rounding child last: it pops first on tied bounds.
        down_ub, up_lb = ub.copy(), lb.copy()
        down_ub[branch], up_lb[branch] = math.floor(xv), math.ceil(xv)
        children = [(lb, down_ub), (up_lb, ub)]
        if xv - math.floor(xv) < 0.5:
            children.reverse()
        for child_lb, child_ub in children:
            if child_lb[branch] <= child_ub[branch]:
                counter += 1
                heappush(heap, (bound, -counter, None, child_lb, child_ub))
    return SolveResult("infeasible", {}, None, math.inf, nodes=nodes)


def _values_of(model: LinearModel, comp: _Compiled, x: np.ndarray) -> dict[str, float]:
    """Each variable's value in x by name, integer values within 1e-7 of an
    integer snapped to it."""
    near = x[comp.int_idx]
    rounded = np.round(near)
    snap = np.abs(near - rounded) <= 1e-7
    x = x.copy()
    x[comp.int_idx[snap]] = rounded[snap] + 0.0  # np.round(-1e-9) is -0.0; make it 0.0
    return dict(zip(model._index, x.tolist()))


def validate_solution(
    model: LinearModel, values: Mapping[str, float], tol: float = FEAS_TOL
) -> list[Violation]:
    """Every constraint, bound and integrality violation beyond ``tol``.

    Unknown names in ``values`` and model variables missing from ``values``
    are reported as violations too; missing variables count as 0 elsewhere.
    A NaN or infinite value is a bound violation, and a row it makes NaN a
    constraint violation, each by ``inf``.
    """
    out: list[Violation] = []
    known, variables = model._index, model.variables
    for name in values:
        if name not in known:
            out.append(Violation("unknown-variable", name, 0.0))
    for var in variables:
        if var.name not in values:
            out.append(Violation("missing-variable", var.name, 0.0))

    def val(name: str) -> float:
        return float(values.get(name, 0.0))

    for var in variables:
        x = val(var.name)
        if not math.isfinite(x):  # NaN compares false with every bound
            out.append(Violation("bound", var.name, math.inf))
            continue
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
        if math.isnan(excess):
            out.append(Violation("constraint", con.name, math.inf))
        elif excess > tol:
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
    variables = model.variables
    # An empty objective or row is written as 0 times the first variable.
    zero = [(variables[0].name, 0.0)] if variables else []
    obj = [(v, c) for v, c in model._objective.items() if c != 0.0]
    lines.append(" obj: " + render(obj or zero))
    lines.append("Subject To")
    sense_txt = {"<=": "<=", ">=": ">=", "==": "="}
    for con in model.constraints:
        lines.append(
            f" {con.name}: {render(list(con.coeffs) or zero)} {sense_txt[con.sense]} {con.rhs:g}"
        )
    bound_lines = []
    for var in variables:
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
    generals = [v.name for v in variables if v.integer]
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

    comp = _compile(model)
    n = len(comp.c)
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
    values = dict(zip(model._index, res.x.tolist()))
    status = "optimal" if res.status == 0 else "feasible"
    bound = float(res.mip_dual_bound) if res.mip_dual_bound is not None else None
    return SolveResult(status, values, float(res.fun), bound)
