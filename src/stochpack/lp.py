"""Exact-at-desk-scale LP solving for max{c.x : Ax <= b, 0 <= x <= 1}.

The engine is one dense bounded-variable two-phase primal simplex with
least-index (Bland) pivoting, so runs are deterministic and never cycle.  It
is generic over the arithmetic: ``float`` runs it on float64 arrays with
tolerances, ``rational`` on object arrays of ``fractions.Fraction`` with
every tolerance zero, which is exact (arbitrary precision, so there is no
overflow to degrade to).

A float solve can resume phase 2 from the basis and bound status of an
earlier answer on the same ``A``, ``b`` and bounds (``start=``), which is what
the strategies do between rounds, where only the objective moves.  The
tableau is then rebuilt from that basis with one dense solve, so no error
carries over from one solve to the next; a start that does not fit (another
polytope, a basic artificial, a singular or infeasible basis) is ignored and
the solve runs cold.

Row duals are read off the final basis (the reduced costs of the slack
columns); an independent route that solves the explicit covering dual, with
the primal vertex recovered from its duals, is provided as a cross-check
(``route="dual"``, ``solve_dual_explicit``).

Solver state is per-call; problems are immutable and shareable across
threads.  Feasibility comparisons use ``FEAS_TOL``; duality-gap acceptance
uses ``GAP_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import PivotLimitError, StructureError

FEAS_TOL = 1e-9
GAP_TOL = 1e-6

_LOWER, _UPPER, _BASIC = 0, 1, 2


@dataclass(frozen=True, eq=False)
class LpProblem:
    """max objective.x subject to A x <= b and 0 <= x (<= 1 when explicit).

    When ``explicit_unit_bounds`` is false the unit box is assumed to be
    implied by the constraints themselves and the dual has row variables
    only; when true, each variable carries an explicit upper bound of one
    whose dual shows up as a reduced-cost component.
    """

    A: np.ndarray
    b: np.ndarray
    objective: np.ndarray
    explicit_unit_bounds: bool = False

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=np.float64)
        if A.ndim != 2:
            raise StructureError(f"A must be a matrix, got shape {A.shape}")
        b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        c = np.asarray(self.objective, dtype=np.float64).reshape(-1)
        if b.shape[0] != A.shape[0]:
            raise StructureError("b does not match the row count of A")
        if c.shape[0] != A.shape[1]:
            raise StructureError("objective does not match the column count of A")
        if c.size and c.min() < 0:
            raise StructureError("objective must be nonnegative")
        for arr in (A, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "objective", c)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """An optimal vertex; ``status`` and ``basis`` let a later solve resume.

    ``status`` holds the bound status of every tableau column of a
    primal-route solve and is None otherwise.  ``pivots`` counts the pivots
    and bound flips of the solve; ``warm`` tells whether it resumed from a
    start rather than running both phases.
    """

    x: Sequence
    value: object
    basis: tuple
    arithmetic: str
    problem: LpProblem
    status: Optional[np.ndarray] = None
    pivots: int = 0
    warm: bool = False


@dataclass(frozen=True, eq=False)
class DualSolution:
    y: Sequence
    bound_duals: Optional[Sequence]
    value: object
    arithmetic: str
    problem: LpProblem


@dataclass(frozen=True)
class DualityReport:
    ok: bool
    gap: object
    primal_feasible: bool
    dual_feasible: bool
    complementary: bool
    worst: str

    def __str__(self) -> str:
        head = "pass" if self.ok else "FAIL"
        return f"{head}: gap={self.gap}, worst={self.worst}"


@dataclass(frozen=True)
class _Arithmetic:
    """Element type and tolerances of one simplex backend."""

    name: str
    dtype: object
    zero: object
    one: object
    tol: object  # a reduced cost, pivot entry or infeasibility counts beyond this
    tie: object  # relative slack under which two ratios tie
    art: object  # largest artificial total phase 1 accepts as feasible
    gap: object  # largest duality gap and slackness product check_duality accepts
    scalar: Callable  # converts a reported value to its scalar type
    # Pivot updates touch only the nonzero entries of the pivot row and
    # column.  That pays off when every element operation is a Python call
    # (Fraction); on float64 the gather and scatter cost more than they save.
    sparse: bool


_FLOAT = _Arithmetic(
    "float", np.float64, 0.0, 1.0, FEAS_TOL, 1e-12, 1e-7, GAP_TOL, float, False
)
_ZERO = Fraction(0)
_EXACT = _Arithmetic(
    "rational", object, _ZERO, Fraction(1), _ZERO, _ZERO, _ZERO, _ZERO, Fraction, True
)


def _arithmetic(name: str) -> _Arithmetic:
    for ar in (_FLOAT, _EXACT):
        if ar.name == name:
            return ar
    raise StructureError(f"unknown arithmetic {name!r}")


def _typed(values, ar: _Arithmetic) -> np.ndarray:
    """Problem data or an answer's scalars as an array of the backend's type."""
    if ar is _FLOAT:
        return np.asarray(values, dtype=np.float64)
    arr = np.asarray(values, dtype=object)
    out = np.array([Fraction(v) for v in arr.ravel().tolist()], dtype=object)
    return out.reshape(arr.shape)


def _simplex(A, b, c, unit_bounds: bool, ar: _Arithmetic, start=None):
    """Two-phase bounded simplex with least-index pivoting.

    ``A``, ``b`` and ``c`` are arrays of the backend's type.  Every
    structural variable has an upper bound of one when ``unit_bounds`` is
    true, and none otherwise.  ``start`` is an optional ``(basis, status)``
    pair from an earlier solve of the same ``A`` and ``b``; when it gives a
    feasible basis without artificials, phase 1 is skipped and phase 2 runs
    from there.  Returns the structural solution, the basis, the final
    reduced costs, the bound status of every column, the pivot count and
    whether the start was taken.
    """
    zero, one, tol = ar.zero, ar.one, ar.tol
    n, m = A.shape
    flip = b < 0
    sign = np.where(flip, -one, one)
    art_rows = np.nonzero(flip)[0]
    n_art = art_rows.size
    total = m + n + n_art
    max_pivots = 200 + 60 * (n + m)

    T = np.full((n, total), zero, dtype=ar.dtype)
    T[:, :m] = A * sign[:, None]
    T[np.arange(n), m + np.arange(n)] = sign
    T[art_rows, m + n + np.arange(n_art)] = one
    rhs = b * sign
    bounded = np.zeros(total, dtype=bool)
    bounded[:m] = unit_bounds
    ub = np.where(bounded, one, zero)
    status = np.full(total, _LOWER, dtype=np.int8)
    basis = (m + np.arange(n)).astype(np.int64)
    basis[art_rows] = m + n + np.arange(n_art)
    status[basis] = _BASIC
    allowed = np.ones(total, dtype=bool)
    pivots = 0

    def compute_xb():
        up = np.nonzero(status == _UPPER)[0]
        if up.size:
            return rhs - T[:, up] @ ub[up]
        return rhs.copy()

    def pivot(r, j, z):
        piv = T[r, j]
        T[r] /= piv
        rhs[r] /= piv
        col = T[:, j].copy()
        col[r] = zero
        if ar.sparse:
            rows, cols = np.nonzero(col)[0], np.nonzero(T[r])[0]
            T[np.ix_(rows, cols)] -= np.outer(col[rows], T[r, cols])
        else:
            T[...] -= np.outer(col, T[r])
        rhs[...] -= col * rhs[r]
        z[...] -= z[j] * T[r]

    def run_phase(z):
        nonlocal pivots
        while True:
            cand = allowed & (
                ((status == _LOWER) & (z > tol)) | ((status == _UPPER) & (z < -tol))
            )
            js = np.nonzero(cand)[0]
            if js.size == 0:
                return
            pivots += 1
            if pivots > max_pivots:
                raise PivotLimitError(f"exceeded {max_pivots} pivots")
            j = int(js[0])
            d = T[:, j] if status[j] == _LOWER else -T[:, j]
            xb = compute_xb()
            ratios = np.full(n, np.inf, dtype=ar.dtype)
            dec = d > tol
            ratios[dec] = np.maximum(xb[dec], zero) / d[dec]
            inc = (d < -tol) & bounded[basis]
            ratios[inc] = np.maximum(ub[basis][inc] - xb[inc], zero) / (-d[inc])
            rmin = ratios.min() if n else np.inf
            if bounded[j] and ub[j] <= rmin:
                status[j] = _UPPER if status[j] == _LOWER else _LOWER
                continue
            if rmin == np.inf:
                raise StructureError("LP is unbounded")
            tied = np.nonzero(ratios <= rmin + ar.tie * max(one, rmin))[0]
            r = int(tied[np.argmin(basis[tied])])
            leave = int(basis[r])
            status[leave] = _LOWER if d[r] > 0 else _UPPER
            basis[r] = j
            status[j] = _BASIC
            pivot(r, j, z)

    def reduced_costs(cost):
        return cost - cost[basis] @ T

    def resume(basis0, status0):
        """Rebuild the tableau as B^-1 [T | rhs] for ``basis0``, if it fits."""
        if (
            n == 0
            or basis0.shape != (n,)
            or status0.shape != (total,)
            or basis0.min() < 0
            or basis0.max() >= m + n
            or np.any(status0[basis0] != _BASIC)
            or np.count_nonzero(status0 == _BASIC) != n
            or np.any((status0 == _UPPER) & ~bounded)
        ):
            return False
        try:
            full = np.linalg.solve(T[:, basis0], np.column_stack([T, rhs]))
        except np.linalg.LinAlgError:
            return False
        up = np.nonzero(status0 == _UPPER)[0]
        xb = full[:, -1] - full[:, up] @ ub[up]
        cap = np.where(bounded[basis0], ub[basis0], np.inf)
        if np.any(xb < -tol) or np.any(xb > cap + tol):
            return False
        T[...] = full[:, :-1]
        rhs[...] = full[:, -1]
        basis[...] = basis0
        status[...] = status0
        return True

    warm = start is not None and resume(*start)
    if n_art and not warm:
        c1 = np.full(total, zero, dtype=ar.dtype)
        c1[m + n :] = -one
        run_phase(reduced_costs(c1))
        xb = compute_xb()
        if sum(xb[basis >= m + n]) > ar.art:
            raise StructureError("LP is infeasible")
        for r in np.nonzero(basis >= m + n)[0]:
            cols = np.nonzero(
                (np.abs(T[r, : m + n]) > tol) & (status[: m + n] != _BASIC)
            )[0]
            if cols.size:
                j = int(cols[0])
                status[basis[r]] = _LOWER
                basis[r] = j
                status[j] = _BASIC
                pivot(r, j, np.full(total, zero, dtype=ar.dtype))
    allowed[m + n :] = False

    c2 = np.full(total, zero, dtype=ar.dtype)
    c2[:m] = c
    z = reduced_costs(c2)
    run_phase(z)

    xb = compute_xb()
    x = np.where(status[:m] == _UPPER, ub[:m], zero)
    structural = basis < m
    x[basis[structural]] = xb[structural]
    return x, tuple(int(v) for v in basis), z, status, pivots, warm


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def solve_primal(
    prob: LpProblem,
    arithmetic: str = "float",
    route: str = "primal",
    start: Optional[LpSolution] = None,
) -> LpSolution:
    """Solve to an optimal basic feasible solution; deterministic for fixed inputs.

    ``route`` is ``"primal"``, the simplex on the problem itself, or
    ``"dual"``, the simplex on its covering dual (see the module docstring).

    ``start`` is an earlier answer; a float primal-route solve resumes phase
    2 from its basis when it solved the same ``A``, ``b`` and bounds (see the
    module docstring).  The rational backend and the covering route ignore it.
    """
    sol, _ = _solve_pair(prob, arithmetic, route, start)
    return sol


def solve_dual(prob: LpProblem, arithmetic: str = "float") -> DualSolution:
    """Row duals extracted from the optimal basis of the primal solve."""
    _, dual = _solve_pair(prob, arithmetic, "primal")
    return dual


def _resume_state(prob: LpProblem, start: Optional[LpSolution]):
    """The (basis, status) of ``start`` when it solved the polytope of ``prob``."""
    if start is None or start.status is None or start.problem is None:
        return None
    if not _same_polytope(start.problem, prob):
        return None
    return np.asarray(start.basis, dtype=np.int64), start.status


def _solve_pair(prob, arithmetic, route, start=None):
    ar = _arithmetic(arithmetic)
    if route == "dual":
        return _solve_via_covering(prob, ar)
    if route != "primal":
        raise StructureError(f"unknown route {route!r}")
    m, n = prob.m, prob.n
    x, basis, z, status, pivots, warm = _simplex(
        _typed(prob.A, ar),
        _typed(prob.b, ar),
        _typed(prob.objective, ar),
        prob.explicit_unit_bounds,
        ar,
        _resume_state(prob, start) if ar is _FLOAT else None,
    )
    y = np.maximum(-z[m : m + n], ar.zero)
    bound = None
    if prob.explicit_unit_bounds:
        bound = np.where(status[:m] == _UPPER, np.maximum(z[:m], ar.zero), ar.zero)
    status.setflags(write=False)
    return _pair(prob, ar, x, basis, y, bound, status, pivots, warm)


def _pair(prob, ar, x, basis, y, bound, status, pivots, warm):
    """The primal and dual answers for ``prob`` in the backend's scalars."""
    value = ar.scalar(_typed(prob.objective, ar) @ x)
    bound_total = bound.sum() if bound is not None else ar.zero
    dval = ar.scalar(y @ _typed(prob.b, ar) + bound_total)
    sol = LpSolution(
        x=x,
        value=value,
        basis=basis,
        arithmetic=ar.name,
        problem=prob,
        status=status,
        pivots=pivots,
        warm=warm,
    )
    dual = DualSolution(
        y=y, bound_duals=bound, value=dval, arithmetic=ar.name, problem=prob
    )
    return sol, dual


def _covering_data(prob: LpProblem):
    """The explicit dual as a max problem: variables (y, z), rows per item."""
    n, m = prob.n, prob.m
    if prob.explicit_unit_bounds:
        Ac = np.hstack([-prob.A.T, -np.eye(m)])
        cc = np.concatenate([-prob.b, -np.ones(m)])
    else:
        Ac = -prob.A.T
        cc = -prob.b
    bc = -prob.objective
    return Ac, bc, cc


def _solve_via_covering(prob: LpProblem, ar: _Arithmetic):
    """Solve the covering dual and recover the primal vertex from its duals."""
    Ac, bc, cc = _covering_data(prob)
    n, m = prob.n, prob.m
    nvars = Ac.shape[1]
    yz, basis, z, _, pivots, _ = _simplex(
        _typed(Ac, ar), _typed(bc, ar), _typed(cc, ar), False, ar
    )
    x = np.maximum(-z[nvars : nvars + m], ar.zero)
    bound = yz[n:] if prob.explicit_unit_bounds else None
    return _pair(prob, ar, x, basis, yz[:n], bound, None, pivots, False)


def solve_dual_explicit(prob: LpProblem, arithmetic: str = "float") -> DualSolution:
    """Independently solve min{y.b (+ z.1) : y.A (+ z) >= c} as a cross-check."""
    _, dual = _solve_via_covering(prob, _arithmetic(arithmetic))
    return dual


def check_duality(primal: LpSolution, dual: DualSolution) -> DualityReport:
    """Verify the optimality certificate: feasibility, zero gap, slackness.

    Two rational answers are checked exactly, with every tolerance zero;
    otherwise feasibility is held to ``FEAS_TOL`` and the gap and slackness
    products to ``GAP_TOL``.
    """
    if primal.problem is None or dual.problem is None:
        raise StructureError("an answer without its LpProblem cannot be checked")
    if not _same_problem(primal.problem, dual.problem):
        raise StructureError("primal and dual come from different problems")
    prob = primal.problem
    exact = primal.arithmetic == dual.arithmetic == "rational"
    ar = _EXACT if exact else _FLOAT
    zero = ar.zero
    A, b, c = (_typed(v, ar) for v in (prob.A, prob.b, prob.objective))
    x, y = _typed(primal.x, ar), _typed(dual.y, ar)
    z = np.full(prob.m, zero, dtype=ar.dtype)
    if dual.bound_duals is not None:
        z = _typed(dual.bound_duals, ar)
    row_act = A @ x if prob.m else np.full(prob.n, zero, dtype=ar.dtype)
    col_y = y @ A if prob.n else np.full(prob.m, zero, dtype=ar.dtype)
    reduced = c - col_y - z
    p_viol = max(np.max(row_act - b, initial=zero), np.max(-x, initial=zero))
    cs_viol = max(
        np.max(np.abs(y * (b - row_act)), initial=zero),
        np.max(np.abs(x * reduced), initial=zero),
    )
    if prob.explicit_unit_bounds:
        p_viol = max(p_viol, np.max(x - ar.one, initial=zero))
        cs_viol = max(cs_viol, np.max(np.abs(z * (ar.one - x)), initial=zero))
    d_viol = max(np.max(reduced, initial=zero), np.max(-y, initial=zero))
    gap = ar.scalar(primal.value) - ar.scalar(dual.value)
    pf, df, cs = p_viol <= ar.tol, d_viol <= ar.tol, cs_viol <= ar.gap
    ok = pf and df and abs(gap) <= ar.gap and cs
    worst = ("none", 0.0)
    for kind, amount in (
        ("primal feasibility", p_viol),
        ("dual feasibility", d_viol),
        ("duality gap", abs(gap)),
        ("complementary slackness", cs_viol),
    ):
        if float(amount) > worst[1]:
            worst = (kind, float(amount))
    return DualityReport(
        bool(ok), gap, bool(pf), bool(df), bool(cs), f"{worst[0]} ({worst[1]:.3g})"
    )


def _same_polytope(p1, p2) -> bool:
    return p1 is p2 or (
        p1.explicit_unit_bounds == p2.explicit_unit_bounds
        and p1.A.shape == p2.A.shape
        and np.array_equal(p1.A, p2.A)
        and np.array_equal(p1.b, p2.b)
    )


def _same_problem(p1, p2) -> bool:
    return _same_polytope(p1, p2) and np.array_equal(p1.objective, p2.objective)
