"""Packing instances, stochastic objectives, realizations, and the query oracle.

A packing instance is ``max c.x  s.t.  A x <= b, x in {0,1}^m`` with
nonnegative integer data.  The objective vector is uncertain: item ``j`` has
an integer interval ``[c_minus[j], c_plus[j]]`` and lands on the top value
with probability at least ``p``.  Values are drawn once ("nature") and can be
revealed one item at a time through a :class:`QueryOracle`.

Instances and objectives are immutable and safe to share across concurrent
trials; an oracle is single-owner mutable state within one trial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import StructureError

FAMILIES = (
    "generic",
    "bipartite-matching",
    "nonbipartite-matching",
    "k-hypergraph",
    "k-cspip",
    "matroid",
)

INSTANCE_FORMAT = "packing-instance/v1"

_INSTANCE_FIELDS = {
    "format",
    "n",
    "m",
    "family",
    "A",
    "b",
    "c_minus",
    "c_plus",
    "p",
    "meta",
}


def _int_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise StructureError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.equal(np.mod(arr, 1), 0)):
            raise StructureError(f"{name} must be integral")
    out = arr.astype(np.int64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PackingInstance:
    """Constraint data plus a family tag and family-specific metadata.

    ``meta`` carries the combinatorial description the family adapters need
    (edge lists, hyperedges, matroid description, column sparsity), keyed by
    convention per family.  The matrix is authoritative; metadata is a view.
    """

    A: np.ndarray
    b: np.ndarray
    family: str = "generic"
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        A = np.asarray(self.A)
        if A.ndim != 2:
            raise StructureError(f"A must be a matrix, got shape {A.shape}")
        if A.size and not np.issubdtype(A.dtype, np.integer):
            if not np.all(np.equal(np.mod(A, 1), 0)):
                raise StructureError("A must have integer entries")
        A = A.astype(np.int64)
        A.setflags(write=False)
        b = _int_vector(self.b, "b")
        if b.shape[0] != A.shape[0]:
            raise StructureError(
                f"b has {b.shape[0]} entries but A has {A.shape[0]} rows"
            )
        if self.family not in FAMILIES:
            raise StructureError(f"unknown family {self.family!r}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]

    def column_scale(self) -> float:
        """max_j min_{i: a_ij > 0} b_i / a_ij; inf if some column is all zero."""
        if self.m == 0:
            return 1.0
        w = 0.0
        for j in range(self.m):
            rows = np.nonzero(self.A[:, j])[0]
            if rows.size == 0:
                return float("inf")
            wj = float(np.min(self.b[rows] / self.A[rows, j]))
            w = max(w, wj)
        return max(w, 1.0)


@dataclass(frozen=True)
class Violation:
    condition: str  # 'a', 'b', or 'c'
    where: tuple
    message: str


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...]
    scale_w: float | None = None

    def __str__(self) -> str:
        if self.passed:
            tail = f" (w = {self.scale_w})" if self.scale_w is not None else ""
            return "pass" + tail
        lines = [f"fail ({len(self.violations)} violations)"]
        lines += [f"  [{v.condition}] {v.message}" for v in self.violations]
        return "\n".join(lines)


def validate_instance(inst: PackingInstance) -> ValidationReport:
    """Check the standing assumptions on (A, b).

    Condition (a): b >= 1.  Condition (b): every single item fits on its own.
    Condition (c): every column has a row with a_ij = b_i, which forces
    x_j <= 1 for any nonnegative solution.  Family ``k-cspip`` replaces (c)
    with a finite column scale w, which the report records.

    Dimension errors raise :class:`StructureError`; assumption violations are
    returned in the report with row/column witnesses.
    """
    A, b = inst.A, inst.b
    if np.any(A < 0):
        i, j = np.argwhere(A < 0)[0]
        raise StructureError(f"A[{i},{j}] is negative; entries must be in Z+")
    violations: list[Violation] = []
    for i in np.nonzero(b < 1)[0]:
        violations.append(Violation("a", (int(i),), f"b[{i}] = {b[i]} < 1"))
    oversized = set()
    for j in range(inst.m):
        bad = np.nonzero(A[:, j] > b)[0]
        if bad.size:
            i = int(bad[0])
            oversized.add(j)
            violations.append(
                Violation("b", (i, j), f"A[{i},{j}] = {A[i, j]} > b[{i}] = {b[i]}")
            )
    scale_w: float | None = None
    if inst.family == "k-cspip":
        scale_w = inst.column_scale()
        if not np.isfinite(scale_w):
            empty = [j for j in range(inst.m) if not A[:, j].any()]
            violations.append(
                Violation(
                    "c",
                    tuple(empty),
                    f"columns {empty} are all zero, so the scale w is infinite",
                )
            )
            scale_w = None
    else:
        # the a_ij = b_i check only makes sense for columns that fit (cond. b)
        for j in range(inst.m):
            if j not in oversized and not np.any(A[:, j] == b):
                violations.append(
                    Violation(
                        "c",
                        (j,),
                        f"column {j} has no row with a_ij = b_i, so x_{j} <= 1 "
                        "is not implied",
                    )
                )
    return ValidationReport(not violations, tuple(violations), scale_w)


@dataclass(frozen=True)
class StochasticObjective:
    """Per-item integer value intervals and the lower bound p on top-value mass."""

    c_minus: np.ndarray
    c_plus: np.ndarray
    p: float

    def __post_init__(self) -> None:
        lo = _int_vector(self.c_minus, "c_minus")
        hi = _int_vector(self.c_plus, "c_plus")
        if lo.shape != hi.shape:
            raise StructureError("c_minus and c_plus must have the same length")
        if lo.size and np.any(lo < 0):
            raise StructureError("c_minus must be nonnegative")
        if lo.size and np.any(lo > hi):
            j = int(np.nonzero(lo > hi)[0][0])
            raise StructureError(f"c_minus[{j}] > c_plus[{j}]")
        if not (0.0 < float(self.p) <= 1.0):
            raise StructureError(f"p must be in (0, 1], got {self.p}")
        object.__setattr__(self, "c_minus", lo)
        object.__setattr__(self, "c_plus", hi)
        object.__setattr__(self, "p", float(self.p))
        width = int(np.max(hi - lo)) if lo.size else 0
        object.__setattr__(self, "_delta_c", width)

    @property
    def m(self) -> int:
        return self.c_minus.shape[0]

    @property
    def delta_c(self) -> int:
        """Largest interval width max_j (c_plus[j] - c_minus[j])."""
        return self._delta_c  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Realization:
    """One draw of nature: the vector of realized item values."""

    c: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _int_vector(self.c, "c"))


def sample_realization(obj: StochasticObjective, seed: int) -> Realization:
    """Draw each item's value: ``c_plus[j]`` with probability p, else ``c_minus[j]``."""
    rng = np.random.default_rng(seed)
    top = rng.random(obj.m) < obj.p
    c = np.where(top, obj.c_plus, obj.c_minus)
    return Realization(c=c, seed=seed)


class QueryOracle:
    """The single gateway to nature's draw.

    Strategies may only look at values of items they have queried.  The
    realized vector is stored on the oracle (``hidden_realization``) for
    evaluation and witness-laboratory use; strategy code must not read it.
    Queries are idempotent: only the first reveal of an item counts.
    """

    def __init__(self, inst: PackingInstance, realization: Realization):
        if realization.c.shape[0] != inst.m:
            raise StructureError(
                f"realization has {realization.c.shape[0]} items, instance has {inst.m}"
            )
        self.instance = inst
        self.hidden_realization = realization
        self._mask = np.zeros(inst.m, dtype=bool)
        self._row_counts = np.zeros(inst.n, dtype=np.int64)

    @property
    def revealed(self) -> frozenset[int]:
        return frozenset(int(j) for j in np.nonzero(self._mask)[0])

    def revealed_mask(self) -> np.ndarray:
        return self._mask.copy()

    def query(self, j: int) -> int:
        """Reveal item j and return its realized value (free if already revealed)."""
        j = int(j)
        if not 0 <= j < self.instance.m:
            raise StructureError(f"item index {j} out of range")
        if not self._mask[j]:
            self._mask[j] = True
            self._row_counts += (self.instance.A[:, j] > 0).astype(np.int64)
        return int(self.hidden_realization.c[j])

    def value(self, j: int) -> int:
        if not self._mask[j]:
            raise StructureError(f"item {j} has not been revealed")
        return int(self.hidden_realization.c[j])

    @property
    def total_queries(self) -> int:
        return int(self._mask.sum())

    def row_counts(self) -> np.ndarray:
        """Per-row count of revealed items with a positive coefficient in that row."""
        return self._row_counts.copy()


def optimistic_vector(oracle, obj: StochasticObjective) -> np.ndarray:
    """Revealed items at their realized value, everything else at the top."""
    mask = oracle.revealed_mask()
    return np.where(mask, oracle.hidden_realization.c, obj.c_plus).astype(np.int64)


def pessimistic_vector(oracle, obj: StochasticObjective) -> np.ndarray:
    """Revealed items at their realized value, everything else at the bottom."""
    mask = oracle.revealed_mask()
    return np.where(mask, oracle.hidden_realization.c, obj.c_minus).astype(np.int64)


# ---------------------------------------------------------------------------
# Instance file format: JSON with the matrix as sparse (row, col, value)
# triples.  Round-trips losslessly; unknown fields are rejected.
# ---------------------------------------------------------------------------


def instance_to_dict(inst: PackingInstance, obj: StochasticObjective) -> dict:
    if obj.m != inst.m:
        raise StructureError("objective and instance disagree on item count")
    triples = [
        [int(i), int(j), int(inst.A[i, j])]
        for i in range(inst.n)
        for j in range(inst.m)
        if inst.A[i, j]
    ]
    return {
        "format": INSTANCE_FORMAT,
        "n": inst.n,
        "m": inst.m,
        "family": inst.family,
        "A": triples,
        "b": [int(v) for v in inst.b],
        "c_minus": [int(v) for v in obj.c_minus],
        "c_plus": [int(v) for v in obj.c_plus],
        "p": obj.p,
        "meta": _jsonable(inst.meta),
    }


def instance_from_dict(data: Mapping) -> tuple[PackingInstance, StochasticObjective]:
    unknown = set(data) - _INSTANCE_FIELDS
    if unknown:
        raise StructureError(f"unknown instance fields: {sorted(unknown)}")
    missing = _INSTANCE_FIELDS - {"format"} - set(data)
    if missing:
        raise StructureError(f"missing instance fields: {sorted(missing)}")
    if data.get("format", INSTANCE_FORMAT) != INSTANCE_FORMAT:
        raise StructureError(f"unsupported instance format {data.get('format')!r}")
    n, m = int(data["n"]), int(data["m"])
    A = np.zeros((n, m), dtype=np.int64)
    for entry in data["A"]:
        if len(entry) != 3:
            raise StructureError(f"matrix triple {entry!r} is not (row, col, value)")
        i, j, v = (int(x) for x in entry)
        if not (0 <= i < n and 0 <= j < m):
            raise StructureError(f"matrix triple ({i},{j}) out of range")
        A[i, j] = v
    inst = PackingInstance(A=A, b=data["b"], family=data["family"], meta=data["meta"])
    obj = StochasticObjective(
        c_minus=data["c_minus"], c_plus=data["c_plus"], p=data["p"]
    )
    if obj.m != m:
        raise StructureError("objective vectors do not match the item count")
    return inst, obj


def save_instance(path, inst: PackingInstance, obj: StochasticObjective) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst, obj), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> tuple[PackingInstance, StochasticObjective]:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructureError(f"not a valid instance file: {exc}") from exc
    return instance_from_dict(data)


def _jsonable(value):
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value
