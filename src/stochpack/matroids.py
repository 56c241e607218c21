"""Matroid descriptions, independence oracles, and the weight greedy.

Three kinds are supported: uniform (rank bound), partition (per-block
capacities), and graphic (forests of a graph).  Each exposes the same small
oracle surface; on matroid polytopes the greedy optimum equals the LP
optimum, which is what the matroid adapter relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import SizeRefusalError, StructureError


class Matroid:
    """Independence oracle over ground set {0, ..., m-1}."""

    m: int

    def independent(self, subset) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformMatroid(Matroid):
    r: int
    m: int

    def __post_init__(self):
        if not (1 <= self.r):
            raise StructureError("uniform matroid needs rank >= 1")

    def independent(self, subset) -> bool:
        s = set(subset)
        return len(s) <= self.r


@dataclass(frozen=True)
class PartitionMatroid(Matroid):
    blocks: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(tuple(int(e) for e in blk) for blk in self.blocks)
        caps = tuple(int(c) for c in self.capacities)
        if len(blocks) != len(caps):
            raise StructureError("one capacity per block required")
        if any(c < 1 for c in caps):
            raise StructureError("block capacities must be >= 1")
        flat = [e for blk in blocks for e in blk]
        if len(flat) != len(set(flat)):
            raise StructureError("blocks must be disjoint")
        if sorted(flat) != list(range(len(flat))):
            raise StructureError("blocks must partition 0..m-1")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "capacities", caps)
        block_of = {}
        for idx, blk in enumerate(blocks):
            for e in blk:
                block_of[e] = idx
        object.__setattr__(self, "_block_of", block_of)

    @property
    def m(self) -> int:
        return sum(len(blk) for blk in self.blocks)

    def independent(self, subset) -> bool:
        counts = [0] * len(self.blocks)
        for e in set(subset):
            counts[self._block_of[e]] += 1  # type: ignore[attr-defined]
        return all(c <= cap for c, cap in zip(counts, self.capacities))


@dataclass(frozen=True)
class GraphicMatroid(Matroid):
    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        if any(u == v for u, v in edges):
            raise StructureError("graphic matroid forbids self-loops")
        if any(not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices)
               for u, v in edges):
            raise StructureError("edge endpoint out of range")
        object.__setattr__(self, "edges", edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def independent(self, subset) -> bool:
        parent = list(range(self.n_vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in set(subset):
            u, v = self.edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True


def matroid_from_meta(meta) -> Matroid:
    desc = meta.get("matroid")
    if not isinstance(desc, dict) or "kind" not in desc:
        raise StructureError("matroid metadata missing or malformed")
    kind = desc["kind"]
    try:
        if kind == "uniform":
            return UniformMatroid(r=int(desc["rank"]), m=int(desc["m"]))
        if kind == "partition":
            return PartitionMatroid(
                blocks=tuple(tuple(blk) for blk in desc["blocks"]),
                capacities=tuple(desc["capacities"]),
            )
        if kind == "graphic":
            return GraphicMatroid(
                n_vertices=int(desc["n_vertices"]),
                edges=tuple(tuple(e) for e in desc["edges"]),
            )
    except StructureError:
        raise
    except KeyError as exc:
        raise StructureError(f"{kind} matroid metadata needs {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise StructureError(f"malformed {kind} matroid metadata: {exc}") from exc
    raise StructureError(f"unknown matroid kind {kind!r}")


def greedy_max_weight(matroid: Matroid, weights):
    """Best-first greedy; exact on matroids.  Returns (value, chosen ids)."""
    order = sorted(range(matroid.m), key=lambda e: (-weights[e], e))
    chosen: list[int] = []
    value = 0
    for e in order:
        if weights[e] <= 0:
            break
        if matroid.independent(chosen + [e]):
            chosen.append(e)
            value += weights[e]
    return value, sorted(chosen)


def matroid_constraint_matrix(matroid: Matroid):
    """Compact exact polytope description (A, b) for the supported kinds.

    Uniform and partition matroids need only their capacity rows plus unit
    rows; graphic matroids get the forest rows x(E[S]) <= |S| - 1 over all
    vertex subsets, which is exact but exponential in the vertex count, so it
    is guarded.
    """
    m = matroid.m
    rows: list[np.ndarray] = []
    caps: list[int] = []
    if isinstance(matroid, UniformMatroid):
        if matroid.r < m:
            rows.append(np.ones(m, dtype=np.int64))
            caps.append(matroid.r)
    elif isinstance(matroid, PartitionMatroid):
        for blk, cap in zip(matroid.blocks, matroid.capacities):
            if cap < len(blk):
                row = np.zeros(m, dtype=np.int64)
                row[list(blk)] = 1
                rows.append(row)
                caps.append(cap)
    elif isinstance(matroid, GraphicMatroid):
        if matroid.n_vertices > 12:
            raise SizeRefusalError(
                "explicit forest rows limited to 12 vertices, got "
                f"{matroid.n_vertices}"
            )
        for size in range(2, matroid.n_vertices + 1):
            for subset in combinations(range(matroid.n_vertices), size):
                sset = set(subset)
                row = np.zeros(m, dtype=np.int64)
                hit = 0
                for idx, (u, v) in enumerate(matroid.edges):
                    if u in sset and v in sset:
                        row[idx] = 1
                        hit += 1
                if hit:
                    rows.append(row)
                    caps.append(size - 1)
    else:
        raise StructureError(f"no explicit matrix for {type(matroid).__name__}")
    eye = np.eye(m, dtype=np.int64)
    rows.extend(eye[i] for i in range(m))
    caps.extend([1] * m)
    return np.array(rows, dtype=np.int64), np.array(caps, dtype=np.int64)
