"""Undirected graphs and the symmetric k-th power.

The symmetric power has the k-subsets of the vertex set as vertices, in
lexicographic order (this index contract is fixed so runs reproduce), with
two subsets adjacent exactly when their symmetric difference is an edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .blackbox import SparseMatrix


class GraphInputError(ValueError):
    """Adjacency input is not a simple undirected 0/1 graph."""


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: frozenset  # frozenset of (a, b) with a < b, 0-based

    def __post_init__(self):
        for a, b in self.edges:
            if not (0 <= a < b < self.vertex_count):
                raise GraphInputError(f"edge ({a}, {b}) is not valid")

    @classmethod
    def from_edges(cls, vertex_count: int, pairs) -> "Graph":
        edges = set()
        for a, b in pairs:
            if a == b:
                raise GraphInputError(f"loop at vertex {a}")
            edges.add((min(a, b), max(a, b)))
        return cls(vertex_count, frozenset(edges))

    @classmethod
    def from_adjacency(cls, matrix: SparseMatrix) -> "Graph":
        values = {(r, c): v for r, c, v in matrix.entries}
        edges = set()
        for (r, c), v in values.items():
            if v != 1:
                raise GraphInputError(
                    f"adjacency entries must be 0/1, found {v} at ({r}, {c})"
                )
            if r == c:
                raise GraphInputError(f"loop at vertex {r}")
            if values.get((c, r)) != 1:
                raise GraphInputError(f"asymmetric entry at ({r}, {c})")
            edges.add((min(r, c), max(r, c)))
        return cls(matrix.n, frozenset(edges))

    def adjacency(self) -> SparseMatrix:
        entries = []
        for a, b in self.edges:
            entries.append((a, b, 1))
            entries.append((b, a, 1))
        return SparseMatrix(self.vertex_count, entries)

    def neighbors(self) -> list[set]:
        out = [set() for _ in range(self.vertex_count)]
        for a, b in self.edges:
            out[a].add(b)
            out[b].add(a)
        return out


def rook_graph(side: int) -> Graph:
    """Cells of a side x side grid, adjacent when they share a row or column;
    vertex side * i + j is cell (i, j)."""
    n = side * side
    return Graph.from_edges(
        n,
        (
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if a // side == b // side or a % side == b % side
        ),
    )


def shrikhande_graph() -> Graph:
    """Cayley graph of Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)};
    vertex 4i + j is (i, j).  Like the 4 x 4 rook graph it is SRG(16, 6, 2, 2),
    but a vertex's neighbourhood is a 6-cycle, not two triangles."""
    steps = ((1, 0), (0, 1), (1, 1))
    return Graph.from_edges(
        16,
        (
            (4 * i + j, 4 * ((i + di) % 4) + (j + dj) % 4)
            for i in range(4)
            for j in range(4)
            for di, dj in steps
        ),
    )


def symmetric_power(graph: Graph, k: int) -> Graph:
    """Graph on the k-subsets, adjacent when the symmetric difference is an
    edge; vertices are indexed in lexicographic subset order."""
    n = graph.vertex_count
    if not (1 <= k <= n):
        raise GraphInputError(f"power k={k} outside 1..{n}")
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    nbrs = graph.neighbors()
    edges = set()
    for i, subset in enumerate(subsets):
        members = set(subset)
        for a in subset:
            for b in nbrs[a]:
                if b in members:
                    continue
                other = tuple(sorted(members - {a} | {b}))
                j = index[other]
                if j > i:
                    edges.add((i, j))
    power = Graph(comb(n, k), frozenset(edges))
    return power
