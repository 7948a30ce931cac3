"""Immutable simple graphs on vertex set {0..n-1}, with bitset adjacency.

Every operation returns a new graph; instances are hashable and safe to
share across parallel workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import (
    BadVertex,
    DuplicateEdge,
    LoopEdge,
    MarksNotIndependent,
    MissingEdge,
)

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def component_masks(adj: tuple[int, ...], avail: int) -> list[int]:
    """Vertex masks of the connected components of the subgraph on `avail`,
    by smallest vertex."""
    comps = []
    while avail:
        comp = frontier = avail & -avail
        while frontier:
            lsb = frontier & -frontier
            frontier ^= lsb
            new = adj[lsb.bit_length() - 1] & avail & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        avail &= ~comp
    return comps


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges stored sorted so equal graphs compare equal."""

    n: int
    edges: tuple[Edge, ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        seen: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise LoopEdge(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise BadVertex(f"edge ({u},{v}) outside 0..{n - 1}")
            e = norm_edge(u, v)
            if e in seen:
                raise DuplicateEdge(f"edge {e} listed twice")
            seen.add(e)
        return Graph(n, tuple(sorted(seen)))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))

    @staticmethod
    def complete_bipartite(a: int, b: int) -> "Graph":
        return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))

    @staticmethod
    def complete_multipartite(*sizes: int) -> "Graph":
        n = sum(sizes)
        part = []
        for i, s in enumerate(sizes):
            part.extend([i] * s)
        edges = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]
        )
        return Graph(n, edges)

    @staticmethod
    def cycle_graph(n: int) -> "Graph":
        return Graph(n, tuple(sorted(norm_edge(i, (i + 1) % n) for i in range(n))))

    # -- basic accessors ------------------------------------------------------

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Neighbourhood bitsets."""
        a = [0] * self.n
        for u, v in self.edges:
            a[u] |= 1 << v
            a[v] |= 1 << u
        return tuple(a)

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.edges)}

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degree(v) for v in range(self.n)))

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edge_index

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(u for u in range(self.n) if (self.adj[v] >> u) & 1)

    def components(self) -> list[tuple[int, ...]]:
        """The connected components, by smallest vertex, each sorted."""
        return [
            tuple(u for u in range(self.n) if (comp >> u) & 1)
            for comp in component_masks(self.adj, (1 << self.n) - 1)
        ]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    # -- minor operations -----------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise BadVertex(f"vertex {v} outside 0..{self.n - 1}")

    def add_edge(self, u: int, v: int) -> "Graph":
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        e = norm_edge(u, v)
        if e in self.edge_index:
            raise DuplicateEdge(f"edge {e} already present")
        return Graph(self.n, tuple(sorted(self.edges + (e,))))

    def delete_edge(self, u: int, v: int) -> "Graph":
        e = norm_edge(u, v)
        if e not in self.edge_index:
            raise MissingEdge(f"edge {e} not in graph")
        return Graph(self.n, tuple(x for x in self.edges if x != e))

    def delete_vertex(self, v: int) -> "Graph":
        self._check_vertex(v)
        relabel = lambda w: w if w < v else w - 1
        edges = tuple(
            sorted(norm_edge(relabel(a), relabel(b)) for a, b in self.edges if v not in (a, b))
        )
        return Graph(self.n - 1, edges)

    def contract_edge(self, u: int, v: int) -> "Graph":
        """Merge v into u; drops loops, merges parallels, relabels to 0..n-2."""
        e = norm_edge(u, v)
        if e not in self.edge_index:
            raise MissingEdge(f"edge {e} not in graph")
        lo, hi = e
        out: set[Edge] = set()
        for a, b in self.edges:
            if (a, b) == e:
                continue
            a = lo if a == hi else a
            b = lo if b == hi else b
            a = a if a < hi else a - 1
            b = b if b < hi else b - 1
            if a != b:
                out.add(norm_edge(a, b))
        return Graph(self.n - 1, tuple(sorted(out)))

    # -- subgraphs and relabelings ---------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        vs = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(vs)}
        edges = tuple(
            sorted(
                (pos[a], pos[b])
                for a, b in self.edges
                if a in pos and b in pos
            )
        )
        return Graph(len(vs), edges)

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Apply vertex permutation: vertex v becomes perm[v]."""
        p = list(perm)
        edges = tuple(sorted(norm_edge(p[a], p[b]) for a, b in self.edges))
        return Graph(self.n, edges)

    def disjoint_union(self, other: "Graph") -> "Graph":
        off = self.n
        edges = self.edges + tuple((a + off, b + off) for a, b in other.edges)
        return Graph(self.n + other.n, tuple(sorted(edges)))

    def triangles(self) -> list[tuple[int, int, int]]:
        out = []
        for u, v in self.edges:
            common = self.adj[u] & self.adj[v]
            w = common >> (v + 1)
            base = v + 1
            while w:
                lsb = w & -w
                out.append((u, v, base + lsb.bit_length() - 1))
                w ^= lsb
        return out

    def edge_mask(self, edges: Iterable[Edge]) -> int:
        idx = self.edge_index
        mask = 0
        for e in edges:
            mask |= 1 << idx[norm_edge(*e)]
        return mask

    def edges_of_mask(self, mask: int) -> tuple[Edge, ...]:
        return tuple(self.edges[i] for i in range(self.m) if (mask >> i) & 1)


@dataclass(frozen=True)
class MarkedGraph:
    """Graph with an ordered triple of pairwise non-adjacent marked vertices."""

    graph: Graph
    marks: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(set(self.marks)) != 3:
            raise BadVertex(f"marks {self.marks} not distinct")
        for v in self.marks:
            if not (0 <= v < self.graph.n):
                raise BadVertex(f"mark {v} outside 0..{self.graph.n - 1}")
        for a, b in itertools.combinations(self.marks, 2):
            if self.graph.has_edge(a, b):
                raise MarksNotIndependent(f"marks {a} and {b} are adjacent")
