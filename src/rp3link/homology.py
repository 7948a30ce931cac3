"""GF(2) cycle space, homology assignments, and pullback along minor models.

Cycle-space elements are int bitmasks over the host graph's sorted edge
list.  A homology assignment is a linear functional on the cycle space,
stored as its value vector on the fundamental-cycle basis of a fixed
spanning forest; evaluating on a cycle reduces to a popcount parity over
the cycle's non-tree edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .config import DEFAULT_LIMITS, Limits
from .errors import DimensionExceeded, NotACycle, SizeExceeded
from .graphs import Graph, norm_edge
from .io_formats import graph_to_g6
from .minors import MinorModel, validate_model


class CycleSpace:
    """Spanning forest, fundamental basis, and signature extraction for a graph."""

    def __init__(self, g: Graph):
        self.graph = g
        tree_mask = 0
        parent_edge = [-1] * g.n
        order: list[int] = []  # BFS order: every vertex after its tree parent
        seen = 0
        for root in range(g.n):
            if (seen >> root) & 1:
                continue
            seen |= 1 << root
            frontier = [root]
            while frontier:
                v = frontier.pop(0)
                order.append(v)
                for u in g.neighbors(v):
                    if not (seen >> u) & 1:
                        seen |= 1 << u
                        ei = g.edge_index[(v, u) if v < u else (u, v)]
                        tree_mask |= 1 << ei
                        parent_edge[u] = ei
                        frontier.append(u)
        self.tree_mask = tree_mask
        self.nontree = [i for i in range(g.m) if not (tree_mask >> i) & 1]
        self.dim = len(self.nontree)
        self._nontree_mask = ((1 << g.m) - 1) & ~tree_mask
        # edge index -> bit of its position in nontree (0 for tree edges)
        self._sig_bit = [0] * g.m
        for pos, ei in enumerate(self.nontree):
            self._sig_bit[ei] = 1 << pos

        # tree paths to component roots, as edge masks
        path = [0] * g.n
        for v in order:
            ei = parent_edge[v]
            if ei >= 0:
                a, b = g.edges[ei]
                up = a if b == v else b
                path[v] = path[up] ^ (1 << ei)

        basis = []
        for ei in self.nontree:
            u, v = g.edges[ei]
            basis.append((1 << ei) ^ path[u] ^ path[v])
        self.basis: tuple[int, ...] = tuple(basis)

    def is_even_subgraph(self, mask: int) -> bool:
        g = self.graph
        deg = [0] * g.n
        m = mask
        while m:
            lsb = m & -m
            u, v = g.edges[lsb.bit_length() - 1]
            deg[u] += 1
            deg[v] += 1
            m ^= lsb
        return all(d % 2 == 0 for d in deg)

    def signature(self, mask: int) -> int:
        """Coordinates of a cycle-space member over the fundamental basis."""
        bit = self._sig_bit
        sig = 0
        m = mask & self._nontree_mask
        while m:
            lsb = m & -m
            sig |= bit[lsb.bit_length() - 1]
            m ^= lsb
        return sig


@lru_cache(maxsize=4096)
def cycle_space(g: Graph) -> CycleSpace:
    return CycleSpace(g)


def cycle_basis(g: Graph) -> tuple[int, ...]:
    """Fundamental cycles of a spanning forest, as edge masks."""
    return cycle_space(g).basis


@lru_cache(maxsize=1024)
def all_simple_cycles(g: Graph, limits: Limits = DEFAULT_LIMITS) -> tuple[int, ...]:
    """Every simple cycle exactly once, as edge masks.

    Rooted search: a cycle is generated from its smallest vertex, walking
    only through larger vertices, with the direction fixed by requiring the
    second vertex to be smaller than the last.  At each vertex the closing
    edge back to the root is tried first, then the unvisited neighbours
    above the root in ascending order.
    """
    if g.n > limits.max_vertices:
        raise SizeExceeded(f"{g.n} vertices exceeds bound {limits.max_vertices}")
    out: list[int] = []
    adj = g.adj
    n = g.n
    ebit = [0] * (n * n)  # ebit[u * n + v]: the bit of edge uv
    for (u, v), ei in g.edge_index.items():
        ebit[u * n + v] = ebit[v * n + u] = 1 << ei

    def walk(root: int, v: int, visited: int, path_edges: int, second: int) -> None:
        a = adj[v]
        # second < v: the path has three vertices and runs one way round
        if (a >> root) & 1 and second < v:
            out.append(path_edges | ebit[root * n + v])
            if len(out) > limits.max_cycles:
                raise SizeExceeded("cycle enumeration cutoff hit")
        nxt = a & ~visited
        row = v * n
        while nxt:
            lsb = nxt & -nxt
            nxt ^= lsb
            u = lsb.bit_length() - 1
            walk(root, u, visited | lsb, path_edges | ebit[row + u], second)

    for root in range(n):
        below = (2 << root) - 1  # the root and every smaller vertex
        nxt = adj[root] & ~below
        while nxt:
            second = nxt & -nxt
            nxt ^= second
            s = second.bit_length() - 1
            walk(root, s, below | second, ebit[root * n + s], s)
    return tuple(out)


def cycle_vertices(g: Graph, mask: int) -> int:
    """Vertex bitmask of an edge mask."""
    verts = 0
    m = mask
    while m:
        lsb = m & -m
        u, v = g.edges[lsb.bit_length() - 1]
        verts |= (1 << u) | (1 << v)
        m ^= lsb
    return verts


@dataclass(frozen=True)
class HomologyAssignment:
    """GF(2) linear functional on the cycle space of `host`.

    Bit i of `values` is the value on the i-th fundamental basis cycle.
    """

    host: Graph
    values: int

    @property
    def dim(self) -> int:
        return cycle_space(self.host).dim


def enumerate_assignments(
    g: Graph, limits: Limits = DEFAULT_LIMITS
) -> Iterator[HomologyAssignment]:
    dim = cycle_space(g).dim
    if dim > limits.max_dim:
        raise DimensionExceeded(f"dimension {dim} exceeds cap {limits.max_dim}")
    return (HomologyAssignment(g, v) for v in range(1 << dim))


def evaluate(phi: HomologyAssignment, cycle_mask: int) -> int:
    """Value of the functional on a cycle-space member."""
    cs = cycle_space(phi.host)
    if not cs.is_even_subgraph(cycle_mask):
        raise NotACycle("edge set has an odd-degree vertex")
    return (cs.signature(cycle_mask) & phi.values).bit_count() & 1


def assignment_from_edge_weights(g: Graph, weighted_edges) -> HomologyAssignment:
    """Functional C -> parity of |C ∩ W| for an edge subset W."""
    wmask = g.edge_mask(weighted_edges)
    cs = cycle_space(g)
    values = 0
    for i, b in enumerate(cs.basis):
        if (b & wmask).bit_count() & 1:
            values |= 1 << i
    return HomologyAssignment(g, values)


def restrict(phi: HomologyAssignment, vertices) -> tuple[Graph, HomologyAssignment]:
    """Restriction to the induced subgraph on `vertices`.

    Returns the induced subgraph h and the functional on h agreeing with
    phi on every cycle of h.
    """
    g = phi.host
    vs = sorted(set(vertices))
    h = g.induced_subgraph(vs)
    back = {i: v for i, v in enumerate(vs)}
    hs = cycle_space(h)
    values = 0
    for i, b in enumerate(hs.basis):
        gmask = g.edge_mask(
            (back[a], back[bb]) for a, bb in h.edges_of_mask(b)
        )
        if evaluate(phi, gmask):
            values |= 1 << i
    return h, HomologyAssignment(h, values)


# -- lifting along minor models ---------------------------------------------


def edge_lifts(model: MinorModel) -> tuple[int, ...]:
    """Host edge mask of each pattern edge, in pattern.edges order.

    The entry of pattern edge pq is its mapped host edge plus, inside the
    branch trees of p and q, the tree path from the set's root (its
    smallest vertex) to the end of the mapped edge.
    """
    eidx = model.host.edge_index
    path: dict[int, int] = {}  # branch vertex -> tree path from its set's root
    for bs, tree in zip(model.branch_sets, model.branch_trees):
        root = min(bs)
        path[root] = 0
        adj: dict[int, list[int]] = {}
        for u, v in tree:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for u in adj.get(v, ()):
                if u not in path:
                    path[u] = path[v] ^ (1 << eidx[norm_edge(u, v)])
                    frontier.append(u)
    return tuple(
        (1 << eidx[norm_edge(hu, hv)]) ^ path[hu] ^ path[hv] for hu, hv in model.edge_map
    )


def lift(model: MinorModel, pattern_mask: int) -> int:
    """Host edge mask realizing a pattern cycle-space member through the model.

    The XOR of the edge lifts over the member's edges: every pattern vertex
    has even degree, so inside each branch tree the root paths pair up into
    the tree edges joining the attachment points.  The map is GF(2)-linear.
    Raises NotACycle when some pattern vertex has odd degree.
    """
    odd = hmask = 0
    for pi, ((pu, pv), h) in enumerate(zip(model.pattern.edges, edge_lifts(model))):
        if pattern_mask >> pi & 1:
            odd ^= (1 << pu) ^ (1 << pv)
            hmask ^= h
    if odd:
        raise NotACycle("pattern edge set has an odd-degree vertex")
    return hmask


def pullback(phi: HomologyAssignment, model: MinorModel) -> HomologyAssignment:
    """Transport phi along a minor model: value on C equals phi on lift(C)."""
    if model.host != phi.host:
        from .errors import ModelInvalid

        raise ModelInvalid("model host differs from assignment host")
    validate_model(model)
    ps = cycle_space(model.pattern)
    values = 0
    for i, b in enumerate(ps.basis):
        if evaluate(phi, lift(model, b)):
            values |= 1 << i
    return HomologyAssignment(model.pattern, values)


# -- serialization ------------------------------------------------------------


def assignment_to_serial(phi: HomologyAssignment) -> str:
    """Replayable form: canonical g6 of the host plus hex of the transported values.

    Values are re-expressed over the canonical relabeling's fundamental
    basis so the string is independent of the host's labeling.
    """
    from .canon import canonical_labeling

    g = phi.host
    _, lab = canonical_labeling(g)
    inv = [0] * g.n
    for i, v in enumerate(lab):
        inv[v] = i
    cg = g.relabel(inv)
    cs = cycle_space(cg)
    values = 0
    for i, b in enumerate(cs.basis):
        gmask = g.edge_mask((lab[a], lab[bb]) for a, bb in cg.edges_of_mask(b))
        if evaluate(phi, gmask):
            values |= 1 << i
    width = max(1, (cs.dim + 3) // 4)
    return f"{graph_to_g6(cg)}:{values:0{width}x}"


def assignment_from_serial(serial: str) -> HomologyAssignment:
    from .io_formats import g6_to_graph

    g6, hexval = serial.rsplit(":", 1)
    g = g6_to_graph(g6)
    return HomologyAssignment(g, int(hexval, 16))
