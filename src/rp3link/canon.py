"""Canonical labeling, automorphism generators, and orbit tables.

The canonical form is the minimum adjacency code over the leaves of an
individualization-refinement search tree.  Automorphisms discovered as
equal-code leaves prune branches whose root candidate lies in the orbit of
an already-explored sibling (computed from generators fixing the current
individualized prefix pointwise), which keeps the tree near-linear even on
vertex-transitive graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .config import DEFAULT_LIMITS, Limits
from .errors import SizeExceeded
from .graphs import Edge, Graph, MarkedGraph, norm_edge

Perm = tuple[int, ...]


def _refine(adj: tuple[int, ...], n: int, colors: list[int]) -> list[int]:
    """Equitable refinement: split cells by neighbour counts per cell."""
    while True:
        k = max(colors) + 1
        cell_mask = [0] * k
        for v, c in enumerate(colors):
            cell_mask[c] |= 1 << v
        sigs = [
            (colors[v], tuple((adj[v] & cell_mask[c]).bit_count() for c in range(k)))
            for v in range(n)
        ]
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [remap[sigs[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _cells(colors: list[int], n: int) -> list[list[int]]:
    k = max(colors) + 1 if n else 0
    cells: list[list[int]] = [[] for _ in range(k)]
    for v in range(n):
        cells[colors[v]].append(v)
    return cells


def _individualize(colors: list[int], v: int) -> list[int]:
    cv = colors[v]
    out = []
    for w, c in enumerate(colors):
        if c < cv or (c == cv and w == v):
            out.append(c)
        else:
            out.append(c + 1)
    return out


def _adjacency_code(adj: tuple[int, ...], n: int, lab: list[int]) -> bytes:
    """Upper-triangle bits of the graph relabeled so lab[i] sits at position i."""
    bits = bytearray()
    acc = 0
    count = 0
    for j in range(1, n):
        aj = adj[lab[j]]
        for i in range(j):
            acc = (acc << 1) | ((aj >> lab[i]) & 1)
            count += 1
            if count == 8:
                bits.append(acc)
                acc = count = 0
    if count:
        bits.append(acc << (8 - count))
    return bytes([n]) + bytes(bits)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _search(
    adj: tuple[int, ...], n: int, init_colors: list[int]
) -> tuple[bytes, Perm, list[Perm]]:
    """Return (min leaf code, its labeling, automorphism generators)."""
    best: list = [None, None]  # code, lab
    generators: list[Perm] = []
    gen_set: set[Perm] = set()

    def record_leaf(colors: list[int]) -> None:
        lab = sorted(range(n), key=lambda v: colors[v])
        code = _adjacency_code(adj, n, lab)
        if best[0] is None or code < best[0]:
            best[0], best[1] = code, lab
        elif code == best[0] and lab != best[1]:
            sigma = [0] * n
            for i in range(n):
                sigma[best[1][i]] = lab[i]
            perm = tuple(sigma)
            if perm not in gen_set:
                gen_set.add(perm)
                generators.append(perm)

    def rec(colors: list[int], fixed: tuple[int, ...]) -> None:
        colors = _refine(adj, n, colors)
        cells = _cells(colors, n)
        target = None
        for cell in cells:
            if len(cell) > 1 and (target is None or len(cell) < len(target)):
                target = cell
        if target is None:
            record_leaf(colors)
            return
        explored: list[int] = []
        # orbits of the generators found so far that fix `fixed` pointwise;
        # generators are only ever appended, so each is folded in once
        uf = _UnionFind(range(n))
        folded = 0
        for v in target:
            if explored:
                for g in generators[folded:]:
                    if all(g[x] == x for x in fixed):
                        for x in range(n):
                            uf.union(x, g[x])
                folded = len(generators)
                if any(uf.find(v) == uf.find(u) for u in explored):
                    explored.append(v)
                    continue
            rec(_individualize(colors, v), fixed + (v,))
            explored.append(v)

    if n == 0:
        return bytes([0]), (), []
    rec(init_colors, ())
    return best[0], tuple(best[1]), generators


def _check_size(g: Graph, limits: Limits) -> None:
    if g.n > limits.max_vertices:
        raise SizeExceeded(f"{g.n} vertices exceeds bound {limits.max_vertices}")


def canonical_labeling(
    g: Graph, colors: list[int] | None = None, limits: Limits = DEFAULT_LIMITS
) -> tuple[bytes, Perm]:
    """Canonical code plus the labeling that realizes it.

    lab[i] is the original vertex placed at canonical position i; equal codes
    (for equal initial colorings) hold exactly for isomorphic graphs.
    """
    _check_size(g, limits)
    init = list(colors) if colors is not None else [0] * g.n
    code, lab, _ = _search(g.adj, g.n, init)
    if colors is not None:
        code += b"|" + bytes(init[lab[i]] for i in range(g.n))
    return code, lab


def canonical_form(g: Graph, limits: Limits = DEFAULT_LIMITS) -> bytes:
    return canonical_labeling(g, limits=limits)[0]


def canonical_form_marked(m: MarkedGraph, limits: Limits = DEFAULT_LIMITS) -> bytes:
    colors = [0] * m.graph.n
    for v in m.marks:
        colors[v] = 1
    return canonical_labeling(m.graph, colors=colors, limits=limits)[0]


def canonical_graph(g: Graph, limits: Limits = DEFAULT_LIMITS) -> Graph:
    """The canonically relabeled copy of g."""
    _, lab = canonical_labeling(g, limits=limits)
    inv = [0] * g.n
    for i, v in enumerate(lab):
        inv[v] = i
    return g.relabel(inv)


def automorphism_generators(
    g: Graph, colors: list[int] | None = None, limits: Limits = DEFAULT_LIMITS
) -> list[Perm]:
    _check_size(g, limits)
    init = list(colors) if colors is not None else [0] * g.n
    _, _, gens = _search(g.adj, g.n, init)
    return gens


def _compose(f: Perm, g: Perm) -> Perm:
    """Apply g first, then f."""
    return tuple(f[g[i]] for i in range(len(f)))


def _invert(f: Perm) -> Perm:
    inv = [0] * len(f)
    for i, x in enumerate(f):
        inv[x] = i
    return tuple(inv)


def group_order(generators: list[Perm], n: int) -> int:
    """Order of the permutation group via orbit-stabilizer recursion."""
    ident = tuple(range(n))
    gens = [g for g in {tuple(g) for g in generators} if g != ident]
    if not gens:
        return 1
    base = next(b for b in range(n) if any(g[b] != b for g in gens))
    transversal: dict[int, Perm] = {base: ident}
    queue = [base]
    while queue:
        x = queue.pop()
        rep = transversal[x]
        for g in gens:
            y = g[x]
            if y not in transversal:
                transversal[y] = _compose(g, rep)
                queue.append(y)
    stab: set[Perm] = set()
    for x, rep in transversal.items():
        for g in gens:
            sg = _compose(_invert(transversal[g[x]]), _compose(g, rep))
            if sg != ident:
                stab.add(sg)
    return len(transversal) * group_order(list(stab), n)


@dataclass(frozen=True)
class OrbitTable:
    """Automorphism orbits on vertices and on unordered vertex pairs.

    vfn[i] is 0 when some automorphism exchanges the two members of a pair
    in pair_orbits[i], else 1; it controls how many distinct two-point
    gluings a pair class admits.
    """

    vertex_orbits: tuple[tuple[int, ...], ...]
    pair_orbits: tuple[tuple[Edge, ...], ...]
    vfn: tuple[int, ...]

    @property
    def vertex_class_count(self) -> int:
        return len(self.vertex_orbits)

    @property
    def pair_class_count(self) -> int:
        return len(self.pair_orbits)

    @property
    def vfn_one_count(self) -> int:
        return sum(self.vfn)


def orbits(g: Graph, limits: Limits = DEFAULT_LIMITS) -> OrbitTable:
    gens = automorphism_generators(g, limits=limits)
    n = g.n

    uf_v = _UnionFind(range(n))
    for gen in gens:
        for v in range(n):
            uf_v.union(v, gen[v])
    vcells: dict[int, list[int]] = {}
    for v in range(n):
        vcells.setdefault(uf_v.find(v), []).append(v)
    vertex_orbits = tuple(sorted(tuple(sorted(c)) for c in vcells.values()))

    pairs = list(itertools.combinations(range(n), 2))
    uf_p = _UnionFind(pairs)
    uf_o = _UnionFind([(a, b) for a in range(n) for b in range(n) if a != b])
    for gen in gens:
        for a, b in pairs:
            uf_p.union((a, b), norm_edge(gen[a], gen[b]))
        for a in range(n):
            for b in range(n):
                if a != b:
                    uf_o.union((a, b), (gen[a], gen[b]))
    pcells: dict[Edge, list[Edge]] = {}
    for p in pairs:
        pcells.setdefault(uf_p.find(p), []).append(p)
    pair_orbits = tuple(sorted(tuple(sorted(c)) for c in pcells.values()))
    vfn = tuple(
        0 if uf_o.find((orb[0][0], orb[0][1])) == uf_o.find((orb[0][1], orb[0][0])) else 1
        for orb in pair_orbits
    )
    return OrbitTable(vertex_orbits, pair_orbits, vfn)


def are_isomorphic(g: Graph, h: Graph, limits: Limits = DEFAULT_LIMITS) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return canonical_form(g, limits) == canonical_form(h, limits)
