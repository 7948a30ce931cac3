"""Minor containment: branch-set models, validation, and enumeration.

A model witnesses pattern <= host through disjoint connected branch sets
(one per pattern vertex), a BFS spanning tree inside each set, and one
host edge per pattern edge joining the two corresponding sets.  Extra
edges induced inside a branch set are treated as deleted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .config import DEFAULT_LIMITS, Limits
from .errors import ModelInvalid, SizeExceeded
from .graphs import Edge, Graph, norm_edge


@dataclass(frozen=True)
class MinorModel:
    host: Graph
    pattern: Graph
    branch_sets: tuple[tuple[int, ...], ...]      # one per pattern vertex
    branch_trees: tuple[tuple[Edge, ...], ...]    # host edges spanning each set
    edge_map: tuple[Edge, ...]                    # per pattern edge, in pattern.edges order


def validate_model(m: MinorModel) -> None:
    """Raise ModelInvalid unless every structural invariant holds."""
    host, pattern = m.host, m.pattern
    if len(m.branch_sets) != pattern.n or len(m.branch_trees) != pattern.n:
        raise ModelInvalid("one branch set and tree required per pattern vertex")
    if len(m.edge_map) != pattern.m:
        raise ModelInvalid("one mapped host edge required per pattern edge")
    seen: set[int] = set()
    for bs in m.branch_sets:
        if not bs:
            raise ModelInvalid("empty branch set")
        for v in bs:
            if not (0 <= v < host.n):
                raise ModelInvalid(f"branch vertex {v} outside host")
            if v in seen:
                raise ModelInvalid(f"branch sets overlap at {v}")
            seen.add(v)
    for bs, tree in zip(m.branch_sets, m.branch_trees):
        if len(tree) != len(bs) - 1:
            raise ModelInvalid("branch tree is not a spanning tree (edge count)")
        sets = {v: {v} for v in bs}
        for u, v in tree:
            if not host.has_edge(u, v):
                raise ModelInvalid(f"tree edge {(u, v)} not in host")
            if u not in sets or v not in sets:
                raise ModelInvalid("tree edge leaves its branch set")
            if sets[u] is sets[v]:
                raise ModelInvalid("branch tree contains a cycle")
            merged = sets[u] | sets[v]
            for w in merged:
                sets[w] = merged
        if bs and len(sets[bs[0]]) != len(bs):
            raise ModelInvalid("branch tree does not span its branch set")
    used_edges: set[Edge] = set()
    for pi, (hu, hv) in enumerate(m.edge_map):
        e = norm_edge(hu, hv)
        if not host.has_edge(*e):
            raise ModelInvalid(f"mapped edge {e} not in host")
        if e in used_edges:
            raise ModelInvalid(f"host edge {e} mapped twice")
        used_edges.add(e)
        pu, pv = pattern.edges[pi]
        su, sv = set(m.branch_sets[pu]), set(m.branch_sets[pv])
        if not (
            (e[0] in su and e[1] in sv) or (e[0] in sv and e[1] in su)
        ):
            raise ModelInvalid(f"mapped edge {e} does not join its branch sets")


def _bfs_tree(host: Graph, vertices: tuple[int, ...]) -> tuple[Edge, ...]:
    """Deterministic BFS spanning tree of the induced subgraph, rooted at min."""
    vs = set(vertices)
    root = min(vertices)
    seen = {root}
    frontier = [root]
    tree: list[Edge] = []
    while frontier:
        v = frontier.pop(0)
        for u in host.neighbors(v):
            if u in vs and u not in seen:
                seen.add(u)
                tree.append(norm_edge(v, u))
                frontier.append(u)
    return tuple(tree)


def _grow_from_seed(
    adj: tuple[int, ...], seed: int, allowed: int, max_size: int
) -> Iterator[int]:
    """Connected subsets of `allowed` containing `seed`, each exactly once."""

    def grow(subset: int, ext: int, banned: int) -> Iterator[int]:
        yield subset
        if subset.bit_count() >= max_size:
            return
        e = ext
        taken = 0
        while e:
            lsb = e & -e
            v = lsb.bit_length() - 1
            e ^= lsb
            new_ext = (ext | (adj[v] & allowed)) & ~(subset | lsb) & ~banned & ~taken
            yield from grow(subset | lsb, new_ext, banned | taken)
            taken |= lsb

    yield from grow(1 << seed, adj[seed] & allowed & ~(1 << seed), 0)


def _connected_subsets(
    adj: tuple[int, ...], avail: int, max_size: int, anchors: int | None = None
) -> Iterator[int]:
    """Connected vertex subsets of the available mask, each exactly once.

    When `anchors` is given, only subsets meeting it are produced (grouped
    by their smallest contained anchor); otherwise all connected subsets,
    grouped by minimum vertex.
    """
    n = len(adj)
    seeds = avail if anchors is None else (anchors & avail)
    s_mask = seeds
    while s_mask:
        lsb = s_mask & -s_mask
        s = lsb.bit_length() - 1
        s_mask ^= lsb
        if anchors is None:
            allowed = avail & ~((1 << s) - 1)
        else:
            # exclude smaller anchors so each subset appears once
            allowed = avail & ~(seeds & ((1 << s) - 1))
        yield from _grow_from_seed(adj, s, allowed, max_size)


@lru_cache(maxsize=256)
def _pattern_group(pattern: Graph) -> tuple[tuple[int, ...], ...]:
    """Full automorphism group of a small pattern (closure of generators)."""
    from .canon import automorphism_generators

    gens = automorphism_generators(pattern)
    ident = tuple(range(pattern.n))
    group = {ident}
    frontier = [ident]
    while frontier:
        f = frontier.pop()
        for g in gens:
            h = tuple(g[f[i]] for i in range(pattern.n))
            if h not in group:
                group.add(h)
                frontier.append(h)
                if len(group) > 100_000:
                    return (ident,)  # too large to quotient; fall back
    return tuple(sorted(group))


def _components(adj: tuple[int, ...], avail: int) -> list[int]:
    """Vertex masks of the connected components of the subgraph on `avail`."""
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


def _separation_pieces(g: Graph) -> list[Graph] | None:
    """Pieces of the first separation of order <= 2 of g, or None if none.

    Tried in order: the components of g; the sides G[C + v] of a cut vertex
    v, one per component C of G - v; the sides G[C + {x, y}] of a 2-cut
    x < y, each with the virtual edge xy added.  So g is 3-connected exactly
    when it has at least 4 vertices and this returns None.
    """
    full = (1 << g.n) - 1
    singles = [1 << v for v in range(g.n)]
    pairs = [a | b for a, b in itertools.combinations(singles, 2)]
    for cut in [0, *singles, *pairs]:
        comps = _components(g.adj, full & ~cut)
        if len(comps) < 2:
            continue
        pieces = []
        for comp in comps:
            vs = [v for v in range(g.n) if ((comp | cut) >> v) & 1]
            piece = g.induced_subgraph(vs)
            if cut.bit_count() == 2:
                x, y = (vs.index(v) for v in range(g.n) if (cut >> v) & 1)
                if not piece.has_edge(x, y):
                    piece = piece.add_edge(x, y)
            pieces.append(piece)
        return pieces
    return None


def _absent_by_separation(host: Graph, pattern: Graph, limits: Limits) -> bool:
    """True when pattern is proved not to be a minor of host on smaller graphs.

    A 3-connected minor of a graph is a minor of one of its components, of
    one side of a cut vertex, or of one side of a 2-cut {x, y} with the
    virtual edge xy added (Diestel, Graph Theory, ch. 12; Oxley, Matroid
    Theory, on 2-sums).  Pieces are tested through `is_minor`, so they are
    split again in turn.
    """
    if pattern.n < 4 or _separation_pieces(pattern) is not None:
        return False
    pieces = _separation_pieces(host)
    return pieces is not None and all(
        is_minor(pattern, piece, limits) is None for piece in pieces
    )


def enumerate_minor_models(
    host: Graph,
    pattern: Graph,
    limits: Limits = DEFAULT_LIMITS,
    first_only: bool = False,
) -> Iterator[MinorModel]:
    """Every model of pattern inside host, in backtracking order.

    A 3-connected pattern that is no minor of any piece of a separation of
    order <= 2 of host yields nothing at once; otherwise the backtracking
    search below runs on the whole host.
    """
    if host.n > limits.max_vertices or pattern.n > limits.max_vertices:
        raise SizeExceeded("graph exceeds vertex bound")
    if pattern.n > host.n or pattern.m > host.m or pattern.n == 0:
        return
    if _absent_by_separation(host, pattern, limits):
        return
    yield from _backtrack_models(host, pattern, first_only)


def _backtrack_models(
    host: Graph, pattern: Graph, first_only: bool = False
) -> Iterator[MinorModel]:
    """Backtracking enumeration of models of pattern inside host.

    Pattern vertices are placed in decreasing-degree order; branch sets are
    connected subsets constrained by adjacency to already-placed neighbours
    and by the vertex/edge budgets.  Models differing only by a pattern
    automorphism are emitted once (lex-leader pruning); all edge-map choices
    are emitted, since distinct mapped edges lift cycles differently.
    """
    # most-constrained-next static order: maximize placed neighbours, then degree
    order: list[int] = []
    remaining = set(range(pattern.n))
    while remaining:
        nxt = max(
            remaining,
            key=lambda p: (
                sum(1 for q in order if (pattern.adj[p] >> q) & 1),
                pattern.degree(p),
                -p,
            ),
        )
        order.append(nxt)
        remaining.discard(nxt)
    n = pattern.n
    padj = pattern.adj
    hadj = host.adj
    extra_v = host.n - n
    extra_e = host.m - pattern.m
    pos = [0] * n  # pattern vertex -> depth at which it is placed
    for d, p in enumerate(order):
        pos[p] = d
    # the placed set at depth i is order[:i], so per-depth tables are static:
    # the depths of placed neighbours in ascending pattern-vertex order
    # (reqs[i][0] picks the anchors), the edges owed to still-unplaced
    # neighbours, and the (depth, count) pairs of placed vertices that still
    # need that many edges into the pool left after depth i
    reqs = [
        [pos[q] for q in range(n) if (padj[p] >> q) & 1 and pos[q] < i]
        for i, p in enumerate(order)
    ]
    degs = [pattern.degree(p) for p in order]
    futures = [degs[i] - len(reqs[i]) for i in range(n)]
    pendings = []
    for i in range(n):
        later = sum(1 << p for p in order[i + 1:])
        owed = [(d, (padj[order[d]] & later).bit_count()) for d in range(i)]
        pendings.append([(d, c) for d, c in owed if c])
    # Lex-leader pruning: a model is kept only if no automorphism sigma maps
    # it to a lexicographically smaller one, comparing the branch set at
    # depth pos[sigma[order[j]]] with the one at depth j for j = 0, 1, ...
    # Branch sets are disjoint and nonempty, so the first j that sigma moves
    # decides the comparison.  That one comparison, (k, j), is made as soon
    # as both sets are placed, at depth max(j, k); sigmas sharing it share
    # the check.  When the pattern is complete every permutation is an
    # automorphism, and the checks reduce to ascending masks.
    checks: list[set[tuple[int, int]]] = [set() for _ in range(n)]
    if pattern.m == n * (n - 1) // 2:
        for i in range(1, n):
            checks[i].add((i, i - 1))
    else:
        for sigma in _pattern_group(pattern):
            for j, p in enumerate(order):
                k = pos[sigma[p]]
                if k != j:
                    checks[max(j, k)].add((k, j))
                    break

    branch = [0] * n  # depth -> host mask of the branch set placed there

    def place(i: int, used: int, spent_v: int, spent_e: int) -> Iterator[list[int]]:
        if i == n:
            yield branch
            return
        avail = ~used & ((1 << host.n) - 1)
        if avail.bit_count() < n - i:
            return
        deg_p = degs[i]
        req = [branch[d] for d in reqs[i]]
        req_union = 0
        for r in req:
            req_union |= r
        cap = 1 + min(extra_v - spent_v, extra_e - spent_e)
        future = futures[i]
        pending = [(branch[d], c) for d, c in pendings[i]]
        anchors = None
        if req:
            # branch set must touch the neighbourhood of a placed neighbour
            anchors = 0
            s = req[0]
            while s:
                lsb = s & -s
                anchors |= hadj[lsb.bit_length() - 1]
                s ^= lsb
            anchors &= avail
            if not anchors:
                return
        for sub in _connected_subsets(hadj, avail, cap, anchors):
            nbhd = 0
            boundary_edges = 0
            future_edges = 0
            rest = avail & ~sub
            targets = rest | req_union
            s = sub
            while s:
                lsb = s & -s
                a = hadj[lsb.bit_length() - 1]
                nbhd |= a
                boundary_edges += (a & targets).bit_count()
                future_edges += (a & rest).bit_count()
                s ^= lsb
            if boundary_edges < deg_p or future_edges < future:
                continue
            ok = True
            for r in req:
                if not nbhd & r:
                    ok = False
                    break
            if not ok:
                continue
            for qmask, c in pending:
                cnt = 0
                s = qmask
                while s and cnt < c:
                    lsb = s & -s
                    cnt += (hadj[lsb.bit_length() - 1] & rest).bit_count()
                    s ^= lsb
                if cnt < c:
                    ok = False
                    break
            if not ok:
                continue
            branch[i] = sub
            for k, j in checks[i]:
                if branch[k] < branch[j]:
                    break  # an automorphism maps the model to a smaller one
            else:
                size = sub.bit_count()
                yield from place(i + 1, used | sub, spent_v + size - 1, spent_e + size - 1)

    for placed in place(0, 0, 0, 0):
        assignment = [placed[pos[p]] for p in range(n)]
        sets = tuple(
            tuple(v for v in range(host.n) if (assignment[p] >> v) & 1)
            for p in range(n)
        )
        trees = tuple(_bfs_tree(host, bs) for bs in sets)
        choices: list[list[Edge]] = []
        ok = True
        for pu, pv in pattern.edges:
            su, sv = assignment[pu], assignment[pv]
            cands = [
                e
                for e in host.edges
                if ((su >> e[0]) & 1 and (sv >> e[1]) & 1)
                or ((sv >> e[0]) & 1 and (su >> e[1]) & 1)
            ]
            if not cands:
                ok = False
                break
            choices.append(cands)
        if not ok:
            continue
        if first_only:
            combos: Iterator = iter([tuple(c[0] for c in choices)])
        else:
            combos = itertools.product(*choices)
        for emap in combos:
            model = MinorModel(host, pattern, sets, trees, tuple(emap))
            yield model
            if first_only:
                return


def is_minor(h: Graph, g: Graph, limits: Limits = DEFAULT_LIMITS) -> MinorModel | None:
    """Witness model when h <= g, else None."""
    for model in enumerate_minor_models(g, h, limits=limits, first_only=True):
        return model
    return None
