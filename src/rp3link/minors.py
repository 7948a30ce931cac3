"""Minor containment: branch-set models, validation, and enumeration.

A model witnesses pattern <= host through disjoint connected branch sets
(one per pattern vertex), a BFS spanning tree inside each set, and one
host edge per pattern edge joining the two corresponding sets.  Extra
edges induced inside a branch set are treated as deleted.

Absence is proved on smaller graphs when the host separates.  Let S be a
separator of G with |S| <= 3, let K(S) add every missing edge between
vertices of S, and let H be a 3-connected minor of G.  If |S| <= 2, then H
is a minor of G[C + S] + K(S) for some component C of G - S.  If |S| = 3
and H is also internally 4-connected (each 3-separation of H splits off a
single vertex), the same holds once t new vertices, each adjacent to all of
S, are added to the piece, where t is the largest number of degree-3
vertices of H that share one neighbourhood: the branch sets that avoid S
lie in one component, except those of at most t degree-3 vertices whose
neighbours' sets meet S, and each of those moves onto a new vertex (the
proof is in `_absent_by_separation`).  t is 0 for a 4-connected H such as
K6 and K331, and 1 for P7, K44-e, P8, P9 and Petersen.  So a 3-connected
pattern is sought on the pieces of the host's first separation of order
<= 2, and an internally 4-connected one on those of order <= 3, with t new
vertices on each 3-cut piece.  A 3-cut that splits off a single vertex is
skipped: its pieces are K4 and the host's wye-delta, which is no minor of
the host.  So is a cut with a piece as large as the host, so the recursion
ends.  A pattern found on some piece is enumerated on the whole host, so
the models and their order do not depend on the shortcut.

The backtracking search looks ahead by edge count.  The pattern edges among
the vertices not yet placed join disjoint branch sets inside the pool of
free host vertices, each through its own host edge, so a branch set is only
formed while the pool it leaves holds at least that many host edges.  The
condition is necessary, so no subtree that holds a model is cut.

It also looks ahead along chains of lex-leader checks.  Each check (k, j)
asks that the branch set at depth k exceed the one at depth j, and k > j
(`_search_plan`).  Disjoint nonempty sets compare as their highest
vertices, so a check is an order on highest vertices.  After depth i, take
a placed depth j and the depths k > i reached from j by a chain of checks
whose depths after j are all after i.  Each such branch set lies in the
pool left after depth i, and its highest vertex lies above that of
branch[j] by transitivity along the chain; the sets are disjoint, so these
vertices are distinct.  Hence the pool must hold at least that many
vertices above the highest vertex of branch[j], and a candidate at depth i
is kept only if the pool it leaves does.  For j = i this is a ceiling: the
set at depth i avoids the highest vertices of the pool that the sets above
it need.  Leaving those vertices out of the ones a set may grow through
drops exactly the subsets that hold one, and keeps the relative order of
the rest.  The conditions are necessary, so no model is lost, and the
models and their order do not change.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .config import DEFAULT_LIMITS, Limits
from .errors import ModelInvalid, SizeExceeded
from .graphs import Edge, Graph, component_masks, norm_edge


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


def _cuts(g: Graph, order: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Each vertex set S with |S| <= order whose removal disconnects g, with
    the component masks of g - S; by size, then in lexicographic order."""
    full = (1 << g.n) - 1
    for size in range(order + 1):
        for cut in itertools.combinations(range(g.n), size):
            comps = component_masks(g.adj, full & ~sum(1 << v for v in cut))
            if len(comps) > 1:
                yield cut, comps


def _separation_pieces(g: Graph, order: int, wyes: int) -> list[Graph] | None:
    """Pieces of the first separation of order <= `order` of g, or None.

    Cuts S are tried by size: the empty cut (the components of g), each cut
    vertex, each pair x < y, then each triple.  The pieces are G[C + S] plus
    every missing edge between vertices of S, one per component C of G - S;
    for a 2-cut that is the virtual edge xy.  A 3-cut piece also gets `wyes`
    new vertices, each adjacent to all of S.  A 3-cut that leaves a single
    vertex as a component is skipped: its pieces would be K4 and the
    wye-delta of g, which is no minor of g, hardly smaller, and often holds
    the pattern.  So is a cut with a piece as large as g, so that the
    recursion through `is_minor` ends.
    """
    for cut, comps in _cuts(g, order):
        new = wyes if len(cut) == 3 else 0
        if len(cut) == 3 and any(comp & (comp - 1) == 0 for comp in comps):
            continue
        if max(comp.bit_count() for comp in comps) + len(cut) + new >= g.n:
            continue
        pieces = []
        for comp in comps:
            vs = [v for v in range(g.n) if (comp >> v) & 1 or v in cut]
            at = [vs.index(v) for v in cut]
            edges = set(g.induced_subgraph(vs).edges)
            edges.update(itertools.combinations(at, 2))
            edges.update((x, len(vs) + i) for i in range(new) for x in at)
            pieces.append(Graph(len(vs) + new, tuple(sorted(edges))))
        return pieces
    return None


@lru_cache(maxsize=256)
def _pattern_order(pattern: Graph) -> tuple[int, int] | None:
    """(order, wyes) of the host separations whose pieces must hold pattern,
    or None: (2, 0) for a 3-connected pattern (n >= 4, no separation of
    order <= 2), and (3, t) if it is also internally 4-connected, where t is
    the largest number of its degree-3 vertices that share one
    neighbourhood.  Internally 4-connected means that for each 3-cut X,
    however the components of pattern - X are split into two nonempty
    groups, one group is a single vertex: pattern - X is a single vertex and
    one other component, or three single vertices."""
    if pattern.n < 4:
        return None
    for cut, comps in _cuts(pattern, 3):
        if len(cut) < 3:
            return None
        sizes = sorted(comp.bit_count() for comp in comps)
        if sizes != [1, 1, 1] and (len(sizes) > 2 or sizes[0] > 1):
            return 2, 0
    shared = Counter(
        pattern.adj[v] for v in range(pattern.n) if pattern.degree(v) == 3
    )
    return 3, max(shared.values(), default=0)


def _absent_by_separation(host: Graph, pattern: Graph, limits: Limits) -> bool:
    """True when pattern is proved not to be a minor of host on smaller graphs.

    Let S separate host, let H be a 3-connected minor of host, and let K(S)
    add every missing edge between vertices of S.  At most |S| branch sets
    meet S; each of the others is connected, so it lies in one component of
    host - S.

    (a) If those others all lie in one component C, then H is a minor of
    G[C + S] + K(S).  Cut down to C + S, each branch set stays nonempty and
    connected and each pattern edge survives: paths and edges through other
    components run between vertices of S, which K(S) joins.  For |S| <= 2
    these are the block and 2-sum facts (Diestel, Graph Theory, ch. 12;
    Oxley, Matroid Theory, on 2-sums).

    (b) Otherwise no pattern edge joins branch sets in different components,
    so the sets meeting S separate H.  H is 3-connected, so |S| = 3, and
    three sets meet S, one vertex of S each; let X be their three pattern
    vertices.  Let H also be internally 4-connected (`_pattern_order`), and
    group the other pattern vertices by the component that holds their
    branch sets.  Each group is a union of components of H - X, so at most
    one group has more than one vertex: were two to have more, splitting
    one of them off from the rest would give a 3-separation of H that splits
    off no single vertex.  Let C hold that group, or any group if none does.
    Every other group is a single pattern vertex whose neighbours all lie in
    X, and 3-connectivity gives it degree 3: these vertices share one
    neighbourhood, so there are at most t of them, t being the largest
    number of degree-3 vertices of H that share one.  Give each of them its
    own new vertex adjacent to all of S, keep the sets in C, and cut the
    three sets meeting S down to C + S.  Each of those stays connected,
    since a path that leaves C + S returns to the set's one vertex of S, and
    each pattern edge survives: an edge from a set in C ends in C + S, one
    between two sets meeting S stays or is replaced by the edge of K(S)
    between their vertices of S, and one of a moved vertex goes to a vertex
    of S.  So H is a minor of G[C + S] + K(S) + t new vertices, each
    adjacent to all of S.

    A 4-connected H (n >= 5) has no 3-cut, so no degree-3 vertex and t = 0:
    K6 and K331 in the Petersen family, K5 and K222.  t is 1 for P7, K44-e,
    P8, P9 and Petersen, and 3 for K33.  So a 3-connected pattern is tested
    on the pieces of a separation of order <= 2, and an internally
    4-connected one on those of order <= 3, each 3-cut piece with t new
    vertices.  Pieces are tested through `is_minor`, so they are split again
    in turn; every piece is smaller than host (`_separation_pieces`), so
    the recursion ends.
    """
    kind = _pattern_order(pattern)
    if kind is None:
        return False
    pieces = _separation_pieces(host, *kind)
    return pieces is not None and all(
        is_minor(pattern, piece, limits) is None for piece in pieces
    )


def enumerate_minor_models(
    host: Graph,
    pattern: Graph,
    limits: Limits = DEFAULT_LIMITS,
) -> Iterator[MinorModel]:
    """Every model of pattern inside host, in backtracking order.

    A pattern that `_absent_by_separation` proves absent on the pieces of a
    separation of host yields nothing at once; otherwise the backtracking
    search below runs on the whole host.  The empty pattern has one model,
    with no branch sets.
    """
    if host.n > limits.max_vertices or pattern.n > limits.max_vertices:
        raise SizeExceeded("graph exceeds vertex bound")
    if pattern.n > host.n or pattern.m > host.m:
        return
    if _absent_by_separation(host, pattern, limits):
        return
    yield from _backtrack_models(host, pattern)


class _SearchPlan(NamedTuple):
    """The per-depth tables of the backtracking search for one pattern."""

    order: tuple[int, ...]       # depth -> pattern vertex placed there
    pos: tuple[int, ...]         # pattern vertex -> depth
    reqs: tuple[tuple[int, ...], ...]
    degs: tuple[int, ...]
    futures: tuple[int, ...]
    pendings: tuple[tuple[tuple[int, int], ...], ...]
    inners: tuple[int, ...]
    lowers: tuple[tuple[int, ...], ...]
    tops: tuple[int, ...]
    chains: tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=256)
def _search_plan(pattern: Graph) -> _SearchPlan:
    """The static tables of `_backtrack_models` for pattern.

    The placed set at depth i is order[:i], so every table is per depth:
    the depths of placed neighbours in ascending pattern-vertex order
    (reqs[i][0] picks the anchors), the pattern degree, the edges owed to
    still-unplaced neighbours, the (depth, count) pairs of placed vertices
    that still need that many edges into the pool left after depth i, and
    the pattern edges among the vertices placed after depth i, which need
    distinct host edges inside that pool.

    Lex-leader pruning: a model is kept only if no automorphism sigma maps
    it to a lexicographically smaller one, comparing the branch set at
    depth pos[sigma[order[j]]] with the one at depth j for j = 0, 1, ...
    Branch sets are disjoint and nonempty, so the first j that sigma moves
    decides the comparison.  That one comparison, (k, j), asks that the set
    at depth k lie above the one at depth j; sigmas sharing it share the
    check.  sigma fixes order[:j], so it maps order[j] to a later depth:
    k > j.  When the pattern is complete every permutation is an
    automorphism, and the checks reduce to ascending sets.  Disjoint sets
    compare as their highest vertices, so a check is made at depth k:
    lowers[k] are the depths j whose sets the one at depth k must exceed.
    tops[i] counts the depths after i that must lie above depth i, through
    chains of checks, and chains[i] holds (j, count) for each earlier depth
    j with count such depths after i, through chains of checks whose
    depths after j are all after i (see the module docstring).
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
    pos = [0] * n
    for d, p in enumerate(order):
        pos[p] = d
    reqs = [
        tuple(pos[q] for q in range(n) if (padj[p] >> q) & 1 and pos[q] < i)
        for i, p in enumerate(order)
    ]
    degs = [pattern.degree(p) for p in order]
    futures = [degs[i] - len(reqs[i]) for i in range(n)]
    pendings = []
    for i in range(n):
        later = sum(1 << p for p in order[i + 1:])
        owed = [(d, (padj[order[d]] & later).bit_count()) for d in range(i)]
        pendings.append(tuple((d, c) for d, c in owed if c))
    inners = [sum(futures[i + 1:]) for i in range(n)]
    checks: set[tuple[int, int]] = set()
    if pattern.m == n * (n - 1) // 2:
        checks = {(i, i - 1) for i in range(1, n)}
    else:
        for sigma in _pattern_group(pattern):
            for j, p in enumerate(order):
                k = pos[sigma[p]]
                if k != j:
                    checks.add((k, j))
                    break
    lowers: list[list[int]] = [[] for _ in range(n)]
    above: list[list[int]] = [[] for _ in range(n)]
    for k, j in sorted(checks):
        lowers[k].append(j)
        above[j].append(k)

    def chained(j: int, i: int) -> int:
        seen: set[int] = set()
        stack = [j]
        while stack:
            for k in above[stack.pop()]:
                if k > i and k not in seen:
                    seen.add(k)
                    stack.append(k)
        return len(seen)

    chains = []
    for i in range(n):
        counts = [(j, chained(j, i)) for j in range(i)]
        chains.append(tuple((j, c) for j, c in counts if c))
    return _SearchPlan(
        tuple(order), tuple(pos), tuple(reqs), tuple(degs), tuple(futures),
        tuple(pendings), tuple(inners), tuple(map(tuple, lowers)),
        tuple(chained(i, i) for i in range(n)), tuple(chains),
    )


def _backtrack_models(host: Graph, pattern: Graph) -> Iterator[MinorModel]:
    """Backtracking enumeration of models of pattern inside host.

    Pattern vertices are placed in the order of `_search_plan`; branch sets
    are connected subsets constrained by adjacency to already-placed
    neighbours and by the vertex/edge budgets.  Models differing only by a
    pattern automorphism are emitted once (lex-leader pruning); all
    edge-map choices are emitted, since distinct mapped edges lift cycles
    differently.

    Look-ahead: every pattern edge between two vertices placed after depth i
    needs a distinct host edge between their branch sets, which lie inside
    the pool left after depth i.  A candidate set at depth i is therefore
    grown and kept only while that pool holds at least as many host edges
    as the pattern has among order[i + 1:].  Removing vertices from the pool
    never adds edges to it, so a set that fails the count has no superset
    that passes, and its growth stops there without losing a model.  A
    candidate is also kept only while the pool leaves room for the lex-leader
    chains of `_search_plan` (see the module docstring).
    """
    order, pos, reqs, degs, futures, pendings, inners, lowers, tops, chains = (
        _search_plan(pattern)
    )
    n = pattern.n
    hadj = host.adj
    extra_v = host.n - n
    extra_e = host.m - pattern.m
    branch = [0] * n  # depth -> host mask of the branch set placed there

    def place(
        i: int, used: int, spent_v: int, spent_e: int, pool_e: int
    ) -> Iterator[list[int]]:
        if i == n:
            yield branch
            return
        avail = ~used & ((1 << host.n) - 1)
        if avail.bit_count() < n - i:
            return
        # the tops[i] sets that must lie above this one each need their own
        # highest vertex in the pool above it, so it avoids the tops[i]
        # highest vertices of the pool.  Leaving them out of `room` keeps
        # the relative order of the subsets that remain.
        room = avail
        for _ in range(tops[i]):
            room ^= 1 << (room.bit_length() - 1)
        # it must lie above every set of lowers[i]: it needs a vertex of `high`
        top = max([branch[j] for j in lowers[i]], default=0)
        high = room & ~((1 << top.bit_length()) - 1)
        if not high:
            return
        deg_p = degs[i]
        req = [branch[d] for d in reqs[i]]
        req_union = 0
        for r in req:
            req_union |= r
        cap = 1 + min(extra_v - spent_v, extra_e - spent_e)
        future = futures[i]
        inner = inners[i]
        pending = [(branch[d], c) for d, c in pendings[i]]
        chain = chains[i]
        if req:
            # branch set must touch the neighbourhood of a placed neighbour;
            # each subset is grown from its smallest such anchor
            seeds = 0
            s = req[0]
            while s:
                lsb = s & -s
                seeds |= hadj[lsb.bit_length() - 1]
                s ^= lsb
            seeds &= room
            if not seeds:
                return
        else:
            seeds = room
        found: list[tuple[int, int]] = []

        def grow(sub, size, ext, banned, allowed, nbhd, fut, bnd, left):
            # Connected subsets of `allowed` through `sub`, each exactly once:
            # sub itself, then each extension by a vertex of ext, banning the
            # vertices extended by earlier siblings.  fut counts the edges from
            # sub into the rest of the pool and bnd adds those into the placed
            # neighbours; a vertex v with adjacency a joining sub adds
            # |a & avail| - 2|a & sub| to both (its edges into sub stop
            # counting from either side) and |a & req_union| to bnd.  left
            # counts the edges inside the rest of the pool; v takes its
            # |a & avail| - |a & sub| edges into that rest away from it.  A
            # subset is kept when it has an edge for every pattern edge at
            # depth i, enough edges for the neighbours still to place, and
            # touches every placed neighbour.  Only subsets that leave at
            # least `inner` edges in the pool are formed: left only falls as
            # sub grows.  A subset that reaches the size cap without a vertex
            # of `high` would fail the lex-leader test, so it is not grown.
            if bnd >= deg_p and fut >= future:
                for r in req:
                    if not nbhd & r:
                        break
                else:
                    found.append((sub, left))
            if size >= cap:
                return
            banned_sub = sub | banned
            # banned only matters below the cap, so filtering e keeps it exact
            e = ext & high if size + 1 >= cap and not sub & high else ext
            while e:
                lsb = e & -e
                e ^= lsb
                a = hadj[lsb.bit_length() - 1]
                inside = (a & sub).bit_count()
                d = (a & avail).bit_count() - inside
                if left - d >= inner:
                    grow(
                        sub | lsb, size + 1,
                        (ext | (a & allowed)) & ~(banned_sub | lsb), banned,
                        allowed, nbhd | a, fut + d - inside,
                        bnd + d - inside + (a & req_union).bit_count(), left - d,
                    )
                banned |= lsb
                banned_sub |= lsb

        s = seeds & high if cap == 1 else seeds
        while s:
            lsb = s & -s
            s ^= lsb
            a = hadj[lsb.bit_length() - 1]
            # exclude smaller seeds so each subset appears once
            allowed = room & ~(seeds & (lsb - 1))
            d = (a & avail).bit_count()
            if pool_e - d >= inner:
                grow(lsb, 1, a & allowed & ~lsb, 0, allowed, a, d,
                     d + (a & req_union).bit_count(), pool_e - d)
        for sub, left in found:
            if not sub & high:
                continue  # an automorphism maps the model to a smaller one
            branch[i] = sub
            rest = avail & ~sub
            for j, c in chain:
                # the c sets that must lie above branch[j] each need their
                # own highest vertex in the pool above it
                if (rest >> branch[j].bit_length()).bit_count() < c:
                    break
            else:
                for qmask, c in pending:
                    cnt = 0
                    s = qmask
                    while s and cnt < c:
                        lsb = s & -s
                        cnt += (hadj[lsb.bit_length() - 1] & rest).bit_count()
                        s ^= lsb
                    if cnt < c:
                        break
                else:
                    size = sub.bit_count()
                    yield from place(
                        i + 1, used | sub, spent_v + size - 1, spent_e + size - 1, left
                    )

    # edge_at[u * hn + v] is the host's own tuple of edge uv (u < v), which
    # every model then shares
    hn = host.n
    edge_at: list[Edge | None] = [None] * (hn * hn)
    for e in host.edges:
        edge_at[e[0] * hn + e[1]] = e
    for placed in place(0, 0, 0, 0, host.m):
        masks = [placed[pos[p]] for p in range(n)]
        sets = []
        trees = []
        for mask in masks:
            # BFS spanning tree of the set from its smallest vertex, taking
            # neighbours in ascending order; the queue ends as the set
            queue = [(mask & -mask).bit_length() - 1]
            seen = mask & -mask
            tree = []
            for v in queue:
                new = hadj[v] & mask & ~seen
                seen |= new
                while new:
                    lsb = new & -new
                    new ^= lsb
                    u = lsb.bit_length() - 1
                    tree.append(edge_at[v * hn + u if v < u else u * hn + v])
                    queue.append(u)
            sets.append(tuple(sorted(queue)))
            trees.append(tuple(tree))
        # the host edges joining the two sets of each pattern edge, in
        # lexicographic order: by lower end, then by upper end
        choices = []
        for pu, pv in pattern.edges:
            su, sv = masks[pu], masks[pv]
            cands = []
            s = su | sv
            while s:
                lsb = s & -s
                s ^= lsb
                a = lsb.bit_length() - 1
                t = hadj[a] & (sv if su & lsb else su) & -(lsb << 1)
                while t:
                    low = t & -t
                    t ^= low
                    cands.append(edge_at[a * hn + low.bit_length() - 1])
            choices.append(cands)
        sets_t, trees_t = tuple(sets), tuple(trees)
        for emap in itertools.product(*choices):
            yield MinorModel(host, pattern, sets_t, trees_t, emap)


def is_minor(h: Graph, g: Graph, limits: Limits = DEFAULT_LIMITS) -> MinorModel | None:
    """Witness model when h <= g, else None."""
    return next(enumerate_minor_models(g, h, limits), None)
