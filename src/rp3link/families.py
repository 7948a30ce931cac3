"""Graph families and catalogs: delta-wye closures, gluings, and counts.

Builds the Petersen family from K6, the marked triangle-free gluing family
from K6-with-a-deleted-triangle, and the connectivity-0/1/2 catalogs whose
class counts reconcile to 21 / 91 / 469 (plus the 13 three-connected
delta-wye graphs and three sporadic members, reported as 594 vs 597).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .canon import (
    OrbitTable,
    canonical_form,
    canonical_form_marked,
    orbits,
)
from .errors import (
    BadVertices,
    NotATriangle,
    NotDegree3,
    WouldCreateParallel,
)
from .graphs import Edge, Graph, MarkedGraph, norm_edge
from .io_formats import graph_to_g6
from .minors import is_minor


def delta_y(g: Graph, triangle: tuple[int, int, int]) -> Graph:
    """Replace a triangle by a new degree-3 vertex joined to its corners."""
    a, b, c = triangle
    for u, v in itertools.combinations((a, b, c), 2):
        if not g.has_edge(u, v):
            raise NotATriangle(f"vertices {triangle} do not span a triangle")
    edges = [e for e in g.edges if not (set(e) <= {a, b, c})]
    edges.extend((v, g.n) for v in (a, b, c))
    return Graph.from_edges(g.n + 1, edges)


def y_delta(g: Graph, v: int) -> Graph:
    """Inverse exchange: remove a degree-3 vertex, join its neighbours."""
    if g.degree(v) != 3:
        raise NotDegree3(f"vertex {v} has degree {g.degree(v)}, need 3")
    nb = g.neighbors(v)
    for a, b in itertools.combinations(nb, 2):
        if g.has_edge(a, b):
            raise WouldCreateParallel(
                f"neighbours {a},{b} of {v} already adjacent"
            )
    out = g
    for a, b in itertools.combinations(nb, 2):
        out = out.add_edge(a, b)
    return out.delete_vertex(v)


# -- Petersen family ----------------------------------------------------------

PETERSEN_NAMES = ("K6", "K331", "P7", "K44-e", "P8", "P9", "Petersen")
_K44_MINUS_E = Graph.complete_bipartite(4, 4).delete_edge(0, 4)


@dataclass(frozen=True)
class PetersenFamily:
    """The seven exchange-closure classes of K6, keyed by conventional names.

    `projective_planar` lists the six members admitting an embedding into
    the projective plane (every member except K44-e).
    """

    members: dict[str, Graph]

    @property
    def projective_planar(self) -> dict[str, Graph]:
        return {k: v for k, v in self.members.items() if k != "K44-e"}


def _exchange_closure(start: Graph) -> list[Graph]:
    seen: dict[bytes, Graph] = {canonical_form(start): start}
    frontier = [start]
    while frontier:
        g = frontier.pop()
        nxt: list[Graph] = []
        for tri in g.triangles():
            nxt.append(delta_y(g, tri))
        for v in range(g.n):
            if g.degree(v) == 3:
                nb = g.neighbors(v)
                if not any(g.has_edge(a, b) for a, b in itertools.combinations(nb, 2)):
                    nxt.append(y_delta(g, v))
        for h in nxt:
            code = canonical_form(h)
            if code not in seen:
                seen[code] = h
                frontier.append(h)
    return list(seen.values())


@lru_cache(maxsize=1)
def petersen_family() -> PetersenFamily:
    """Exchange closure of K6: exactly seven isomorphism classes."""
    classes = _exchange_closure(Graph.complete(6))
    named: dict[str, Graph] = {}
    for g in classes:
        degs = g.degree_sequence()
        if g.n == 6:
            named["K6"] = g
        elif g.n == 7:
            named["K331" if max(degs) == 6 else "P7"] = g
        elif g.n == 8:
            if canonical_form(g) == canonical_form(_K44_MINUS_E):
                named["K44-e"] = g
            else:
                named["P8"] = g
        elif g.n == 9:
            named["P9"] = g
        elif g.n == 10:
            named["Petersen"] = g
    ordered = {name: named[name] for name in PETERSEN_NAMES if name in named}
    return PetersenFamily(ordered)


# -- gluing operations --------------------------------------------------------


def glue_vertex(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """Union along a single identified vertex."""
    if not (0 <= v1 < g1.n and 0 <= v2 < g2.n):
        raise BadVertices(f"bad gluing vertices {v1}, {v2}")
    relabel = {v2: v1}
    nxt = g1.n
    for w in range(g2.n):
        if w != v2:
            relabel[w] = nxt
            nxt += 1
    edges = list(g1.edges) + [norm_edge(relabel[a], relabel[b]) for a, b in g2.edges]
    return Graph.from_edges(g1.n + g2.n - 1, edges)


def glue_pair(
    g1: Graph,
    pair1: tuple[int, int],
    g2: Graph,
    pair2: tuple[int, int],
    orientation: int = 0,
) -> Graph:
    """Union along two identified vertices, deleting any edge between them.

    orientation 0 matches pair1[0] with pair2[0]; orientation 1 swaps.
    """
    x1, x2 = pair1
    y1, y2 = pair2
    if x1 == x2 or y1 == y2:
        raise BadVertices("gluing pair must name two distinct vertices")
    if orientation not in (0, 1):
        raise BadVertices(f"orientation must be 0 or 1, got {orientation}")
    if orientation:
        y1, y2 = y2, y1
    relabel = {y1: x1, y2: x2}
    nxt = g1.n
    for w in range(g2.n):
        if w not in (y1, y2):
            relabel[w] = nxt
            nxt += 1
    merged: set[Edge] = set(g1.edges)
    merged.update(norm_edge(relabel[a], relabel[b]) for a, b in g2.edges)
    merged.discard(norm_edge(x1, x2))
    return Graph.from_edges(g1.n + g2.n - 2, sorted(merged))


def glue_therefore(
    m1: MarkedGraph, m2: MarkedGraph, matching: tuple[int, int, int] = (0, 1, 2)
) -> Graph:
    """Union along the marked triples; matching[i] pairs m1.marks[i] with
    m2.marks[matching[i]]."""
    if sorted(matching) != [0, 1, 2]:
        raise BadVertices(f"matching must permute (0,1,2), got {matching}")
    g1, g2 = m1.graph, m2.graph
    relabel = {m2.marks[matching[i]]: m1.marks[i] for i in range(3)}
    nxt = g1.n
    for w in range(g2.n):
        if w not in relabel:
            relabel[w] = nxt
            nxt += 1
    edges = set(g1.edges)
    edges.update(norm_edge(relabel[a], relabel[b]) for a, b in g2.edges)
    return Graph.from_edges(g1.n + g2.n - 3, sorted(edges))


def gluing_count(vfn1: int, vfn2: int) -> int:
    """Distinct two-point gluings for a pair of pair classes."""
    return vfn1 * vfn2 + 1


# -- catalogs -----------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    code_g6: str
    connectivity_class: str
    provenance: tuple


@dataclass
class CatalogReport:
    connectivity_class: str
    formula_count: int
    entries: list[CatalogEntry]
    findings: list[str] = field(default_factory=list)

    @property
    def distinct_count(self) -> int:
        return len({e.code_g6 for e in self.entries})


def _canon_g6(g: Graph) -> str:
    from .canon import canonical_graph

    return graph_to_g6(canonical_graph(g))


def build_catalog(k: int) -> CatalogReport:
    """Connectivity-k catalog over the six projective-planar members.

    k=0: disjoint unions of member pairs (multisets).  k=1: gluings of
    (member, vertex-orbit) items at a vertex.  k=2: gluings of (member,
    pair-orbit) items at two vertices with the joining edge deleted; a pair
    of classes admits vfn1*vfn2+1 distinct gluings.
    """
    members = list(petersen_family().projective_planar.items())
    tables: dict[str, OrbitTable] = {name: orbits(g) for name, g in members}
    entries: list[CatalogEntry] = []
    findings: list[str] = []

    if k == 0:
        items = [(name, g) for name, g in members]
        formula = len(items) * (len(items) + 1) // 2
        for (n1, g1), (n2, g2) in itertools.combinations_with_replacement(items, 2):
            entries.append(
                CatalogEntry(_canon_g6(g1.disjoint_union(g2)), "0", (n1, n2))
            )
    elif k == 1:
        items = [
            (name, g, orb[0])
            for name, g in members
            for orb in tables[name].vertex_orbits
        ]
        formula = len(items) * (len(items) + 1) // 2
        for (n1, g1, v1), (n2, g2, v2) in itertools.combinations_with_replacement(
            items, 2
        ):
            entries.append(
                CatalogEntry(
                    _canon_g6(glue_vertex(g1, v1, g2, v2)), "1", (n1, v1, n2, v2)
                )
            )
    elif k == 2:
        items = [
            (name, g, orb[0], tables[name].vfn[i])
            for name, g in members
            for i, orb in enumerate(tables[name].pair_orbits)
        ]
        formula = sum(
            gluing_count(a[3], b[3])
            for a, b in itertools.combinations_with_replacement(items, 2)
        )
        for a, b in itertools.combinations_with_replacement(items, 2):
            n1, g1, p1, f1 = a
            n2, g2, p2, f2 = b
            for orientation in range(gluing_count(f1, f2)):
                entries.append(
                    CatalogEntry(
                        _canon_g6(glue_pair(g1, p1, g2, p2, orientation)),
                        "2",
                        (n1, p1, n2, p2, orientation),
                    )
                )
    else:
        raise ValueError(f"k must be 0, 1, or 2, got {k}")

    report = CatalogReport(str(k), formula, entries, findings)
    if report.distinct_count != formula:
        findings.append(
            f"k={k}: formula count {formula} but {report.distinct_count} distinct graphs"
        )
    return report


# -- marked delta-wye family --------------------------------------------------

THEREFORE_NAMES = ("K6t", "P7At", "P7Bt", "P8Bt", "P9Bt")


def k6_therefore() -> MarkedGraph:
    """K6 with one triangle deleted; the three ex-triangle vertices marked."""
    g = Graph.complete(6)
    for u, v in itertools.combinations((0, 1, 2), 2):
        g = g.delete_edge(u, v)
    return MarkedGraph(g, (0, 1, 2))


def _marked_delta_y(m: MarkedGraph, triangle: tuple[int, int, int]) -> MarkedGraph:
    return MarkedGraph(delta_y(m.graph, triangle), m.marks)


def _marked_closure(start: MarkedGraph) -> list[MarkedGraph]:
    seen: dict[bytes, MarkedGraph] = {canonical_form_marked(start): start}
    frontier = [start]
    while frontier:
        m = frontier.pop()
        for tri in m.graph.triangles():
            h = _marked_delta_y(m, tri)
            code = canonical_form_marked(h)
            if code not in seen:
                seen[code] = h
                frontier.append(h)
    return list(seen.values())


def _mark_bijection_gluings(m1: MarkedGraph, m2: MarkedGraph) -> list[Graph]:
    """Distinct gluings over all six mark matchings."""
    out: dict[bytes, Graph] = {}
    for matching in itertools.permutations((0, 1, 2)):
        g = glue_therefore(m1, m2, matching)
        out.setdefault(canonical_form(g), g)
    return [out[c] for c in sorted(out)]


@dataclass
class ThereforeFamily:
    members: dict[str, MarkedGraph]
    gluings: list[tuple[str, str, int, Graph]]  # (name1, name2, variant, graph)
    with_k44e_minor: list[tuple[str, str, int]]
    minimal_candidates: list[tuple[str, str, int, Graph]]


@lru_cache(maxsize=1)
def therefore_family() -> ThereforeFamily:
    """Delta-wye closure of the marked K6 and all mark-matched gluings.

    Expected shape: 5 marked classes, 18 gluing classes, of which the 5
    involving the bipartite 7-vertex member contain K44-e as a minor,
    leaving 13 minor-minimal candidates.
    """
    classes = _marked_closure(k6_therefore())
    named: dict[str, MarkedGraph] = {}
    for m in classes:
        n = m.graph.n
        if n == 6:
            named["K6t"] = m
        elif n == 7:
            # the triangle-free member is the one whose gluings acquire
            # K44-e minors
            named["P7At" if not m.graph.triangles() else "P7Bt"] = m
        elif n == 8:
            named["P8Bt"] = m
        elif n == 9:
            named["P9Bt"] = m
    members = {name: named[name] for name in THEREFORE_NAMES if name in named}

    gluings: list[tuple[str, str, int, Graph]] = []
    seen: set[bytes] = set()
    names = list(members)
    for i, n1 in enumerate(names):
        for n2 in names[i:]:
            variants = _mark_bijection_gluings(members[n1], members[n2])
            for idx, g in enumerate(variants):
                code = canonical_form(g)
                if code not in seen:
                    seen.add(code)
                    gluings.append((n1, n2, idx + 1, g))

    with_minor = []
    minimal = []
    for n1, n2, idx, g in gluings:
        if is_minor(_K44_MINUS_E, g) is not None:
            with_minor.append((n1, n2, idx))
        else:
            minimal.append((n1, n2, idx, g))
    return ThereforeFamily(members, gluings, with_minor, minimal)


# -- grand totals --------------------------------------------------------------

SPORADIC_NAMES = ("K44-e", "K7-2adj", "K7-2nonadj")


def sporadic_graphs() -> dict[str, Graph]:
    k7 = Graph.complete(7)
    return {
        "K44-e": _K44_MINUS_E,
        "K7-2adj": k7.delete_edge(4, 6).delete_edge(5, 6),
        "K7-2nonadj": k7.delete_edge(3, 4).delete_edge(5, 6),
    }


def grand_total() -> dict:
    """Reconciliation of the catalog totals; reports both readings.

    The low-connectivity catalogs plus the 13 delta-wye graphs sum to 594;
    adding the three sporadic graphs certified separately gives 597.  Both
    totals are emitted, never silently merged.
    """
    k0, k1, k2 = (build_catalog(k) for k in (0, 1, 2))
    therefore = therefore_family()
    counts = {
        "k0": k0.formula_count,
        "k1": k1.formula_count,
        "k2": k2.formula_count,
        "deltawye": len(therefore.minimal_candidates),
    }
    distinct = {
        "k0": k0.distinct_count,
        "k1": k1.distinct_count,
        "k2": k2.distinct_count,
    }
    total = sum(counts.values())
    return {
        "counts": counts,
        "distinct_counts": distinct,
        "sporadic": list(SPORADIC_NAMES),
        "total_without_sporadic": total,
        "total_with_sporadic": total + len(SPORADIC_NAMES),
        "findings": k0.findings + k1.findings + k2.findings,
    }
