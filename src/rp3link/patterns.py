"""Homology-pattern trichotomy for assignments on K_{3,3}.

Any GF(2) functional on the cycle space of K_{3,3} falls into exactly one
of three classes, read off from its values on the nine 4-cycles: all zero;
the four cycles through one edge are the 1-homologous ones (4-pattern);
or the 1-homologous cycles are those missing two edges of a fixed perfect
matching (6-pattern).  The census over all 16 assignments is 1/9/6.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .canon import are_isomorphic
from .errors import NotK33
from .graphs import Edge, Graph
from .homology import HomologyAssignment, all_simple_cycles, evaluate


@dataclass(frozen=True)
class AllZero:
    pass


@dataclass(frozen=True)
class FourPattern:
    including_edge: Edge


@dataclass(frozen=True)
class SixPattern:
    excluding_edges: frozenset[Edge]


Pattern = AllZero | FourPattern | SixPattern

_K33 = Graph.complete_bipartite(3, 3)


def _four_cycles(g: Graph) -> list[int]:
    return [c for c in all_simple_cycles(g) if c.bit_count() == 4]


def _check_k33(g: Graph) -> None:
    if not (g.n == 6 and g.m == 9 and are_isomorphic(g, _K33)):
        raise NotK33("host is not isomorphic to K_{3,3}")


def _perfect_matchings(g: Graph) -> list[frozenset[Edge]]:
    out = []
    for combo in itertools.combinations(g.edges, 3):
        verts = {v for e in combo for v in e}
        if len(verts) == 6:
            out.append(frozenset(combo))
    return out


def classify_k33(phi: HomologyAssignment) -> Pattern:
    """The unique pattern matching phi; total on valid assignments."""
    g = phi.host
    _check_k33(g)
    fours = _four_cycles(g)
    ones = [c for c in fours if evaluate(phi, c)]
    if not ones:
        return AllZero()
    if len(ones) == 4:
        common = ones[0]
        for c in ones[1:]:
            common &= c
        for ei in range(g.m):
            if (common >> ei) & 1:
                e = g.edges[ei]
                if all(
                    evaluate(phi, c) == ((c >> ei) & 1) for c in fours
                ):
                    return FourPattern(e)
    if len(ones) == 6:
        for matching in _perfect_matchings(g):
            mmask = g.edge_mask(matching)
            if all(
                evaluate(phi, c) == (0 if (c & mmask).bit_count() >= 2 else 1)
                for c in fours
            ):
                return SixPattern(matching)
    raise NotK33(f"assignment does not fit the trichotomy: {len(ones)} one-cycles")


def four_cycle_count(phi: HomologyAssignment) -> int:
    """Number of 1-homologous 4-cycles: 0, 4, or 6."""
    g = phi.host
    _check_k33(g)
    return sum(evaluate(phi, c) for c in _four_cycles(g))


def k33_census() -> dict[str, int]:
    """Classify all 16 assignments on a labeled K_{3,3}."""
    counts = {"AllZero": 0, "FourPattern": 0, "SixPattern": 0}
    for v in range(16):
        p = classify_k33(HomologyAssignment(_K33, v))
        counts[type(p).__name__] += 1
    return counts
