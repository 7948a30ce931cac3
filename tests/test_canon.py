from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from rp3link import (
    Graph,
    automorphism_generators,
    canonical_form,
    canonical_graph,
    group_order,
    load_fixture,
    orbits,
)
from rp3link.canon import _search
from rp3link.config import Limits
from rp3link.errors import SizeExceeded

from conftest import brute_force_automorphisms, random_graph


def test_canonical_invariant_under_permutation():
    # spec-sized: 20 random graphs up to 12 vertices, 100 permutations each
    rng = random.Random(20240)
    for _ in range(20):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        code = canonical_form(g)
        for _ in range(100):
            p = list(range(n))
            rng.shuffle(p)
            assert canonical_form(g.relabel(p)) == code


def _brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or sorted(g.degree_sequence()) != sorted(h.degree_sequence()):
        return False
    hset = set(h.edges)
    for perm in itertools.permutations(range(g.n)):
        if all(
            ((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])) in hset
            for u, v in g.edges
        ) and g.m == h.m:
            return True
    return False


def test_k33_vs_prism_codes_differ(k33):
    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    # oracle: brute force over all 720 permutations
    assert not _brute_force_isomorphic(k33, prism)
    assert canonical_form(k33) != canonical_form(prism)


def test_canonical_codes_match_brute_force_iso():
    rng = random.Random(7)
    gs = [random_graph(rng, 6, 0.5) for _ in range(12)]
    for g, h in itertools.combinations(gs, 2):
        assert (canonical_form(g) == canonical_form(h)) == _brute_force_isomorphic(g, h)


def test_canonical_graph_is_isomorphic_relabeling(k33):
    cg = canonical_graph(k33)
    assert cg.n == k33.n and cg.m == k33.m
    assert canonical_form(cg) == canonical_form(k33)


def test_size_bound():
    g = Graph(25, ())
    with pytest.raises(SizeExceeded):
        canonical_form(g)
    assert canonical_form(g, limits=Limits(max_vertices=30)) is not None


def test_generators_generate_full_group_small():
    rng = random.Random(99)
    samples = [random_graph(rng, n, p) for n in (4, 5, 6, 7) for p in (0.3, 0.6)]
    for g in samples:
        gens = automorphism_generators(g)
        assert group_order(gens, g.n) == len(brute_force_automorphisms(g))


def test_orbits_match_brute_force():
    rng = random.Random(123)
    for _ in range(6):
        g = random_graph(rng, 6, 0.5)
        autos = brute_force_automorphisms(g)
        table = orbits(g)
        # vertex orbits under the full group
        seen = {}
        for v in range(g.n):
            orb = frozenset(a[v] for a in autos)
            seen[min(orb)] = orb
        expected_v = sorted(tuple(sorted(o)) for o in seen.values())
        assert sorted(table.vertex_orbits) == expected_v
        # pair orbits + vfn under the full group
        pair_orbs = {}
        for x, y in itertools.combinations(range(g.n), 2):
            orb = frozenset(
                (min(a[x], a[y]), max(a[x], a[y])) for a in autos
            )
            pair_orbs[min(orb)] = orb
        expected_p = sorted(tuple(sorted(o)) for o in pair_orbs.values())
        assert sorted(table.pair_orbits) == expected_p
        for i, orb in enumerate(table.pair_orbits):
            x, y = orb[0]
            swapped = any(a[x] == y and a[y] == x for a in autos)
            assert table.vfn[i] == (0 if swapped else 1)


def test_orbit_table_invariants(k6, petersen_graph):
    for g in (k6, petersen_graph):
        table = orbits(g)
        all_v = sorted(v for orb in table.vertex_orbits for v in orb)
        assert all_v == list(range(g.n))
        n_pairs = g.n * (g.n - 1) // 2
        assert sum(len(o) for o in table.pair_orbits) == n_pairs
        order = group_order(automorphism_generators(g), g.n)
        for orb in table.vertex_orbits:
            assert order % len(orb) == 0


def test_family_group_orders(k6, petersen_graph):
    assert group_order(automorphism_generators(k6), 6) == 720
    assert group_order(automorphism_generators(petersen_graph), 10) == 120


def test_vfn_zero_gluing_orientations_same_code(k6):
    # both orientations of a vfn=0 pair class produce identical codes
    from rp3link import glue_pair

    a = glue_pair(k6, (0, 1), k6, (0, 1), 0)
    b = glue_pair(k6, (0, 1), k6, (0, 1), 1)
    assert canonical_form(a) == canonical_form(b)
    assert _brute_force_isomorphic_small(a, b)


def _brute_force_isomorphic_small(g: Graph, h: Graph) -> bool:
    # permutation search with degree pruning; n <= 10
    if g.n != h.n or g.m != h.m:
        return False
    hset = set(h.edges)
    degs_g = [g.degree(v) for v in range(g.n)]
    degs_h = [h.degree(v) for v in range(h.n)]

    def extend(mapping, used):
        v = len(mapping)
        if v == g.n:
            return True
        for w in range(h.n):
            if w in used or degs_g[v] != degs_h[w]:
                continue
            ok = True
            for u in range(v):
                gu = g.has_edge(u, v)
                hu = (min(mapping[u], w), max(mapping[u], w)) in hset
                if gu != hu:
                    ok = False
                    break
            if ok:
                mapping.append(w)
                used.add(w)
                if extend(mapping, used):
                    return True
                mapping.pop()
                used.discard(w)
        return False

    return extend([], set())


# sha256 of repr(_search(adj, n, [0] * n)) per bundled fixture and for the
# edgeless 25-vertex graph; pinned before the pruning orbits were kept
# incrementally per search node
_SEARCH_SHA = {
    "k331": "8302fb01d6ce0848b9cf9debf0e3abab36bd3eb1d6f127aaf90678241e6dbbaa",
    "k44_minus_e": "fb1cac9adbcb7b9225a833db9880610f5ac3e430ac81e2394cf94295054295c4",
    "k6": "7cf2a24d0c4d6cc88c9e58785f46d93a2ae70ce45a6d106d96667facb62cc799",
    "k6_therefore": "c807e11d12d839472b65beef8d01eda9b5c0c0457a76735f22dc9255fbde02af",
    "k6_therefore_k6": "fcc5b3d51475c2c40809cc83a83f6fe3e7908f3c247b7cc2ec5741e6f6e2bcee",
    "k7_minus_two_adjacent": "4f7ae73702be2164b44be1cf848b46e6dad181f4b4594225061ba8d0dd69f157",
    "k7_minus_two_nonadjacent": "4479c1d89d70a0fb5452b2d2ca928ba91a6bf1104729ca0b553b9e1f84620476",
    "p7": "8e9a231a3c20e269a0b038850c660327c99d1a186988891e090943c15b71ac21",
    "p7a_therefore": "b3c18a9119f3ba2971720d14c507881c18f5a463dbdbd3550fba610f864a07b6",
    "p7b_therefore": "853b05690b86f0eb364bfaf35564569a0af8d17b40ea21b513cb0caab55cecd5",
    "p8": "4732f11d8524261f45e599e7e80348d0ed651d90e46157b406bcfcbea90f6ee6",
    "p8b_therefore": "6f7981f160e9f04d5b7a68eb57a3dc1eebdc066ae9725dd41bc6871c499c8932",
    "p9": "2f4aecd2f6309974218c019f38380baa42d370f0c0f14a216a40c38267c4bd04",
    "p9b_therefore": "8659d63398c6d0c09c3a941df18bd5c4d987a4e13fb47ec490b4874327949d0b",
    "p9b_therefore_p9b": "6b19197fd501970d470c392ca21e255eddce5177ed145efd08cb2c57bf5c2295",
    "petersen": "06c8fd98c6356a02894bc9bf88506f2ace46d95605c225440e4f58a751cab99b",
    "edgeless25": "956ebbeca27712178081b63e7353d3c9d763c6bb7d5f0ae9458293775106246b",
}


@pytest.mark.parametrize("name", sorted(_SEARCH_SHA))
def test_search_outputs_pinned(name):
    if name == "edgeless25":
        g = Graph(25, ())
    else:
        g = load_fixture(name)
        g = getattr(g, "graph", g)  # the marked gluing pieces
    out = _search(g.adj, g.n, [0] * g.n)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == _SEARCH_SHA[name]
