from __future__ import annotations

import itertools
import random

import pytest

from rp3link import (
    Graph,
    build_catalog,
    canonical_form,
    delta_y,
    glue_pair,
    glue_therefore,
    glue_vertex,
    gluing_count,
    grand_total,
    is_minor,
    k6_therefore,
    orbits,
    petersen_family,
    sporadic_graphs,
    therefore_family,
    vertex_connectivity,
    y_delta,
)
from rp3link.errors import (
    BadVertices,
    NotATriangle,
    NotDegree3,
    WouldCreateParallel,
)

from conftest import random_graph


def test_delta_y_edge_count_invariant(k6):
    g = delta_y(k6, (0, 1, 2))
    assert g.n == 7 and g.m == k6.m
    assert g.degree(6) == 3


def test_delta_y_requires_triangle(k33):
    with pytest.raises(NotATriangle):
        delta_y(k33, (0, 1, 2))


def test_y_delta_guards(k6):
    g = delta_y(k6, (0, 1, 2))
    with pytest.raises(NotDegree3):
        y_delta(g, 3)
    # degree-3 vertex with two adjacent neighbours
    h = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    with pytest.raises(WouldCreateParallel):
        y_delta(h, 0)


def test_exchange_inverse_pair():
    rng = random.Random(12)
    done = 0
    while done < 10:
        g = random_graph(rng, 6, 0.6)
        tris = g.triangles()
        if not tris:
            continue
        t = tris[rng.randrange(len(tris))]
        h = delta_y(g, t)
        back = y_delta(h, h.n - 1)
        assert canonical_form(back) == canonical_form(g)
        done += 1


def test_delta_y_k6_is_the_degree3_member(k6):
    # one exchange on K6 yields the 7-vertex member with a degree-3 vertex
    # (the other 7-vertex member has minimum degree 4 and needs a reverse
    # exchange from an 8-vertex member to appear)
    fam = petersen_family()
    g = delta_y(k6, (0, 1, 2))
    assert canonical_form(g) == canonical_form(fam.members["P7"])
    assert canonical_form(g) != canonical_form(fam.members["K331"])


def test_family_has_seven_classes():
    fam = petersen_family()
    assert len(fam.members) == 7
    assert sorted(g.n for g in fam.members.values()) == [6, 7, 7, 8, 8, 9, 10]
    assert all(g.m == 15 for g in fam.members.values())
    assert len(fam.projective_planar) == 6
    assert "K44-e" not in fam.projective_planar


def test_family_member_identities(petersen_graph):
    fam = petersen_family()
    assert canonical_form(fam.members["K6"]) == canonical_form(Graph.complete(6))
    assert canonical_form(fam.members["K331"]) == canonical_form(
        Graph.complete_multipartite(3, 3, 1)
    )
    assert canonical_form(fam.members["K44-e"]) == canonical_form(
        Graph.complete_bipartite(4, 4).delete_edge(0, 4)
    )
    assert canonical_form(fam.members["Petersen"]) == canonical_form(petersen_graph)


def test_family_closed_under_exchanges():
    fam = petersen_family()
    codes = {canonical_form(g) for g in fam.members.values()}
    for g in fam.members.values():
        for tri in g.triangles():
            assert canonical_form(delta_y(g, tri)) in codes
        for v in range(g.n):
            if g.degree(v) == 3:
                nb = g.neighbors(v)
                if not any(
                    g.has_edge(a, b) for a, b in itertools.combinations(nb, 2)
                ):
                    assert canonical_form(y_delta(g, v)) in codes


def test_table_rows():
    fam = petersen_family()
    expected = {
        "K6": (1, 1, 0),
        "K331": (2, 3, 1),
        "P7": (3, 5, 3),
        "P8": (4, 10, 7),
        "P9": (2, 6, 2),
        "Petersen": (1, 2, 0),
    }
    for name, (vc, pc, v1) in expected.items():
        t = orbits(fam.members[name])
        assert (t.vertex_class_count, t.pair_class_count, t.vfn_one_count) == (
            vc,
            pc,
            v1,
        ), name


def test_glue_vertex_counts(k6):
    g = glue_vertex(k6, 0, k6, 0)
    assert g.n == 11 and g.m == 30
    assert vertex_connectivity(g)[0] == 1


def test_glue_pair_deletes_joining_edge(k6):
    g = glue_pair(k6, (0, 1), k6, (0, 1), 0)
    assert g.n == 10 and g.m == 28
    assert not g.has_edge(0, 1)
    assert vertex_connectivity(g)[0] == 2
    with pytest.raises(BadVertices):
        glue_pair(k6, (0, 0), k6, (0, 1), 0)


def test_glue_therefore_counts():
    t = k6_therefore()
    g = glue_therefore(t, t)
    assert g.n == 9 and g.m == 24
    assert vertex_connectivity(g)[0] == 3


def test_gluing_count_formula():
    assert gluing_count(0, 0) == 1
    assert gluing_count(1, 1) == 2
    assert gluing_count(0, 1) == 1
    assert gluing_count(1, 0) == 1


def test_catalog_counts():
    r0 = build_catalog(0)
    r1 = build_catalog(1)
    r2 = build_catalog(2)
    assert (r0.formula_count, r1.formula_count, r2.formula_count) == (21, 91, 469)
    assert r0.distinct_count == 21
    assert r1.distinct_count == 91
    assert r2.distinct_count == 469
    assert not (r0.findings or r1.findings or r2.findings)


def test_catalog_entry_connectivity():
    rng = random.Random(1)
    from rp3link.io_formats import g6_to_graph

    for k in (0, 1, 2):
        rep = build_catalog(k)
        sample = rng.sample(rep.entries, 12)
        for entry in sample:
            g = g6_to_graph(entry.code_g6)
            assert vertex_connectivity(g)[0] == k, entry


def test_pair_gluing_orientation_isomorphism():
    # vfn product 0: both orientations isomorphic; product 1: distinct
    fam = petersen_family()
    members = list(fam.projective_planar.items())
    rng = random.Random(3)
    checked_zero = checked_one = 0
    for name, g in members:
        t = orbits(g)
        for i, orb in enumerate(t.pair_orbits):
            pair = orb[0]
            a = glue_pair(g, pair, g, pair, 0)
            b = glue_pair(g, pair, g, pair, 1)
            same = canonical_form(a) == canonical_form(b)
            if t.vfn[i] == 0 and checked_zero < 6:
                assert same, (name, pair)
                checked_zero += 1
            elif t.vfn[i] == 1 and checked_one < 6:
                assert not same, (name, pair)
                checked_one += 1
    assert checked_zero and checked_one


def test_therefore_family_shape():
    tf = therefore_family()
    assert sorted(tf.members) == ["K6t", "P7At", "P7Bt", "P8Bt", "P9Bt"]
    assert {m.graph.n for m in tf.members.values()} == {6, 7, 8, 9}
    assert all(m.graph.m == 12 for m in tf.members.values())
    assert len(tf.gluings) == 18
    doubles = {
        (n1, n2)
        for n1, n2, idx, _ in tf.gluings
        if idx == 2
    }
    assert doubles == {("P7Bt", "P7Bt"), ("P7Bt", "P8Bt"), ("P8Bt", "P8Bt")}


def test_therefore_p7a_is_bipartite_member():
    tf = therefore_family()
    p7a = tf.members["P7At"].graph
    assert not p7a.triangles()
    assert canonical_form(p7a) == canonical_form(Graph.complete_bipartite(4, 3))


def test_therefore_k44e_subset_is_p7a_gluings(k44e):
    tf = therefore_family()
    assert len(tf.with_k44e_minor) == 5
    assert all("P7At" in (n1, n2) for n1, n2, _ in tf.with_k44e_minor)
    assert len(tf.minimal_candidates) == 13
    # spot-check one positive and one negative witness
    pos = next(g for n1, n2, i, g in tf.gluings if (n1, n2) == ("K6t", "P7At"))
    assert is_minor(k44e, pos) is not None
    neg = next(g for n1, n2, i, g in tf.gluings if (n1, n2) == ("K6t", "K6t"))
    assert is_minor(k44e, neg) is None


def test_grand_total_reports_both_readings():
    doc = grand_total()
    assert doc["counts"] == {"k0": 21, "k1": 91, "k2": 469, "deltawye": 13}
    assert doc["total_without_sporadic"] == 594
    assert doc["total_with_sporadic"] == 597
    assert len(doc["sporadic"]) == 3
    assert not doc["findings"]


def test_sporadic_graphs_exist():
    sp = sporadic_graphs()
    assert sp["K44-e"].m == 15
    assert sp["K7-2adj"].m == 19 and sp["K7-2nonadj"].m == 19
    assert canonical_form(sp["K7-2adj"]) != canonical_form(sp["K7-2nonadj"])
