from __future__ import annotations

import hashlib
import itertools
import math
import random

import pytest

from rp3link import (
    Graph,
    canonical_form,
    enumerate_minor_models,
    glue_pair,
    glue_vertex,
    is_minor,
    load_fixture,
    petersen_family,
    validate_model,
)
from rp3link.errors import ModelInvalid, SizeExceeded
from rp3link.minors import MinorModel, _backtrack_models, _pattern_group

from conftest import brute_force_automorphisms, random_graph


def test_k5_minor_of_k6(k6):
    model = is_minor(Graph.complete(5), k6)
    assert model is not None
    validate_model(model)


def test_petersen_not_minor_of_k6(k6, petersen_graph):
    assert is_minor(petersen_graph, k6) is None


def test_k5_minor_of_petersen(petersen_graph):
    model = is_minor(Graph.complete(5), petersen_graph)
    assert model is not None
    validate_model(model)
    assert is_minor(Graph.complete(6), petersen_graph) is None


def test_k7_2nonadj_contracts_onto_k6(k7_2nonadj, k6):
    model = is_minor(k6, k7_2nonadj)
    assert model is not None
    validate_model(model)
    assert any(len(bs) > 1 for bs in model.branch_sets)


def _all_minors_up_to_iso(g: Graph) -> set[bytes]:
    """Oracle: breadth-first closure under single delete/contract steps."""
    seen = {canonical_form(g): g}
    frontier = [g]
    while frontier:
        h = frontier.pop()
        nxt = []
        for e in h.edges:
            nxt.append(h.delete_edge(*e))
            nxt.append(h.contract_edge(*e))
        if h.n:
            nxt.extend(h.delete_vertex(v) for v in range(h.n))
        for x in nxt:
            c = canonical_form(x)
            if c not in seen:
                seen[c] = x
                frontier.append(x)
    return set(seen)


def test_is_minor_matches_exhaustive_oracle():
    rng = random.Random(31)
    host = random_graph(rng, 5, 0.7)
    minors = _all_minors_up_to_iso(host)
    for _ in range(25):
        h = random_graph(rng, rng.randint(1, 5), 0.6)
        found = is_minor(h, host) is not None
        assert found == (canonical_form(h) in minors), (h, host)


def test_minor_reflexive_transitive():
    rng = random.Random(8)
    for _ in range(8):
        g = random_graph(rng, 6, 0.5)
        assert is_minor(g, g) is not None
        if g.edges:
            h = g.delete_edge(*g.edges[0])
            assert is_minor(h, g) is not None
            if h.edges:
                f = h.contract_edge(*h.edges[-1])
                assert is_minor(f, h) is not None
                assert is_minor(f, g) is not None  # transitivity along the chain


def test_single_step_minors_detected():
    rng = random.Random(77)
    for _ in range(10):
        g = random_graph(rng, 6, 0.6)
        if not g.edges:
            continue
        e = g.edges[rng.randrange(g.m)]
        assert is_minor(g.delete_edge(*e), g) is not None
        assert is_minor(g.contract_edge(*e), g) is not None


def test_every_model_validates(k7_2nonadj, k6):
    count = 0
    for model in enumerate_minor_models(k7_2nonadj, k6):
        validate_model(model)
        count += 1
    assert count == 32


def test_validate_model_rejects_bad_models(k6):
    good = is_minor(Graph.complete(5), k6)
    bad = MinorModel(
        host=good.host,
        pattern=good.pattern,
        branch_sets=good.branch_sets[:-1] + ((0,),),  # overlaps another set
        branch_trees=good.branch_trees,
        edge_map=good.edge_map,
    )
    with pytest.raises(ModelInvalid):
        validate_model(bad)


def test_size_bound():
    with pytest.raises(SizeExceeded):
        is_minor(Graph.complete(3), Graph(25, ()))


def _low_connectivity_hosts(rng: random.Random, count: int):
    """Disjoint unions, 1-sums and 2-sums of two dense random graphs, with
    at most 9 vertices, randomly relabelled."""
    for i in range(count):
        shared = i % 3
        a = rng.randint(3, 6 + shared)
        b = rng.randint(3, 9 - a + shared)
        g1, g2 = random_graph(rng, a, 0.9), random_graph(rng, b, 0.9)
        if shared == 0:
            host = g1.disjoint_union(g2)
        elif shared == 1:
            host = glue_vertex(g1, rng.randrange(a), g2, rng.randrange(b))
        else:
            pair1 = tuple(rng.sample(range(a), 2))
            pair2 = tuple(rng.sample(range(b), 2))
            host = glue_pair(g1, pair1, g2, pair2, rng.randint(0, 1))
        perm = list(range(host.n))
        rng.shuffle(perm)
        yield host.relabel(perm)


def test_absence_shortcut_matches_backtracking():
    fam = petersen_family().members
    patterns = {
        "K4": Graph.complete(4),
        "K5": Graph.complete(5),
        "K33": Graph.complete_bipartite(3, 3),
        "K6": fam["K6"],
        "K331": fam["K331"],
        "P7": fam["P7"],
    }
    outcomes = {name: set() for name in patterns}
    for host in _low_connectivity_hosts(random.Random(5), 60):
        for name, pattern in patterns.items():
            raw = next(_backtrack_models(host, pattern, first_only=True), None)
            assert is_minor(pattern, host) == raw, (name, host)
            outcomes[name].add(raw is not None)
    # every pattern is both present in some host and absent from another
    assert all(seen == {False, True} for seen in outcomes.values()), outcomes


def test_shortcut_skips_patterns_that_are_not_3_connected():
    # two triangles sharing a vertex: the host splits at the shared vertex,
    # and neither triangle contains the bowtie
    bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert is_minor(bowtie, bowtie) is not None


def _stream_host(name: str) -> Graph:
    k6t = load_fixture("k6_therefore_k6")
    if name == "K7-2adj":
        return Graph.complete(7).delete_edge(4, 6).delete_edge(5, 6)
    if name == "K7-2nonadj":
        return Graph.complete(7).delete_edge(3, 4).delete_edge(5, 6)
    if name == "K44-e":
        return Graph.complete_bipartite(4, 4).delete_edge(0, 4)
    if name == "K44":
        return Graph.complete_bipartite(4, 4)
    if name in ("Petersen+01", "P8+01"):
        return petersen_family().members[name[:-3]].add_edge(0, 1)
    if name == "K6t~K6t":
        return k6t
    if name.startswith("random"):
        return random_graph(random.Random(int(name[7:])), 9, 0.6)
    op, k = name.split(":")[1:]
    e = k6t.edges[int(k)]
    return k6t.delete_edge(*e) if op == "delete" else k6t.contract_edge(*e)


# sha256 of the ordered (member, branch_sets, edge_map) stream over all seven
# Petersen-family members, and the model count per member, pinned before the
# search loop was rewritten: the models and their order must not change
_STREAMS = {
    "K7-2adj": (
        "150dc565367306d016a52b0f363966d996126a173a7db8e57d9bd0bbfa6f7a6a",
        (33, 4, 8, 0, 0, 0, 0),
    ),
    "K7-2nonadj": (
        "5c9574bd305049c67c7fcc8116396b8d2bc15ee0f1574898bcb32cc50271bb4d",
        (32, 6, 12, 0, 0, 0, 0),
    ),
    "K44-e": (
        "81df6ad8fc5115763dd139208077d27a5462c0d2764355df9913aa99f3b3c7c6",
        (0, 0, 0, 1, 0, 0, 0),
    ),
    "K44": (
        "3796b8ad54bb1fc3021b1d8f3ba86b400172d47dfca27f541e914c09c3ebeacd",
        (0, 16, 0, 16, 0, 0, 0),
    ),
    "Petersen+01": (
        "f54b5b6fa097ab17e8cb452206d7cee75054fcf5be5da4ed0fde96bceef43a81",
        (0, 0, 0, 0, 0, 1, 1),
    ),
    "P8+01": (
        "0d4324a97aa4524bae82dab9ef545e955ce22edfbb8f3d0d722572508e17eba8",
        (0, 0, 1, 0, 1, 0, 0),
    ),
    "random:2": (
        "c132535e32a5fbfe7afe11b4cf4d3e7de5a3e4a2957ed9c4619ddb34a1586a8c",
        (360, 255, 513, 8, 121, 3, 0),
    ),
    "random:12": (
        "a8a2b7b364023de86caa44ef821909c01ef79777300b2282bfca40a43538e44f",
        (256, 52, 220, 3, 49, 0, 0),
    ),
    "K6t~K6t": (
        "a98cb88388fd33cc25689b17f59b35a21bdfd1b9d65fec2c7812a84b55e32b4b",
        (792, 0, 666, 0, 0, 0, 0),
    ),
    "K6t~K6t:delete:0": (
        "14acb78b5df24c1c481a4a26ca02cefd773bc08d978c57c1f0e607cc303883be",
        (206, 0, 206, 0, 0, 0, 0),
    ),
    "K6t~K6t:contract:0": (
        "e38f50c379a5b14e05204fd6d7c3a11a9183a2d957a510f74caddab91b7c2d87",
        (76, 0, 22, 0, 0, 0, 0),
    ),
    "K6t~K6t:delete:20": (
        "4734f8f4dfe685dcbc5ebb5ab534447b76b590e0a57fe42d1d23bff08fa6de5b",
        (312, 0, 217, 0, 0, 0, 0),
    ),
    "K6t~K6t:contract:20": (
        "136c5d8f15d412ba9012b60d82710e3ce2d58fac02037d29f830ee808fbc5b0f",
        (18, 0, 22, 0, 0, 0, 0),
    ),
}


@pytest.mark.parametrize("name", sorted(_STREAMS))
def test_model_stream_pinned(name):
    host = _stream_host(name)
    digest = hashlib.sha256()
    counts = []
    for member, pattern in petersen_family().members.items():
        count = 0
        for model in enumerate_minor_models(host, pattern):
            digest.update(repr((member, model.branch_sets, model.edge_map)).encode())
            count += 1
        counts.append(count)
    assert (digest.hexdigest(), tuple(counts)) == _STREAMS[name]


def test_pattern_groups_of_the_family():
    # the lex-leader pruning quotients by these groups: a wrong group would
    # silently drop or duplicate models
    sizes = {name: len(_pattern_group(g)) for name, g in petersen_family().members.items()}
    assert sizes == {
        "K6": 720, "K331": 72, "P7": 36, "K44-e": 72, "P8": 8, "P9": 12, "Petersen": 120,
    }


def _brute_force_assignments(host: Graph, pattern: Graph) -> set[tuple[int, ...]]:
    """Oracle: every map from host vertices to pattern vertices or 'unused'
    whose branch sets are connected and join every pattern edge.  Maps are
    generated vertex by vertex; a partial map is abandoned only when too few
    host vertices are left to give every pattern vertex one."""
    k = pattern.n
    found = set()

    def connected(mask: int) -> bool:
        reach = frontier = mask & -mask
        while frontier:
            lsb = frontier & -frontier
            frontier ^= lsb
            new = host.adj[lsb.bit_length() - 1] & mask & ~reach
            reach |= new
            frontier |= new
        return reach == mask

    def extend(v: int, sets: list[int], empty: int) -> None:
        if empty > host.n - v:
            return
        if v == host.n:
            nbhd = [0] * k
            for u in range(host.n):
                for p in range(k):
                    if (sets[p] >> u) & 1:
                        nbhd[p] |= host.adj[u]
            if all(nbhd[p] & sets[q] for p, q in pattern.edges) and all(
                map(connected, sets)
            ):
                found.add(tuple(sets))
            return
        extend(v + 1, sets, empty)  # v unused
        for p in range(k):
            was_empty = not sets[p]
            sets[p] |= 1 << v
            extend(v + 1, sets, empty - was_empty)
            sets[p] &= ~(1 << v)

    extend(0, [0] * k, k)
    return found


def test_backtracking_is_complete_against_brute_force():
    patterns = {
        "K4": Graph.complete(4),
        "K4-e": Graph.complete(4).delete_edge(0, 1),
        "C5": Graph.cycle_graph(5),
        "K5": Graph.complete(5),
        "K33": Graph.complete_bipartite(3, 3),
        "K331": petersen_family().members["K331"],
    }
    groups = {name: brute_force_automorphisms(g) for name, g in patterns.items()}
    rng = random.Random(12)
    present = {name: 0 for name in patterns}
    k7 = Graph.complete(7)
    for trial in range(12):
        # every third host is K7 less a few edges, so that K331 may fit; the
        # 4-vertex patterns, with their many models, skip those hosts
        if trial % 3 == 0:
            host = Graph.from_edges(7, rng.sample(k7.edges, 21 - rng.randint(2, 4)))
        else:
            host = random_graph(rng, rng.randint(5, 6), 0.75)
        for name, pattern in patterns.items():
            if pattern.n > host.n or (pattern.n == 4 and host.n == 7):
                continue
            group = groups[name]
            oracle = _brute_force_assignments(host, pattern)
            # models of one assignment come together, one per edge-map choice
            runs = [
                (bs, sum(1 for _ in same))
                for bs, same in itertools.groupby(
                    _backtrack_models(host, pattern), key=lambda model: model.branch_sets
                )
            ]
            emitted = [tuple(sum(1 << v for v in bs) for bs in sets) for sets, _ in runs]
            # disjoint nonempty branch sets have a trivial stabiliser, so the
            # emitted assignments hit each automorphism orbit exactly once
            # when their images under the group are all distinct
            images = {tuple(a[sigma[p]] for p in range(pattern.n))
                      for a in emitted for sigma in group}
            assert len(images) == len(emitted) * len(group), (name, host)
            assert images == oracle, (name, host)
            # and every edge-map choice of each assignment
            for sets, (_, count) in zip(emitted, runs):
                per_edge = [
                    sum(1 for u, v in host.edges
                        if (sets[p] >> u) & 1 and (sets[q] >> v) & 1
                        or (sets[q] >> u) & 1 and (sets[p] >> v) & 1)
                    for p, q in pattern.edges
                ]
                assert count == math.prod(per_edge), (name, host, sets)
            present[name] += bool(oracle)
    assert all(present.values()), present
