from __future__ import annotations

import hashlib
import itertools
import math
import random
import sys

import pytest

from rp3link import (
    Graph,
    MarkedGraph,
    canonical_form,
    delta_y,
    enumerate_minor_models,
    glue_pair,
    glue_therefore,
    glue_vertex,
    is_minor,
    k6_therefore,
    load_fixture,
    petersen_family,
    validate_model,
)
from rp3link import minors
from rp3link.errors import ModelInvalid, SizeExceeded
from rp3link.minors import MinorModel, _backtrack_models, _pattern_group, _search_plan

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
            raw = next(_backtrack_models(host, pattern), None)
            assert is_minor(pattern, host) == raw, (name, host)
            outcomes[name].add(raw is not None)
    # every pattern is both present in some host and absent from another
    assert all(seen == {False, True} for seen in outcomes.values()), outcomes


def _three_sums(rng: random.Random, count: int):
    """Two dense random graphs sharing three vertices, with random edges
    among those three, at most 11 vertices, randomly relabelled."""
    for _ in range(count):
        a = rng.randint(4, 10)
        b = rng.randint(4, 14 - a)
        g1, g2 = random_graph(rng, a, 0.9), random_graph(rng, b, 0.9)
        shift = a - 3  # g2's vertices 0, 1, 2 become g1's last three
        shared = [(x, y) for x, y in itertools.combinations(range(shift, a), 2)
                  if rng.random() < 0.5]
        edges = {e for e in g1.edges if e[0] < shift} | set(shared)
        edges |= {(u + shift, v + shift) for u, v in g2.edges if v > 2}
        perm = list(range(a + b - 3))
        rng.shuffle(perm)
        yield Graph.from_edges(a + b - 3, edges).relabel(perm)


def test_order_3_shortcut_matches_backtracking():
    fam = petersen_family().members
    four_connected = {
        "K5": Graph.complete(5),
        "K222": Graph.complete_multipartite(2, 2, 2),
        "K6": fam["K6"],
        "K331": fam["K331"],
    }
    patterns = {
        **four_connected,
        "K33": Graph.complete_bipartite(3, 3),
        "P7": fam["P7"],
        "K44-e": fam["K44-e"],
    }
    outcomes = {name: set() for name in four_connected}
    for host in _three_sums(random.Random(13), 40):
        for name, pattern in patterns.items():
            raw = next(_backtrack_models(host, pattern), None)
            assert is_minor(pattern, host) == raw, (name, host)
            if name in outcomes:
                outcomes[name].add(raw is not None)
    assert all(seen == {False, True} for seen in outcomes.values()), outcomes


def test_order_3_shortcut_only_for_4_connected_patterns():
    # the mark separation splits K6t~K6t into two K6, and neither holds P7,
    # which is 3-connected but not 4-connected
    assert is_minor(petersen_family().members["P7"], _stream_host("K6t~K6t")) is not None


@pytest.mark.parametrize("name", ["K6t~P7Bt", "P7Bt~P7Bt", "K6t~P8Bt", "K6t~K6t"])
def test_k331_absent_on_gluings_without_searching_the_whole_host(name, monkeypatch):
    # A 3-cut that splits off a single vertex gives K4 and the wye-delta of
    # the host; for some degree-3 vertices of K6t~P8Bt that wye-delta holds
    # K331.  Which cut comes first depends on the labels, so each gluing is
    # relabelled.
    searched = []

    def counting(host, pattern):
        searched.append(host)
        return _backtrack_models(host, pattern)

    monkeypatch.setattr(minors, "_backtrack_models", counting)
    k331 = petersen_family().members["K331"]
    base = _stream_host(name)
    rng = random.Random(3)
    for _ in range(10):
        perm = list(range(base.n))
        rng.shuffle(perm)
        host = base.relabel(perm)
        searched.clear()
        assert is_minor(k331, host) is None
        assert host not in searched, perm


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
    if name in ("K6t~P7Bt", "P7Bt~P7Bt", "K6t~P8Bt"):
        # unrelabelled delta-wye gluings, marked as the benchmark inputs are
        k6m = k6_therefore()
        p7b = MarkedGraph(delta_y(k6m.graph, (0, 3, 4)), k6m.marks)
        if name == "K6t~P8Bt":
            p8b = MarkedGraph(delta_y(p7b.graph, p7b.graph.triangles()[0]), k6m.marks)
            return glue_therefore(k6m, p8b)
        return glue_therefore(k6m if name == "K6t~P7Bt" else p7b, p7b)
    if name.startswith("random"):
        return random_graph(random.Random(int(name[7:])), 9, 0.6)
    op, k = name.split(":")[1:]
    e = k6t.edges[int(k)]
    return k6t.delete_edge(*e) if op == "delete" else k6t.contract_edge(*e)


# sha256 of the ordered (member, branch_sets, edge_map) stream over all seven
# Petersen-family members, and the model count per member, pinned before the
# search loop was rewritten (the two gluings, before subset growth moved into
# it): the models and their order must not change
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
    "K6t~P7Bt": (
        "56f47801c7681709f83f31e16371fb925695478d1568d06fc92aa18ab3768c90",
        (554, 0, 965, 0, 333, 0, 0),
    ),
    "P7Bt~P7Bt": (
        "bd5ac84051c48532cf97a0eeb33d0e60f69bfb1f5891761b997d65035807b72e",
        (0, 0, 1108, 0, 1138, 0, 0),
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


def test_search_descends_only_through_sets_that_pass_the_edge_counts():
    # The completeness oracle above catches filters that are too strict; this
    # catches ones that are too loose, which change no model, only the work.
    # White-box: at each new search node (a place() frame), the branch set
    # just placed one depth up is rechecked from scratch: enough edges for
    # its pattern vertex, into the pool for its unplaced neighbours, into
    # every placed neighbour, and enough pool left for each earlier vertex.
    hosts = [_stream_host(name) for name in ("K7-2nonadj", "K6t~K6t:contract:0", "random:12")]
    frames = set()
    checked = 0

    def watch(frame, event, arg):
        nonlocal checked
        if event != "call" or frame.f_code.co_name != "place" or frame in frames:
            return
        frames.add(frame)
        f = frame.f_locals
        if f["i"] == 0:
            return
        d, branch, adj = f["i"] - 1, f["branch"], f["hadj"]
        sub = branch[d]
        rest = ~f["used"] & ((1 << len(adj)) - 1)

        def edges(mask, into):
            return sum((adj[v] & into).bit_count() for v in range(len(adj)) if (mask >> v) & 1)

        req = [branch[q] for q in f["reqs"][d]]
        assert edges(sub, rest | sum(req)) >= f["degs"][d]
        assert edges(sub, rest) >= f["futures"][d]
        assert all(edges(sub, r) for r in req)
        assert all(edges(branch[q], rest) >= c for q, c in f["pendings"][d])
        checked += 1

    sys.setprofile(watch)
    try:
        for host in hosts:
            for pattern in petersen_family().members.values():
                for _ in _backtrack_models(host, pattern):
                    pass
    finally:
        sys.setprofile(None)
    assert checked > 1000


def test_search_grows_only_subsets_that_can_pass_the_lex_leader_test():
    # Like the test above, this catches a pruning that is too loose, which
    # changes no model, only the work.  White-box: a set placed at depth i
    # must exceed every set branch[j] of a lex check (i, j), the depths j of
    # the search plan's lowers[i]; disjoint sets compare as their highest
    # vertices, so it needs a vertex above all of them.  Each grow() frame
    # must be entered for a subset that holds such a vertex or can still add
    # one: it is below the size cap, and later extensions draw on allowed
    # vertices not yet banned.
    hosts = [_stream_host(name) for name in ("K7-2nonadj", "K6t~K6t:contract:0", "random:12")]
    checked = 0

    def watch(frame, event, arg):
        nonlocal checked
        if event != "call" or frame.f_code.co_name != "grow":
            return
        outer = frame.f_back
        while outer.f_code.co_name != "place":
            outer = outer.f_back
        search = outer.f_back
        while search.f_code.co_name != "_backtrack_models":
            search = search.f_back
        p, f = outer.f_locals, frame.f_locals
        i, branch = p["i"], p["branch"]
        bounds = [branch[j] for j in _search_plan(search.f_locals["pattern"]).lowers[i]]
        if not bounds:
            return
        floor = max(b.bit_length() for b in bounds)
        above = p["avail"] >> floor << floor
        reach = f["sub"]
        if f["size"] < p["cap"]:
            reach |= f["allowed"] & ~f["banned"]
        assert reach & above
        checked += 1

    sys.setprofile(watch)
    try:
        for host in hosts:
            for pattern in petersen_family().members.values():
                for _ in _backtrack_models(host, pattern):
                    pass
    finally:
        sys.setprofile(None)
    assert checked > 1000


def test_search_leaves_the_pool_enough_edges_for_the_unplaced_vertices():
    # Like the two tests above, this catches a pruning that is too loose,
    # which changes no model, only the work.  White-box: the pattern edges
    # among the vertices still to place need distinct host edges between
    # disjoint branch sets inside the pool, so at each place() frame below
    # the root the pool must hold at least that many host edges.
    hosts = [_stream_host(name) for name in ("K7-2nonadj", "K6t~K6t:contract:0", "random:12")]
    frames = set()
    checked = 0

    def watch(frame, event, arg):
        nonlocal checked
        if event != "call" or frame.f_code.co_name != "place" or frame in frames:
            return
        frames.add(frame)
        f = frame.f_locals
        if f["i"] == 0:
            return
        outer = frame.f_back
        while outer.f_code.co_name != "_backtrack_models":
            outer = outer.f_back
        order, padj = outer.f_locals["order"], outer.f_locals["pattern"].adj
        unplaced = sum(1 << p for p in order[f["i"]:])
        owed = sum((padj[p] & unplaced).bit_count() for p in order[f["i"]:]) // 2
        adj = f["hadj"]
        pool = ~f["used"] & ((1 << len(adj)) - 1)
        held = sum((adj[v] & pool).bit_count() for v in range(len(adj)) if (pool >> v) & 1) // 2
        assert held >= owed
        checked += 1

    sys.setprofile(watch)
    try:
        for host in hosts:
            for pattern in petersen_family().members.values():
                for _ in _backtrack_models(host, pattern):
                    pass
    finally:
        sys.setprofile(None)
    assert checked > 1000


def test_search_leaves_the_pool_room_for_the_lex_leader_chains():
    # Like the tests above, this catches a pruning that is too loose, which
    # changes no model, only the work.  White-box: the lex checks are
    # recomputed from the automorphism group, each check (k, j) asking that
    # the set at depth k lie above the one at depth j.  At each place()
    # frame at depth i >= 1, a placed set j is below every unplaced depth
    # reached from j by a chain of checks through unplaced depths, and each
    # of those sets has its own highest vertex in the pool above j's
    # highest vertex; likewise below.  The pool must hold that many.
    hosts = [_stream_host(name) for name in ("K7-2nonadj", "K6t~K6t:contract:0", "random:12")]
    frames = set()
    checked = 0
    counts = {}

    def chain_counts(pattern):
        order = _search_plan(pattern).order
        n = pattern.n
        pos = {p: d for d, p in enumerate(order)}
        above = [0] * n  # depth -> mask of the depths checked to lie above it
        for sigma in _pattern_group(pattern):
            moved = [d for d, p in enumerate(order) if pos[sigma[p]] != d]
            if moved:
                above[moved[0]] |= 1 << pos[sigma[order[moved[0]]]]
        below = [sum(1 << k for k in range(n) if above[k] >> j & 1) for j in range(n)]

        def reach(j, step, i):
            seen, frontier = 0, step[j] >> i << i
            while frontier:
                seen |= frontier
                nxt = 0
                for k in range(i, n):
                    if frontier >> k & 1:
                        nxt |= step[k]
                frontier = nxt >> i << i & ~seen
            return seen.bit_count()

        return {(i, j): (reach(j, above, i), reach(j, below, i))
                for i in range(1, n + 1) for j in range(i)}

    def watch(frame, event, arg):
        nonlocal checked
        if event != "call" or frame.f_code.co_name != "place" or frame in frames:
            return
        frames.add(frame)
        f = frame.f_locals
        i = f["i"]
        if i == 0:
            return
        search = frame.f_back
        while search.f_code.co_name != "_backtrack_models":
            search = search.f_back
        pattern = search.f_locals["pattern"]
        if pattern not in counts:
            counts[pattern] = chain_counts(pattern)
        adj, branch = f["hadj"], f["branch"]
        pool = ~f["used"] & ((1 << len(adj)) - 1)
        for j in range(i):
            up, down = counts[pattern][i, j]
            hb = branch[j].bit_length()
            assert (pool >> hb).bit_count() >= up
            assert (pool & ((1 << hb) - 1)).bit_count() >= down
            checked += 1

    sys.setprofile(watch)
    try:
        for host in hosts:
            for pattern in petersen_family().members.values():
                for _ in _backtrack_models(host, pattern):
                    pass
    finally:
        sys.setprofile(None)
    assert checked > 1000
    # the chains are not vacuous: some placed set has more than one depth
    # still to come above it
    assert any(up > 1 for c in counts.values() for up, _ in c.values())
