from __future__ import annotations

import random

import pytest

from rp3link import (
    Graph,
    canonical_form,
    enumerate_minor_models,
    glue_pair,
    glue_vertex,
    is_minor,
    petersen_family,
    validate_model,
)
from rp3link.errors import ModelInvalid, SizeExceeded
from rp3link.minors import MinorModel, _backtrack_models

from conftest import random_graph


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
