from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rp3link import (
    Graph,
    HomologyAssignment,
    all_simple_cycles,
    assignment_from_edge_weights,
    assignment_from_serial,
    assignment_to_serial,
    cycle_basis,
    cycle_space,
    enumerate_assignments,
    evaluate,
    is_minor,
    lift,
    pullback,
    restrict,
)
from rp3link.config import DEFAULT_LIMITS, Limits
from rp3link.errors import DimensionExceeded, NotACycle, SizeExceeded
from rp3link.graphs import norm_edge
from rp3link.homology import cycle_vertices
from rp3link.minors import enumerate_minor_models

from conftest import random_graph
from test_linkage import _blown_up_k6_model


def _hamiltonian_cycle_count(g: Graph, verts: tuple[int, ...]) -> int:
    """Oracle: count distinct cycles visiting exactly `verts`."""
    if len(verts) < 3:
        return 0
    first = verts[0]
    rest = verts[1:]
    count = 0
    for perm in itertools.permutations(rest):
        seq = (first,) + perm
        if all(g.has_edge(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))):
            count += 1
    return count // 2  # direction


def _cycle_count_oracle(g: Graph) -> int:
    total = 0
    for k in range(3, g.n + 1):
        for verts in itertools.combinations(range(g.n), k):
            total += _hamiltonian_cycle_count(g, verts)
    return total


def test_basis_sizes(k33, k6):
    assert len(cycle_basis(k33)) == 4
    assert len(cycle_basis(k6)) == 10
    tree = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert cycle_basis(tree) == ()


def test_basis_size_formula_random():
    rng = random.Random(17)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 8), 0.4)
        c = len(g.components())
        assert len(cycle_basis(g)) == g.m - g.n + c


def test_simple_cycle_counts(k33):
    k4 = Graph.complete(4)
    assert len(all_simple_cycles(k4)) == 7
    cycles33 = all_simple_cycles(k33)
    assert len(cycles33) == 15
    assert sorted(c.bit_count() for c in cycles33) == [4] * 9 + [6] * 6
    assert len(all_simple_cycles(Graph.cycle_graph(5))) == 1


def test_simple_cycles_match_oracle():
    rng = random.Random(4)
    for _ in range(8):
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        assert len(all_simple_cycles(g)) == _cycle_count_oracle(g)


def test_enumerate_assignment_counts(k33):
    assert sum(1 for _ in enumerate_assignments(k33)) == 16
    tree = Graph.from_edges(3, [(0, 1), (1, 2)])
    phis = list(enumerate_assignments(tree))
    assert len(phis) == 1 and phis[0].values == 0


def test_dimension_cap():
    k9 = Graph.complete(9)  # dim 28
    with pytest.raises(DimensionExceeded):
        enumerate_assignments(k9)
    assert cycle_space(k9).dim == 28


def test_assignments_distinct_as_functionals(k33):
    cycles = all_simple_cycles(k33)
    profiles = set()
    for phi in enumerate_assignments(k33):
        profiles.add(tuple(evaluate(phi, c) for c in cycles))
    assert len(profiles) == 16


def test_evaluate_linearity(k33):
    rng = random.Random(11)
    cycles = all_simple_cycles(k33)
    for _ in range(100):
        phi = HomologyAssignment(k33, rng.randrange(16))
        c1, c2 = rng.sample(cycles, 2)
        s = c1 ^ c2
        assert evaluate(phi, s) == evaluate(phi, c1) ^ evaluate(phi, c2)


def test_evaluate_zero_functional(k33):
    phi = HomologyAssignment(k33, 0)
    assert all(evaluate(phi, c) == 0 for c in all_simple_cycles(k33))


def test_evaluate_rejects_non_cycles(k33):
    phi = HomologyAssignment(k33, 3)
    with pytest.raises(NotACycle):
        evaluate(phi, 1)  # single edge has odd-degree endpoints


def _decompose_oracle(basis: tuple[int, ...], mask: int) -> int:
    """Fresh elimination: coefficients of mask over the fundamental basis."""
    piv = {}
    for i, b in enumerate(basis):
        m, c = b, 1 << i
        while m:
            t = m.bit_length() - 1
            if t in piv:
                pm, pc = piv[t]
                m ^= pm
                c ^= pc
            else:
                piv[t] = (m, c)
                break
    m, c = mask, 0
    while m:
        t = m.bit_length() - 1
        pm, pc = piv[t]
        m ^= pm
        c ^= pc
    return c


def test_evaluate_matches_basis_decomposition():
    rng = random.Random(23)
    for _ in range(5):
        g = random_graph(rng, 7, 0.5)
        cs = cycle_space(g)
        if cs.dim == 0:
            continue
        cycles = all_simple_cycles(g)
        for _ in range(100):
            phi = HomologyAssignment(g, rng.randrange(1 << cs.dim))
            c = rng.choice(cycles) if cycles else 0
            if not c:
                continue
            coeffs = _decompose_oracle(cs.basis, c)
            expected = (coeffs & phi.values).bit_count() & 1
            assert evaluate(phi, c) == expected


def test_edge_weight_assignment(k33):
    phi = assignment_from_edge_weights(k33, [(0, 3)])
    wmask = k33.edge_mask([(0, 3)])
    for c in all_simple_cycles(k33):
        assert evaluate(phi, c) == (c & wmask).bit_count() & 1


def test_k32_parity():
    k32 = Graph.complete_bipartite(3, 2)
    cycles4 = [c for c in all_simple_cycles(k32) if c.bit_count() == 4]
    assert len(cycles4) == 3
    assert cycle_space(k32).dim == 2
    for phi in enumerate_assignments(k32):
        ones = sum(evaluate(phi, c) for c in cycles4)
        assert ones % 2 == 0


# -- lifting and pullback -------------------------------------------------------


def test_pullback_identity(k33):
    model = next(enumerate_minor_models(k33, k33))
    for v in range(16):
        phi = HomologyAssignment(k33, v)
        assert pullback(phi, model).values == v


def test_pullback_zero_is_zero(k7_2nonadj, k6):
    phi = HomologyAssignment(k7_2nonadj, 0)
    for model in itertools.islice(enumerate_minor_models(k7_2nonadj, k6), 10):
        assert pullback(phi, model).values == 0


def test_contraction_lift_preserves_value():
    # 5-vertex host; contract edge (0,1); oracle = explicit cycle sets
    host = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4)])
    pattern = host.contract_edge(0, 1)
    model = None
    for m in enumerate_minor_models(host, pattern):
        if any(len(bs) == 2 for bs in m.branch_sets):
            model = m
            break
    assert model is not None
    rng = random.Random(3)
    pcs = cycle_space(pattern)
    for _ in range(30):
        phi = HomologyAssignment(host, rng.randrange(1 << cycle_space(host).dim))
        pb = pullback(phi, model)
        for c in all_simple_cycles(pattern):
            lifted = lift(model, c)
            assert evaluate(pb, c) == evaluate(phi, lifted)


_CUBE = Graph.from_edges(8, [(u, u | b) for u in range(8) for b in (1, 2, 4) if not u & b])


def _models_with_big_sets(hosts):
    """Up to 20 models per (host, pattern) with a branch set of 2+ vertices."""
    out = [_blown_up_k6_model()]
    for host, pattern in hosts:
        models = itertools.islice(enumerate_minor_models(host, pattern), 400)
        out += [m for m in models if any(len(bs) > 1 for bs in m.branch_sets)][:20]
    return out


def test_lift_is_the_unique_contraction_preimage(k7_2nonadj, k6, k44e, k33):
    # an even host subgraph whose edges between branch sets are the mapped
    # edges of c and whose other edges lie in the branch trees is unique:
    # two of them differ by an even subgraph of a forest
    models = _models_with_big_sets(
        [(_CUBE, Graph.complete(4)), (k7_2nonadj, k6), (k44e, k33)]
    )
    assert {2, 3, 4} <= {max(len(bs) for bs in m.branch_sets) for m in models}
    for model in models:
        host = model.host
        owner = {v: p for p, bs in enumerate(model.branch_sets) for v in bs}
        trees = {norm_edge(*e) for tree in model.branch_trees for e in tree}
        for c in all_simple_cycles(model.pattern):
            edges = host.edges_of_mask(lift(model, c))
            deg = [0] * host.n
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            assert all(d % 2 == 0 for d in deg)
            between = {e for e in edges if owner.get(e[0], -1) != owner.get(e[1], -2)}
            mapped = {norm_edge(*model.edge_map[k]) for k in range(model.pattern.m) if c >> k & 1}
            assert between == mapped
            assert set(edges) - between <= trees


def test_lift_rejects_a_single_edge():
    # every branch set of these K4 models has two vertices, so no end of
    # the edge is a singleton set
    models = [m for m in enumerate_minor_models(_CUBE, Graph.complete(4))
              if all(len(bs) == 2 for bs in m.branch_sets)]
    assert models
    for model in models[:5]:
        for k in range(model.pattern.m):
            with pytest.raises(NotACycle):
                lift(model, 1 << k)


def test_pullback_linearity(k7_2nonadj, k6):
    rng = random.Random(15)
    models = list(itertools.islice(enumerate_minor_models(k7_2nonadj, k6), 5))
    cycles = all_simple_cycles(k6)
    dim = cycle_space(k7_2nonadj).dim
    for model in models:
        phi = HomologyAssignment(k7_2nonadj, rng.randrange(1 << dim))
        pb = pullback(phi, model)
        for _ in range(20):
            c1, c2 = rng.sample(cycles, 2)
            s = c1 ^ c2
            assert evaluate(pb, s) == evaluate(pb, c1) ^ evaluate(pb, c2)


def test_restrict_agrees_on_cycles(k44e):
    rng = random.Random(9)
    sub_vertices = [0, 1, 2, 5, 6, 7]
    for _ in range(20):
        phi = HomologyAssignment(k44e, rng.randrange(256))
        h, psi = restrict(phi, sub_vertices)
        back = {i: v for i, v in enumerate(sorted(sub_vertices))}
        for c in all_simple_cycles(h):
            gmask = k44e.edge_mask(
                (back[a], back[b]) for a, b in h.edges_of_mask(c)
            )
            assert evaluate(psi, c) == evaluate(phi, gmask)


def test_serial_round_trip(k44e):
    rng = random.Random(41)
    for _ in range(10):
        phi = HomologyAssignment(k44e, rng.randrange(256))
        s = assignment_to_serial(phi)
        phi2 = assignment_from_serial(s)
        assert assignment_to_serial(phi2) == s
        assert phi2.dim == phi.dim


def test_cycle_vertices(k33):
    for c in all_simple_cycles(k33):
        assert cycle_vertices(k33, c).bit_count() == c.bit_count()


# -- reference loops for the signature and the cycle walk ---------------------


def _signature_by_positions(cs, mask: int) -> int:
    """Reference: test every fundamental-basis position of the mask."""
    sig = 0
    for pos, ei in enumerate(cs.nontree):
        if (mask >> ei) & 1:
            sig |= 1 << pos
    return sig


def _cycles_by_neighbors(g: Graph, limits: Limits) -> tuple[int, ...]:
    """Reference: the rooted walk over Graph.neighbors tuples, in its order."""
    out: list[int] = []
    eidx = g.edge_index

    def walk(root, v, visited, path_edges, second):
        for u in g.neighbors(v):
            if u == root:
                if visited.bit_count() >= 3 and second < v:
                    out.append(path_edges | (1 << eidx[norm_edge(root, v)]))
                    if len(out) > limits.max_cycles:
                        raise SizeExceeded("cycle enumeration cutoff hit")
                continue
            if u < root or (visited >> u) & 1:
                continue
            walk(root, u, visited | (1 << u), path_edges | (1 << eidx[norm_edge(u, v)]), second)

    for root in range(g.n):
        for second in g.neighbors(root):
            if second > root:
                walk(root, second, (1 << root) | (1 << second),
                     1 << eidx[(root, second)], second)
    return tuple(out)


@st.composite
def _graphs_up_to_8(draw):
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, draw(st.sets(st.sampled_from(pairs))) if pairs else [])


@given(_graphs_up_to_8(), st.data())
@settings(max_examples=150, deadline=None)
def test_signature_matches_the_per_position_loop(g, data):
    cs = cycle_space(g)
    # arbitrary edge masks, tree bits included, and every simple cycle
    masks = data.draw(st.lists(st.integers(0, (1 << g.m) - 1), max_size=20))
    for mask in [*masks, cs.tree_mask, *all_simple_cycles(g)]:
        assert cs.signature(mask) == _signature_by_positions(cs, mask)


@given(_graphs_up_to_8(), st.integers(1, 200))
@settings(max_examples=150, deadline=None)
def test_simple_cycles_in_the_order_of_the_neighbor_walk(g, cap):
    # patterns.py reads the sequence unsorted, so the order is part of the API
    assert all_simple_cycles(g) == _cycles_by_neighbors(g, DEFAULT_LIMITS)
    # a low cutoff raises in both or in neither
    small = Limits(max_cycles=cap)
    try:
        expected = _cycles_by_neighbors(g, small)
    except SizeExceeded:
        with pytest.raises(SizeExceeded):
            all_simple_cycles(g, small)
    else:
        assert all_simple_cycles(g, small) == expected
