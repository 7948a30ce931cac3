from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rp3link import (
    AllZero,
    FourPattern,
    Graph,
    HomologyAssignment,
    RuleAEvidence,
    RuleBEvidence,
    RuleCEvidence,
    assignment_from_edge_weights,
    certify,
    classify_k33,
    cycle_space,
    enumerate_minor_models,
    evaluate,
    glue_pair,
    lift,
    load_fixture,
    minimality_scan,
    petersen_family,
    restrict,
    rule_a,
    rule_b,
    rule_c,
    rule_context,
    verify_certificate,
)
from rp3link import is_minor, linkage, minors
from rp3link.config import Limits
from rp3link.errors import DimensionExceeded, ModelInvalid, SizeExceeded
from rp3link.homology import cycle_vertices, edge_lifts
from rp3link.minors import MinorModel

from conftest import brute_force_automorphisms, random_graph


# a1..a4 = 0..3, b1..b4 = 4..7; K44-e removes (a1,b1) = (0,4)
A1, A2, A3, A4 = 0, 1, 2, 3
B1, B2, B3, B4 = 4, 5, 6, 7


def test_rule_a_nothing_for_zero(k44e):
    assert rule_a(k44e, HomologyAssignment(k44e, 0)) is None


def test_rule_a_none_on_k4():
    k4 = Graph.complete(4)
    for v in range(1 << cycle_space(k4).dim):
        assert rule_a(k4, HomologyAssignment(k4, v)) is None


def test_rule_a_case1_assignment(k44e):
    # subgraph on {a2,a3,a4,b2,b3,b4} all zero; the two flanking subgraphs
    # carry 4-patterns with including edges (a1,b2) and (a2,b1)
    phi = assignment_from_edge_weights(k44e, [(A1, B2), (A2, B1)])
    _, restr = restrict(phi, [A2, A3, A4, B2, B3, B4])
    assert classify_k33(restr) == AllZero()
    ev = rule_a(k44e, phi)
    assert ev is not None
    assert not (cycle_vertices(k44e, ev.cycle1) & cycle_vertices(k44e, ev.cycle2))
    assert evaluate(phi, ev.cycle1) == 1 and evaluate(phi, ev.cycle2) == 1


def _pairs_by_double_loop(ctx) -> list[tuple[int, int]]:
    """Oracle: every vertex-disjoint cycle pair i < j, shortest total length
    first, then by index."""
    pairs = []
    nc = len(ctx.cycles)
    for i in range(nc):
        vi = ctx.cycle_verts[i]
        for j in range(i + 1, nc):
            if not (vi & ctx.cycle_verts[j]):
                pairs.append((i, j))
    pairs.sort(
        key=lambda p: (
            ctx.cycles[p[0]].bit_count() + ctx.cycles[p[1]].bit_count(),
            p[0],
            p[1],
        )
    )
    return pairs


def test_pairs_match_the_double_loop():
    rng = random.Random(5)
    hosts = [load_fixture("k6").disjoint_union(load_fixture("k331"))]
    hosts += [random_graph(rng, rng.randint(6, 9), rng.uniform(0.4, 0.65)) for _ in range(20)]
    nonempty = 0
    for g in hosts:
        ctx = linkage.RuleContext(g)
        pairs = ctx.pairs
        assert pairs == _pairs_by_double_loop(ctx), g
        nonempty += bool(pairs)
    assert nonempty >= 15


def test_rule_a_equivariance(k44e):
    rng = random.Random(2)
    autos = brute_force_automorphisms(k44e)
    assert len(autos) == 72
    cs = cycle_space(k44e)
    for _ in range(12):
        v = rng.randrange(256)
        phi = HomologyAssignment(k44e, v)
        fired = rule_a(k44e, phi) is not None
        for a in rng.sample(autos, 6):
            values = 0
            for i, b in enumerate(cs.basis):
                mapped = k44e.edge_mask(
                    (a[x], a[y]) for x, y in k44e.edges_of_mask(b)
                )
                if evaluate(phi, mapped):
                    values |= 1 << i
            phi2 = HomologyAssignment(k44e, values)
            assert (rule_a(k44e, phi2) is not None) == fired


def test_rule_b_all_ones_through_vertex(k44e):
    # weight on a single edge at a4: every 1-homologous cycle uses (a4,b2)
    phi = assignment_from_edge_weights(k44e, [(A4, B2)])
    ev = rule_b(k44e, phi)
    assert ev is not None
    assert ev.member == "K44-e"
    # the apex names a pattern vertex; its branch set holds the host vertex
    assert ev.model.branch_sets[ev.apex] in ((A4,), (B2,))


def test_rule_b_zero_on_k6(k6):
    ev = rule_b(k6, HomologyAssignment(k6, 0))
    assert ev is not None and ev.member == "K6"


def test_rule_b_on_two_sided_gluing(k6):
    g = glue_pair(k6, (0, 1), k6, (0, 1), 0)
    phi = assignment_from_edge_weights(g, [(0, 2)])  # only side-one cycles see it
    ev = rule_b(g, phi)
    assert ev is not None
    # evidence must name a member model whose apex kills all its off-apex cycles
    assert ev.member in petersen_family().members


def test_rule_c_zero_on_k6(k6):
    ev = rule_c(k6, HomologyAssignment(k6, 0))
    assert ev is not None
    assert len(set(ev.quad)) == 4


def test_rule_c_k7_2adj(k7_2adj):
    # zero on the K4 over {v1..v4} (indices 0..3): weight an edge outside it
    phi = assignment_from_edge_weights(k7_2adj, [(4, 5)])
    ev = rule_c(k7_2adj, phi)
    assert ev is not None


def test_rule_c_k7_2nonadj_contraction(k7_2nonadj):
    # kill all cycles on {v1,v4,v5,v6,v7} = indices {0,3,4,5,6}
    phi = assignment_from_edge_weights(k7_2nonadj, [(1, 2)])
    ev = rule_c(k7_2nonadj, phi)
    assert ev is not None


def test_certify_k44e_ab(k44e):
    cert = certify(k44e, rules="AB")
    assert cert.dim == 8
    assert cert.verdict == "CERTIFIED"
    assert cert.counts["A"] + cert.counts["B"] == 256
    assert verify_certificate(cert) == 256


def test_certify_k6_undecided(k6):
    cert = certify(k6, rules="ABC")
    assert cert.verdict == "UNDECIDED"
    assert len(cert.unforced) >= 1
    serials = cert.unforced_serials()
    assert len(serials) == len(cert.unforced)
    assert all(":" in s for s in serials)


def test_certify_tree_undecided():
    tree = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    cert = certify(tree)
    assert cert.verdict == "UNDECIDED"
    assert cert.unforced == [0]


def test_certify_dimension_cap():
    with pytest.raises(DimensionExceeded):
        certify(Graph.complete(9))


def test_certify_checks_the_dimension_cap_before_enumerating_cycles():
    # K10 (dim 36) has more simple cycles than the default cutoff
    k10 = Graph.complete(10)
    with pytest.raises(DimensionExceeded):
        certify(k10)
    with pytest.raises(DimensionExceeded):
        rule_context(k10)
    with pytest.raises(DimensionExceeded):
        rule_a(k10, HomologyAssignment(k10, 0))


def test_engine_matches_single_shot_rules(k7_2adj):
    cert = certify(k7_2adj, rules="ABC")
    ctx = rule_context(k7_2adj)
    rng = random.Random(13)
    for v in rng.sample(range(1 << cert.dim), 50):
        phi = HomologyAssignment(k7_2adj, v)
        ev = cert.evidence(v)
        a = rule_a(k7_2adj, phi, ctx)
        if a is not None:
            assert isinstance(ev, RuleAEvidence)
            assert (ev.cycle1, ev.cycle2) == (a.cycle1, a.cycle2)
            continue
        c = rule_c(k7_2adj, phi, ctx)
        if c is not None:
            assert isinstance(ev, RuleCEvidence)
            assert ev.quad == c.quad
            continue
        b = rule_b(k7_2adj, phi, ctx)
        if b is not None:
            assert isinstance(ev, RuleBEvidence)
            assert (ev.member, ev.apex) == (b.member, b.apex)
        else:
            assert ev is None


def test_engine_mirrors_case_split(k44e):
    # assignments whose restriction to {a2,a3,a4,b2,b3,b4} is a 4-pattern
    # with including edge (a4,b4) and whose two flanking restrictions are
    # all-zero must be forced by rule B at apex a4/b4, or by rule A
    cert = certify(k44e, rules="AB")
    matched = 0
    for v in range(256):
        phi = HomologyAssignment(k44e, v)
        _, ra = restrict(phi, [A2, A3, A4, B2, B3, B4])
        pa = classify_k33(ra)
        if not isinstance(pa, FourPattern):
            continue
        # local labels: a2,a3,a4 -> 0,1,2 and b2,b3,b4 -> 3,4,5
        if pa.including_edge != (2, 5):  # (a4, b4)
            continue
        _, rb = restrict(phi, [A1, A2, A3, B2, B3, B4])
        _, rc = restrict(phi, [A2, A3, A4, B1, B2, B3])
        if classify_k33(rb) != AllZero() or classify_k33(rc) != AllZero():
            continue
        matched += 1
        ev = cert.evidence(v)
        if isinstance(ev, RuleBEvidence):
            assert ev.model.branch_sets[ev.apex] in ((A4,), (B4,))
        else:
            assert isinstance(ev, RuleAEvidence)
    assert matched >= 1


def test_soundness_spot_check():
    fam = petersen_family()
    for name in ("K6", "Petersen"):
        for rules in ("A", "AC", "ABC"):
            cert = certify(fam.members[name], rules=rules)
            assert cert.verdict == "UNDECIDED", (name, rules)


def test_determinism_repeat_runs(k44e):
    c1 = certify(k44e, rules="AB")
    c2 = certify(k44e, rules="AB")
    assert c1.to_json(include_timing=False) == c2.to_json(include_timing=False)


def test_minimality_k44e(k44e):
    report = minimality_scan(k44e, rules="AB")
    assert report.edge_orbit_count == 2
    assert report.engine_minimal
    assert all(e.verdict == "UNDECIDED" for e in report.entries)


def test_minimality_k6_monotone(k6):
    report = minimality_scan(k6, rules="ABC")
    assert report.engine_minimal  # K6 itself is UNDECIDED, so are its minors


def _key_of(cert, v):
    """The first used key of cert that forces assignment v, None if none does."""
    return next((key for key in zip(cert.rule_of, cert.ev_of) if cert.ctx.forces(*key, v)), None)


def _with_keys(cert, keys):
    return dataclasses.replace(
        cert, rule_of=bytearray(code for code, _ in keys), ev_of=array("I", [i for _, i in keys]))


def _repointed(cert, code):
    """cert with one used key of rule code pointed at another entry of its
    table (a used one merges with it) that does not force an assignment
    only that key forced, and the first assignment left uncovered."""
    ctx = cert.ctx
    keys = list(zip(cert.rule_of, cert.ev_of))
    for v in range(1 << cert.dim):
        forcing = [key for key in keys if ctx.forces(*key, v)]
        if len(forcing) == 1 and forcing[0][0] == code:
            break
    else:
        raise AssertionError(f"no assignment forced by one key of rule {code} alone")
    size = len(ctx.pairs) if code == 1 else len(ctx.conditions(code))
    bad = next(i for i in range(size) if (code, i) != forcing[0] and not ctx.forces(code, i, v))
    tampered = _with_keys(cert, sorted(set(keys) - set(forcing) | {(code, bad)}))
    return tampered, next(u for u in range(v + 1) if _key_of(tampered, u) is None)


def test_certificate_verification_catches_tampering(k44e):
    cert = certify(k44e, rules="AB")
    # point a rule-A key at a pair that is not both-1 at an assignment only
    # that key forced
    tampered, uncovered = _repointed(cert, 1)
    with pytest.raises(ModelInvalid, match=f"no evidence forces assignment {uncovered}$"):
        verify_certificate(tampered)
    assert verify_certificate(cert) == 256


@pytest.mark.parametrize("graph, rules, code", [("k7_2adj", "ABC", 2), ("k44e", "AB", 3)])
def test_certificate_verification_catches_tampered_model_evidence(graph, rules, code, request):
    cert = certify(request.getfixturevalue(graph), rules=rules)
    # point a C (B) key at a condition that does not vanish at an assignment
    # only that key forced: its assignments are no longer all covered
    tampered, uncovered = _repointed(cert, code)
    with pytest.raises(ModelInvalid, match=f"no evidence forces assignment {uncovered}$"):
        verify_certificate(tampered)
    assert verify_certificate(cert) == sum(cert.counts.values())


@pytest.mark.parametrize(
    "code, idx, message",
    [
        (7, None, "rule code 7"),
        (255, None, "rule code 255"),
        # K44-e has no K6 minor: the rule-C table is empty
        (2, 0, "no evidence 0"),
        (3, "end", "no evidence"),
        (1, "end", "no evidence"),
        # the last B key listed twice, or put before the key it follows
        (3, "twice", "not strictly increasing"),
        (3, "early", "not strictly increasing"),
        (3, "no index", "14 rule codes but 13 indices"),
    ],
)
def test_forged_rule_codes_and_indices_are_rejected(k44e, code, idx, message):
    cert = certify(k44e, rules="AB")
    assert verify_certificate(cert) == sum(cert.counts.values())
    rule_of, ev_of = cert.rule_of, cert.ev_of
    assert rule_of[-1] == 3
    if idx == "twice":
        rule_of.append(3)
        ev_of.append(ev_of[-1])
    elif idx == "early":
        rule_of[-2:], ev_of[-2:] = rule_of[:-3:-1], ev_of[:-3:-1]
    elif idx == "no index":
        ev_of.pop()
    else:
        # forge the first B key, and drop the keys after it so that the
        # list stays increasing; v is an assignment it is the evidence of
        k = rule_of.index(3)
        v = next(u for u in range(256) if _key_of(cert, u) == (3, ev_of[k]))
        del rule_of[k + 1:], ev_of[k + 1:]
        table = cert.ctx.pairs if code == 1 else cert.ctx.conditions(code)
        rule_of[k] = code
        if idx is not None:
            ev_of[k] = len(table) if idx == "end" else idx
        with pytest.raises(ValueError, match="rule code"):
            cert.evidence(v)
    with pytest.raises(ModelInvalid, match=message):
        verify_certificate(cert)


def test_negative_evidence_indices_are_rejected(k44e):
    cert = certify(k44e, rules="AB")
    # ev_of holds unsigned ints: -1 does not wrap to the last condition
    with pytest.raises(OverflowError):
        cert.ev_of[-1] = -1
    for code in (1, 2, 3):
        with pytest.raises(ValueError, match=f"rule code {code} has no evidence -1"):
            cert.ctx.evidence(code, -1)


def test_assignments_outside_the_sweep_are_rejected(k6):
    cert = certify(k6)
    for v in (-1, -5, 1 << cert.dim):
        with pytest.raises(ValueError, match="outside"):
            cert.evidence(v)


def test_verifier_checks_unforced_verdict_and_counts(k6, k7_2adj):
    undecided = certify(k6)
    assert undecided.verdict == "UNDECIDED"
    assert verify_certificate(undecided) == (1 << undecided.dim) - len(undecided.unforced)
    first = undecided.unforced[0]
    with pytest.raises(ModelInvalid, match=f"no evidence forces assignment {first}$"):
        verify_certificate(dataclasses.replace(undecided, unforced=undecided.unforced[1:]))
    cert = certify(k7_2adj)
    assert cert.verdict == "CERTIFIED"
    for changes, message in [
        ({"unforced": [5], "verdict": "UNDECIDED"}, "assignment 5 is listed unforced"),
        ({"unforced": [5]}, "verdict CERTIFIED with 1 unforced"),
        ({"verdict": "UNDECIDED"}, "verdict UNDECIDED with 0 unforced"),
        ({"unforced": [5, 5], "verdict": "UNDECIDED"}, "not strictly increasing"),
        ({"unforced": [1 << cert.dim], "verdict": "UNDECIDED"}, "not strictly increasing"),
        # one assignment counted to C instead of A
        ({"counts": {**cert.counts, "A": cert.counts["A"] - 1, "C": cert.counts["C"] + 1}},
         "differ from the recount"),
    ]:
        with pytest.raises(ModelInvalid, match=message):
            verify_certificate(dataclasses.replace(cert, **changes))
    assert verify_certificate(cert) == 1 << cert.dim


def test_verifier_checks_that_lifts_contract_onto_their_pattern_cycles(k7_2adj, monkeypatch):
    cert = certify(k7_2adj)
    quad = cert.ctx.evidence(2, cert.ev_of[cert.rule_of.index(2)]).quad
    k6 = Graph.complete(6)
    # another triangle of the same quad: the altered lifts are 0-homologous
    # wherever the true ones are, so the key still covers what it forced,
    # and only the contraction check can tell them from the true ones
    other = k6.edge_mask(itertools.combinations(quad[:3], 2))
    real_lift = linkage.lift
    monkeypatch.setattr(
        linkage, "lift", lambda model, pmask: real_lift(model, pmask) ^ real_lift(model, other)
    )
    with pytest.raises(ModelInvalid, match="does not contract onto its pattern cycle"):
        verify_certificate(cert)


def _blown_up_k6_model() -> MinorModel:
    """A K6 model whose branch set of pattern vertex 0 is the triangle
    {0, 6, 7} (tree 0-6, 0-7), with a second host edge 1-6 between the
    branch sets of 0 and 1, and a host vertex 8 in no branch set."""
    k6 = Graph.complete(6)
    to_host = {(0, 3): (3, 6), (0, 4): (4, 6), (0, 5): (5, 7)}
    edge_map = tuple(to_host.get(e, e) for e in k6.edges)
    host = Graph.from_edges(9, [*edge_map, (0, 6), (0, 7), (6, 7), (1, 6), (1, 8), (2, 8)])
    sets = ((0, 6, 7),) + tuple((v,) for v in range(1, 6))
    trees = (((0, 6), (0, 7)),) + ((),) * 5
    return MinorModel(host, k6, sets, trees, edge_map)


@pytest.mark.parametrize(
    "extra, message",
    [
        # crosses from set 0 to set 1 on 1-6, not on the mapped edge 0-1
        ([(0, 1), (1, 6)], "off the mapped edges"),
        # a cycle inside set 0 through its non-tree edge 6-7
        ([(0, 6), (0, 7), (6, 7)], "leaves a branch tree"),
        ([(1, 2), (1, 8), (2, 8)], "leaves the branch sets"),
    ],
)
def test_verifier_checks_that_lifts_stay_on_the_model(extra, message, monkeypatch):
    model = _blown_up_k6_model()
    g = model.host
    evidence = RuleCEvidence(model, (0, 1, 2, 3))

    def claim():
        return linkage._evidence_claim(g, linkage._IndependentEvaluator(g), evidence)

    vectors, want = claim()
    assert (len(vectors), want) == (4, 0)
    mask = g.edge_mask(extra)
    real_lift = linkage.lift
    monkeypatch.setattr(linkage, "lift", lambda m, pmask: real_lift(m, pmask) ^ mask)
    with pytest.raises(ModelInvalid, match=message):
        claim()


def test_context_cache_is_shared_and_bounded(cold_contexts):
    g = Graph.complete(4)
    # the benchmark's worker warms rule_context(g) and expects certify to reuse it
    assert certify(g).ctx is rule_context(g) is rule_context(g, Limits())
    keys = [Limits(max_cycles=1000 + i) for i in range(65)]
    contexts = [rule_context(g, lim) for lim in keys]
    # a minimality scan re-certifies up to 18 minors on warm contexts
    assert all(rule_context(g, lim) is ctx for lim, ctx in zip(keys[-18:], contexts[-18:]))
    assert rule_context(g, keys[0]) is not contexts[0]


@pytest.mark.parametrize("rules", ["", "XYZ", "ABX", "A B"])
def test_bad_rule_strings_rejected(k44e, rules):
    with pytest.raises(ValueError, match="rule string"):
        certify(k44e, rules=rules)
    with pytest.raises(ValueError, match="rule string"):
        minimality_scan(k44e, rules=rules)


def test_context_cache_respects_limits(k7_2adj):
    assert certify(k7_2adj).verdict == "CERTIFIED"
    # K7-2adj has more than 10 simple cycles; the default-limits context
    # built above must not be reused
    with pytest.raises(SizeExceeded):
        certify(k7_2adj, limits=Limits(max_cycles=10))


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# sha256 of certify(...).to_json(include_timing=False), sha256 of the repr of
# the _rref keys of the C and B conditions in order, and the model count per
# pattern; pinned before absent minors were proved on 2-sum pieces and
# before rule B shared the K6 models of rule C.  The certificate shas were
# pinned again when stats.c_conditions / b_conditions came to count the
# conditions the sweep examined instead of all generated ones (both graphs
# are CERTIFIED, so only those two counts changed)
_GOLDEN = {
    "K6(01)+K331(02)": (
        "95d830b624ee7e11497f5100d5f480d5b554844a5d63f4fa81bd2e9528c4e11e",
        "6293b7eab99106dd1392f582c4e0d2329a4623e104323ae451ca2586afeeb5f2",
        "155c910ba16314339f33825f90e08be5509136f5cdd9770e0de6f0682a81ac5a",
        {"K6": 598, "K331": 324, "P7": 0, "K44-e": 0, "P8": 0, "P9": 0, "Petersen": 0},
    ),
    "K6t~K6t": (
        "576d58947066fdb7baac8d7b6513dbfb3b2b0b287bb145b2524bf4418c3b8924",
        "60f1291454606647404c96ae4f630c66d6fa050583226a9510cbb260c7e01a35",
        "3c88c7c45c5b65ecefb2ed35312c07282d4160908e3b8e6a0c3e2ea4a3e793ff",
        {"K6": 792, "K331": 0, "P7": 666, "K44-e": 0, "P8": 0, "P9": 0},
    ),
}


def _golden_graph(name: str) -> Graph:
    fam = petersen_family().members
    if name == "K6t~K6t":
        return load_fixture("k6_therefore_k6")
    if name == "K7-2adj":
        return Graph.complete(7).delete_edge(4, 6).delete_edge(5, 6)
    return glue_pair(fam["K6"], (0, 1), fam["K331"], (0, 2), 0)


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_certificates_and_conditions_pinned(name):
    g = _golden_graph(name)
    cert_sha, c_sha, b_sha, models = _GOLDEN[name]
    cert = certify(g)
    ctx = cert.ctx
    assert hashlib.sha256(cert.to_json(include_timing=False).encode()).hexdigest() == cert_sha
    assert _sha([key for key, _, _, _ in ctx.c_conditions]) == c_sha
    assert _sha([key for key, _, _, _ in ctx.b_conditions]) == b_sha
    assert {member: len(ms) for member, ms in ctx.b_models.items()} == models
    assert ctx.b_models["K6"] is ctx.c_models


def _conditions_with_rref_on_every_tuple(ctx, jobs) -> tuple[list, int]:
    """Reference for RuleContext._conditions: each kept subgraph's basis
    cycles are lifted through homology.lift, and every vector tuple goes
    through _rref, repeated or not.  Also returns how many tuples repeat."""
    seen, out, raw, repeats = set(), [], set(), 0
    for name, member, models, kept_sets in jobs:
        for mi, model in enumerate(models):
            for label, kept in kept_sets:
                sub = member.induced_subgraph(kept)
                vecs = tuple(
                    ctx.cs.signature(lift(model, member.edge_mask(
                        (kept[a], kept[b]) for a, b in sub.edges_of_mask(bmask))))
                    for bmask in cycle_space(sub).basis
                )
                repeats += vecs in raw
                raw.add(vecs)
                key = linkage._rref(vecs)
                if key not in seen:
                    seen.add(key)
                    out.append((key, name, mi, label))
    return out, repeats


def test_condition_tables_match_rref_on_every_tuple():
    # The one-step minors of K7-2adj are UNDECIDED, so certify reads their
    # condition tables in full; the tables skip _rref for a vector tuple
    # seen before, and must equal a reference that never skips.
    k6 = petersen_family().members["K6"]
    quads = [(quad, quad) for quad in itertools.combinations(range(6), 4)]
    g = _golden_graph("K7-2adj")
    repeats = 0
    for u, v in g.edges:
        for minor in (g.delete_edge(u, v), g.contract_edge(u, v)):
            ctx = linkage.RuleContext(minor)
            c_ref, c_repeats = _conditions_with_rref_on_every_tuple(
                ctx, [("K6", k6, ctx.c_models, quads)])
            b_ref, b_repeats = _conditions_with_rref_on_every_tuple(ctx, ctx._b_jobs())
            assert list(ctx.c_conditions) == c_ref
            assert list(ctx.b_conditions) == b_ref
            repeats += c_repeats + b_repeats
    assert repeats > 500  # the skip is exercised (969 repeated tuples)


def test_shared_signatures_match_edge_lifts():
    # _conditions reads each model's edge signatures from root-path
    # signatures shared by the models of one branch-set assignment; they
    # must equal the signatures of homology.edge_lifts, which shares nothing
    from test_minors import _STREAMS, _stream_host

    models = 0
    for name in sorted(_STREAMS):
        host = _stream_host(name)
        ctx = linkage.RuleContext(host)
        for member in petersen_family().members.values():
            stream = list(enumerate_minor_models(host, member))
            for model, sigs in zip(stream, ctx._edge_sigs(stream), strict=True):
                assert sigs == [ctx.cs.signature(e) for e in edge_lifts(model)], (name, model)
            models += len(stream)
    assert models > 8000


def _per_assignment_arrays(cert, w: int = 16) -> tuple[bytearray, array]:
    """The rule code and table index of the evidence of every assignment
    (0 and 0 where none), as certificates once stored them: rebuilt from
    the used keys a window of 2^w assignments at a time, each assignment
    taking the first key that forces it."""
    ctx = cert.ctx
    w = min(cert.dim, w)
    full = (1 << (1 << w)) - 1
    keys = []
    for code, idx in zip(cert.rule_of, cert.ev_of):
        if code == 1:
            sigs, want = [ctx.cycle_sigs[i] for i in ctx.pairs[idx]], 1
        else:
            sigs, want = ctx.conditions(code)[idx][0], 0
        # each signature as its parity bitmap on the window offsets, the
        # part above the window and the wanted parity
        keys.append((code, idx, [(linkage._parity_bitmap(r, w), r >> w, want) for r in sigs]))
    rule_of, ev_of = bytearray(), array("I")
    for win in range(1 << (cert.dim - w)):
        codes, idxs = bytearray(1 << w), array("I", [0]) * (1 << w)
        left = full
        for code, idx, vecs in keys:
            h = left
            for odd, high, want in vecs:
                h &= odd if ((high & win).bit_count() ^ want) & 1 else ~odd
            left ^= h
            for u in linkage._bits(h, 0):
                codes[u], idxs[u] = code, idx
        rule_of += codes
        ev_of += idxs
    return rule_of, ev_of


def _evidence_sha(cert) -> str:
    # the pins hash the per-assignment codes, and the repr of the list of
    # per-assignment indices
    rule_of, ev_of = _per_assignment_arrays(cert)
    return hashlib.sha256(bytes(rule_of) + repr(list(ev_of)).encode()).hexdigest()


def _json_sha_without_stats(cert) -> str:
    doc = cert.report_dict(include_timing=False)
    del doc["stats"]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the per-assignment rule codes + repr(list of indices), and of the
# certificate JSON minus stats; pinned before models and conditions were
# generated on demand, when certificates stored the per-assignment arrays
_EVIDENCE = {
    "K6(01)+K331(02)": (
        "436c1885a715c8579725b888cabf294b036e2501f0ed51899c85b83ec069bee8",
        "10e92fa9bfb120e8b43ca3714b78193e1734215f327cf253a4f55fc4717ef1ca",
    ),
    "K6t~K6t": (
        "7164de8a5dd319dfe0eb04beb6dd2454a906a42b74f21a410565cc9731e0b739",
        "e8d66e6e7b08be3863c48ae0a71a87bcf4aaeed9622ee62215afa91586fbc108",
    ),
    "K7-2adj": (
        "3f3d22a61c01f1de285f85b541d11585e2066c442779028509374578c6025ae0",
        "8965cdd820c46d2f8cf64b8a67ca98d89e35fe9ec533efd0116ac90d23a31969",
    ),
}


@pytest.mark.parametrize("name", sorted(_EVIDENCE))
def test_evidence_pinned(name):
    cert = certify(_golden_graph(name))
    assert (_evidence_sha(cert), _json_sha_without_stats(cert)) == _EVIDENCE[name]


@pytest.fixture
def cold_contexts():
    """An empty context cache for one test."""
    linkage.rule_context.cache_clear()


@pytest.mark.parametrize("name", ["K6(01)+K331(02)", "K7-2adj"])
def test_certificate_independent_of_cache_state(name, cold_contexts):
    g = _golden_graph(name)
    cold = certify(g)
    ctx = cold.ctx
    cold_filled = (ctx.c_conditions.filled, ctx.b_conditions.filled)
    # the cold run left a table unfinished; finish both
    assert cold_filled != (len(ctx.c_conditions), len(ctx.b_conditions))
    warm = certify(g)
    assert warm.ctx is ctx
    assert warm.to_json(include_timing=False) == cold.to_json(include_timing=False)
    # the used keys
    assert (bytes(warm.rule_of), warm.ev_of) == (bytes(cold.rule_of), cold.ev_of)


def test_certify_generates_only_the_prefix_it_uses(cold_contexts):
    cert = certify(load_fixture("k6_therefore_k6"))
    verify_certificate(cert)
    ctx = cert.ctx
    assert cert.verdict == "CERTIFIED"
    assert cert.stats["c_conditions"] == ctx.c_conditions.filled == 166
    assert cert.stats["b_conditions"] == ctx.b_conditions.filled == 0
    assert ctx.b_models["P7"].filled == 0
    assert ctx.c_models.filled < len(ctx.c_models)


@pytest.mark.parametrize(
    "fixture, rules",
    [("k7_minus_two_adjacent", "ABC"), ("k44_minus_e", "AB"), ("k6_therefore_k6", "ABC")],
)
def test_window_split_matches_default_window(fixture, rules, monkeypatch):
    # every graph in the suite has dim <= 16, so only shrunken windows reach
    # the high-bit flip in _Sweeper.ones and the merge of examined counts
    g = load_fixture(fixture)
    ref = certify(g, rules=rules)
    for bits in (4, 8):
        monkeypatch.setattr(linkage, "_WINDOW_BITS", bits)
        cert = certify(g, rules=rules)
        # the used keys do not depend on the window: first match is per assignment
        assert bytes(cert.rule_of) == bytes(ref.rule_of), bits
        assert cert.ev_of == ref.ev_of, bits
        assert cert.stats == ref.stats, bits
        assert cert.to_json(include_timing=False) == ref.to_json(include_timing=False)


def test_examined_counts_are_full_counts_when_undecided(k6):
    cert = certify(k6)
    assert cert.verdict == "UNDECIDED"
    assert cert.stats["c_conditions"] == len(cert.ctx.c_conditions)
    assert cert.stats["b_conditions"] == len(cert.ctx.b_conditions)


def test_failed_table_raises_again():
    def items():
        yield 1
        raise SizeExceeded("too big")

    table = linkage._OnDemand(items())
    assert table[0] == 1
    for access in (len, list, bool, lambda t: t[0], lambda t: t[1]):
        with pytest.raises(SizeExceeded):
            access(table)


def test_minimality_rules_normalised(k44e):
    assert minimality_scan(k44e, "ab").rules == certify(k44e, "ab").rules == "AB"
    assert minimality_scan(k44e, "ABC").rules == "ACB"


def _one_step_minors(g, report):
    return [
        g.delete_edge(*e.edge) if e.operation == "delete" else g.contract_edge(*e.edge)
        for e in report.entries
    ]


def _model_counts(ctx):
    return len(ctx.c_models), {name: len(models) for name, models in ctx.b_models.items()}


@pytest.mark.parametrize(
    "fixture, rules",
    [("k6_therefore_k6", "ABC"), ("k7_minus_two_adjacent", "ABC"), ("k44_minus_e", "AB")],
)
def test_minimality_scan_inherits_absences_exactly(fixture, rules, monkeypatch, cold_contexts):
    g = load_fixture(fixture)
    members = petersen_family().members.values()
    absent = {m for m in members if is_minor(m, g) is None}
    # every search the minors make for themselves, outside the proofs on g
    searched, proving = [], [0]
    real_absent, real_search = linkage._proved_absent, minors._backtrack_models

    def proved_absent(member, host, limits):
        proving[0] += 1
        try:
            return real_absent(member, host, limits)
        finally:
            proving[0] -= 1

    def search(host, pattern):
        if not proving[0]:
            searched.append(pattern)
        return real_search(host, pattern)

    monkeypatch.setattr(linkage, "_proved_absent", proved_absent)
    monkeypatch.setattr(minors, "_backtrack_models", search)
    real_absent.cache_clear()
    report = minimality_scan(g, rules)
    assert not set(searched) & absent
    graphs = _one_step_minors(g, report)
    # the scan's contexts are still cached: certify reuses them
    warm = [(certify(h, rules), _model_counts(rule_context(h))) for h in graphs]
    linkage.rule_context.cache_clear()
    for entry, h, (warm_cert, warm_counts) in zip(report.entries, graphs, warm):
        cold = certify(h, rules)
        assert not cold.ctx.minor_of
        assert (entry.verdict, entry.unforced_count) == (cold.verdict, len(cold.unforced))
        assert warm_cert.to_json(include_timing=False) == cold.to_json(include_timing=False)
        assert (bytes(warm_cert.rule_of), warm_cert.ev_of) == (bytes(cold.rule_of), cold.ev_of)
        assert warm_counts == _model_counts(cold.ctx)


@pytest.mark.parametrize(
    "limits, error",
    [
        (Limits(max_dim=5), DimensionExceeded),
        (Limits(max_cycles=10), SizeExceeded),
        # the cap is checked before the cycles are enumerated, as in certify
        (Limits(max_dim=5, max_cycles=10), DimensionExceeded),
    ],
)
def test_minimality_scan_errors_follow_certify(k7_2adj, limits, error, cold_contexts):
    for h in _one_step_minors(k7_2adj, minimality_scan(k7_2adj)):
        with pytest.raises(error):
            certify(h, limits=limits)
    with pytest.raises(error):
        minimality_scan(k7_2adj, limits=limits)


def test_multi_window_certificate_pinned():
    # K6+K331 has dim 19: eight windows of 2^16 at the default window size,
    # so the high-bit flip and the merge of windows run unshrunk.  Pinned
    # before cycle bitmaps were cached per window and forced bitmaps
    # decoded bytewise, and before certificates kept only the used keys
    fam = petersen_family().members
    cert = certify(fam["K6"].disjoint_union(fam["K331"]))
    assert cert.dim == 19
    assert len(cert.rule_of) == 118
    assert tuple(cert.rule_of.count(code) for code in (1, 2, 3)) == (107, 10, 1)
    assert _evidence_sha(cert) == (
        "29eaf2e9f0411e611121b8aa1359abef17a8c2763de6f2a676f5d19a39625ef5"
    )
    assert hashlib.sha256(cert.to_json(include_timing=False).encode()).hexdigest() == (
        "9293e66f6b1e3786bdfa4e1ef9fb38d1f47cc696666a4905aff60086785bef73"
    )
    assert cert.stats == {
        "cycles": 347, "disjoint_pairs": 29569, "c_conditions": 15, "b_conditions": 7,
    }


@st.composite
def _small_graphs(draw):
    n = draw(st.sampled_from([7, 6, 5, 4]))
    pairs = list(itertools.combinations(range(n), 2))
    # dense first, for K6 and K331 minors; at most n + 9 edges keeps the
    # dimension at 10 or less
    dropped = draw(st.sets(st.sampled_from(pairs), min_size=max(0, len(pairs) - n - 9)))
    return Graph.from_edges(n, [e for e in pairs if e not in dropped])


def _first_firing_rule(g, v, ctx):
    phi = HomologyAssignment(g, v)
    for rule in (rule_a, rule_c, rule_b):
        ev = rule(g, phi, ctx)
        if ev is not None:
            return ev
    return None


@st.composite
def _small_unions(draw):
    # two sides of dimension 5 or less: in a window whose undecided
    # assignments are even on one side, that side's cycles die
    sides = []
    for _ in range(2):
        n = draw(st.sampled_from([5, 4]))
        pairs = list(itertools.combinations(range(n), 2))
        dropped = draw(st.sets(st.sampled_from(pairs), min_size=max(0, len(pairs) - n - 4)))
        sides.append(Graph.from_edges(n, [e for e in pairs if e not in dropped]))
    return sides[0].disjoint_union(sides[1])


@given(st.one_of(_small_graphs(), _small_unions()))
@example(load_fixture("k331"))  # rule B fires
@example(load_fixture("p7"))
@example(Graph.complete(6))  # rule C fires
@example(Graph.complete(4).disjoint_union(Graph.complete(5)))
@settings(max_examples=60, deadline=None)
def test_sweep_matches_single_shot_rules(g):
    cert = certify(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linkage, "_WINDOW_BITS", 3)
        split = certify(g)
    assert split.ctx is cert.ctx
    for v in range(1 << cert.dim):
        want = _first_firing_rule(g, v, cert.ctx)
        assert cert.evidence(v) == want, v
        assert split.evidence(v) == want, v


def _per_assignment_verify(cert) -> int:
    """Reference for verify_certificate, one assignment at a time: each
    key's claim is found once, each assignment is counted to the rule of
    the first key whose claim holds at it, and the assignments that no
    claim holds at must be the unforced ones."""
    g, ctx = cert.graph, cert.ctx
    keys = list(zip(cert.rule_of, cert.ev_of))
    if len(cert.rule_of) != len(cert.ev_of) or keys != sorted(set(keys)):
        raise ModelInvalid("the keys are not strictly increasing")
    ev = linkage._IndependentEvaluator(g)
    claims = []
    for key in keys:
        if not ctx.has_entry(*key):
            raise ModelInvalid(f"no evidence {key}")
        claims.append((key[0], linkage._evidence_claim(g, ev, ctx.evidence(*key))))
    counts, uncovered = {"A": 0, "C": 0, "B": 0}, []
    for v in range(1 << cert.dim):
        for code, (vectors, want) in claims:
            if all((c & v).bit_count() & 1 == want for c in vectors):
                counts[" ACB"[code]] += 1
                break
        else:
            uncovered.append(v)
    verdict = "UNDECIDED" if uncovered else "CERTIFIED"
    if (uncovered, counts, verdict) != (cert.unforced, cert.counts, cert.verdict):
        raise ModelInvalid("the keys do not reproduce the certificate")
    return sum(counts.values())


def _verdict(verify, cert):
    try:
        return verify(cert)
    except ModelInvalid:
        return "ModelInvalid"


@given(
    st.one_of(
        st.sampled_from([
            load_fixture("k331"),  # rule B fires
            Graph.complete(6),  # rule C fires
            Graph.complete(4).disjoint_union(Graph.complete(5)),
        ]),
        _small_graphs(),
        _small_unions(),
    ),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_windowed_verifier_matches_per_assignment_loop(g, data):
    cert = certify(g)
    assert verify_certificate(cert) == (1 << cert.dim) - len(cert.unforced)
    # tamper with the key list: another rule code (0 is none) for a key,
    # one bit of its index flipped, a key dropped or two keys swapped; and
    # then, or not, sort the keys again
    keys = list(zip(cert.rule_of, cert.ev_of))
    top = max([idx for _, idx in keys], default=0).bit_length()
    for _ in range(data.draw(st.integers(0, 3))):
        if not keys:
            break
        k = data.draw(st.integers(0, len(keys) - 1))
        code, idx = keys[k]
        move = data.draw(st.sampled_from(["code", "index", "drop", "swap"]))
        if move == "code":
            keys[k] = (data.draw(st.sampled_from([c for c in range(4) if c != code])), idx)
        elif move == "index":
            keys[k] = (code, idx ^ 1 << data.draw(st.integers(0, top)))
        elif move == "drop":
            del keys[k]
        else:
            j = data.draw(st.integers(0, len(keys) - 1))
            keys[k], keys[j] = keys[j], keys[k]
    if data.draw(st.booleans()):
        keys = sorted(set(keys))
    tampered = _with_keys(cert, keys)
    with pytest.MonkeyPatch.context() as mp:
        # windows of 8 assignments: many windows, keys that span several
        mp.setattr(linkage, "_VERIFY_BITS", 3)
        for c in (cert, tampered):
            assert _verdict(verify_certificate, c) == _verdict(_per_assignment_verify, c)
