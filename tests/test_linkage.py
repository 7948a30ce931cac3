from __future__ import annotations

import hashlib
import json
import random

import pytest

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
    evaluate,
    glue_pair,
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
from rp3link import linkage
from rp3link.config import Limits
from rp3link.errors import DimensionExceeded, SizeExceeded
from rp3link.homology import cycle_vertices

from conftest import brute_force_automorphisms


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


def test_determinism_across_jobs(k7_2adj):
    c1 = certify(k7_2adj, rules="ABC", jobs=1)
    c4 = certify(k7_2adj, rules="ABC", jobs=4)
    assert bytes(c1.rule_of) == bytes(c4.rule_of)
    assert c1.ev_of == c4.ev_of
    assert c1.to_json(include_timing=False) == c4.to_json(include_timing=False)


def test_minimality_k44e(k44e):
    report = minimality_scan(k44e, rules="AB")
    assert report.edge_orbit_count == 2
    assert report.engine_minimal
    assert all(e.verdict == "UNDECIDED" for e in report.entries)


def test_minimality_k6_monotone(k6):
    report = minimality_scan(k6, rules="ABC")
    assert report.engine_minimal  # K6 itself is UNDECIDED, so are its minors


def test_certificate_verification_catches_tampering(k44e):
    from rp3link.errors import ModelInvalid

    cert = certify(k44e, rules="AB")
    ctx = cert.ctx
    # point some assignment's evidence at a pair that is not both-1 for it
    target = bad = None
    for v in range(256):
        if cert.rule_of[v] != 1:
            continue
        phi = HomologyAssignment(k44e, v)
        for pid, (i, j) in enumerate(ctx.pairs):
            if pid == cert.ev_of[v]:
                continue
            if not (
                evaluate(phi, ctx.cycles[i]) and evaluate(phi, ctx.cycles[j])
            ):
                target, bad = v, pid
                break
        if target is not None:
            break
    assert target is not None
    original = cert.ev_of[target]
    cert.ev_of[target] = bad
    try:
        with pytest.raises(ModelInvalid):
            verify_certificate(cert, sample=[target])
    finally:
        cert.ev_of[target] = original


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
    assert _sha([key for key, _, _ in ctx.c_conditions]) == c_sha
    assert _sha([key for key, _, _, _ in ctx.b_conditions]) == b_sha
    assert {member: len(ms) for member, ms in ctx.b_models.items()} == models
    assert ctx.b_models["K6"] is ctx.c_models


def _evidence_sha(cert) -> str:
    return hashlib.sha256(bytes(cert.rule_of) + repr(cert.ev_of).encode()).hexdigest()


def _json_sha_without_stats(cert) -> str:
    doc = cert.report_dict(include_timing=False)
    del doc["stats"]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of bytes(rule_of) + repr(ev_of), and of the certificate JSON minus
# stats; pinned before models and conditions were generated on demand
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
def cold_contexts(monkeypatch):
    """An empty context cache for one test."""
    monkeypatch.setattr(linkage, "_CTX_CACHE", {})


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


def test_forked_sweep_leaves_the_tables_lazy(cold_contexts):
    # window 0 is swept before forking and the workers fill their own copies
    # of the tables, each only as far as its windows read them
    g = load_fixture("k6_therefore_k6")
    cert = certify(g, jobs=2)
    assert cert.ctx.b_conditions.filled == 0
    assert 0 < cert.ctx.c_conditions.filled <= cert.stats["c_conditions"] == 166
    assert cert.stats == certify(g).stats


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
