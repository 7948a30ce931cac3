"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Heavy certifications share a session-scoped cache and use a
process pool where the criterion budget asks for it.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from rp3link import (
    Graph,
    build_catalog,
    canonical_form,
    certify,
    enumerate_assignments,
    evaluate,
    grand_total,
    is_minor,
    k33_census,
    minimality_scan,
    orbits,
    petersen_family,
    restrict,
    sporadic_graphs,
    therefore_family,
    verify_certificate,
)
from rp3link import linkage
from rp3link.homology import all_simple_cycles


def _report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


# -- 1. Petersen family --------------------------------------------------------


def test_criterion_01_petersen_family():
    t0 = time.time()
    fam = petersen_family()
    elapsed = time.time() - t0
    assert len(fam.members) == 7
    assert sorted(g.n for g in fam.members.values()) == [6, 7, 7, 8, 8, 9, 10]
    k44e = Graph.complete_bipartite(4, 4).delete_edge(0, 4)
    eight = [g for g in fam.members.values() if g.n == 8]
    assert any(canonical_form(g) == canonical_form(k44e) for g in eight)
    assert elapsed < 5.0
    _report(1, f"7 classes incl. K44-e, closure in {elapsed:.2f}s")


# -- 2 & 3. Table reproduction ---------------------------------------------------

_TABLE = {
    "K6": (1, 1, 0),
    "K331": (2, 3, 1),
    "P7": (3, 5, 3),
    "P8": (4, 10, 7),
    "P9": (2, 6, 2),
    "Petersen": (1, 2, 0),
}


def test_criterion_02_vertex_classes():
    fam = petersen_family()
    got = tuple(
        orbits(fam.members[n]).vertex_class_count for n in _TABLE
    )
    assert got == (1, 2, 3, 4, 2, 1)
    _report(2, f"vertex classes {got}")


def test_criterion_03_pair_classes():
    fam = petersen_family()
    totals = []
    ones = []
    for n in _TABLE:
        t = orbits(fam.members[n])
        totals.append(t.pair_class_count)
        ones.append(t.vfn_one_count)
    assert tuple(totals) == (1, 3, 5, 10, 6, 2)
    assert tuple(ones) == (0, 1, 3, 7, 2, 0)
    _report(3, f"pair classes {tuple(totals)}, vfn=1 {tuple(ones)}")


# -- 4. Catalog counts -----------------------------------------------------------


def test_criterion_04_catalog_counts():
    reports = {k: build_catalog(k) for k in (0, 1, 2)}
    formula = tuple(reports[k].formula_count for k in (0, 1, 2))
    distinct = tuple(reports[k].distinct_count for k in (0, 1, 2))
    findings = [f for k in (0, 1, 2) for f in reports[k].findings]
    assert formula == (21, 91, 469)
    if findings:
        pytest.fail(f"catalog findings: {findings}")
    _report(4, f"formula {formula}, constructed-distinct {distinct}")


# -- 5. K33 census ----------------------------------------------------------------


def test_criterion_05_k33_census():
    census = k33_census()
    assert census == {"AllZero": 1, "FourPattern": 9, "SixPattern": 6}
    k32 = Graph.complete_bipartite(3, 2)
    fours = [c for c in all_simple_cycles(k32) if c.bit_count() == 4]
    for phi in enumerate_assignments(k32):
        assert sum(evaluate(phi, c) for c in fours) % 2 == 0
    _report(5, f"census {census}, all 4 assignments on K32 have even counts")


# -- 6-8. certifications -----------------------------------------------------------


def test_criterion_06_k44e():
    g = Graph.complete_bipartite(4, 4).delete_edge(0, 4)
    t0 = time.time()
    cert = certify(g, rules="AB")
    elapsed = time.time() - t0
    assert cert.verdict == "CERTIFIED"
    assert 1 << cert.dim == 256
    checked = verify_certificate(cert)
    assert checked == 256
    assert elapsed < 10.0
    _report(6, f"CERTIFIED 256/256 via {cert.counts}, re-validated, {elapsed:.2f}s")


@pytest.mark.parametrize("name", ["K7-2adj", "K7-2nonadj"])
def test_criterion_07_k7_minus_two_edges(name):
    g = sporadic_graphs()[name]
    t0 = time.time()
    cert = certify(g, rules="ABC")
    elapsed = time.time() - t0
    assert 1 << cert.dim == 8192
    if cert.verdict != "CERTIFIED":
        pytest.fail(
            f"{name}: unforced assignments found:\n"
            + "\n".join(cert.unforced_serials())
        )
    assert verify_certificate(cert) == 8192
    assert elapsed < 300.0
    _report(7, f"{name} CERTIFIED 8192/8192 via {cert.counts} in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_08_k6_therefore_k6():
    tf = therefore_family()
    g = next(g for n1, n2, i, g in tf.gluings if (n1, n2, i) == ("K6t", "K6t", 1))
    t0 = time.time()
    cert = certify(g, rules="ABC")
    elapsed = time.time() - t0
    assert 1 << cert.dim == 65536
    assert cert.verdict == "CERTIFIED"
    assert verify_certificate(cert) == 65536
    assert elapsed < 300.0
    _report(8, f"CERTIFIED 65536/65536 via {cert.counts} in {elapsed:.1f}s")


# -- 9. delta-wye family ------------------------------------------------------------


def _certify_gluing(args):
    n1, n2, idx, g = args
    cert = certify(g, rules="ABC")
    verify_certificate(cert)
    return (n1, n2, idx, cert.verdict, len(cert.unforced))


@pytest.mark.slow
def test_criterion_09_therefore_family():
    tf = therefore_family()
    assert len(tf.gluings) == 18
    assert len(tf.with_k44e_minor) == 5
    assert all("P7At" in (n1, n2) for n1, n2, _ in tf.with_k44e_minor)
    assert len(tf.minimal_candidates) == 13
    jobs = [(n1, n2, i, g) for n1, n2, i, g in tf.minimal_candidates]
    fork = mp.get_context("fork")
    with ProcessPoolExecutor(max_workers=8, mp_context=fork) as pool:
        results = list(pool.map(_certify_gluing, jobs))
    bad = [r for r in results if r[3] != "CERTIFIED"]
    assert not bad, f"uncertified gluings: {bad}"
    _report(9, "18 classes, 5 with K44-e minor, remaining 13 all CERTIFIED")


# -- 10. negative controls ------------------------------------------------------------


def test_criterion_10_negative_controls():
    fam = petersen_family()
    subsets = ["A", "B", "C", "AB", "AC", "BC", "ABC"]
    for name, g in fam.projective_planar.items():
        for rules in subsets:
            cert = certify(g, rules=rules)
            assert cert.verdict == "UNDECIDED", (name, rules)
            assert len(cert.unforced) >= 1
    _report(10, f"all 6 projective-planar members UNDECIDED under {len(subsets)} rule subsets")


# -- 11. minimality scans ---------------------------------------------------------------


def _scan(args):
    name, g, rules = args
    rep = minimality_scan(g, rules=rules)
    return name, rep.engine_minimal, rep.edge_orbit_count, [
        (e.operation, e.edge, e.verdict) for e in rep.entries
    ]


@pytest.mark.slow
def test_criterion_11_minimality_scans():
    sp = sporadic_graphs()
    tf = therefore_family()
    p9bp9b = next(
        g for n1, n2, i, g in tf.gluings if (n1, n2, i) == ("P9Bt", "P9Bt", 1)
    )
    jobs = [
        ("K44-e", sp["K44-e"], "AB"),
        ("K7-2adj", sp["K7-2adj"], "ABC"),
        ("K7-2nonadj", sp["K7-2nonadj"], "ABC"),
        ("P9BtP9Bt", p9bp9b, "ABC"),
    ]
    fork = mp.get_context("fork")
    with ProcessPoolExecutor(max_workers=4, mp_context=fork) as pool:
        results = list(pool.map(_scan, jobs))
    summary = []
    for name, minimal, orbit_count, entries in results:
        assert minimal, (name, entries)
        summary.append(f"{name}({orbit_count} orbits)")
    _report(11, "all one-step minors UNDECIDED for " + ", ".join(summary))


# -- 12. reconciliation --------------------------------------------------------------------


def test_criterion_12_reconciliation():
    doc = grand_total()
    assert doc["counts"]["k0"] + doc["counts"]["k1"] + doc["counts"]["k2"] == 581
    assert doc["counts"]["deltawye"] == 13
    assert doc["total_without_sporadic"] == 594
    assert doc["total_with_sporadic"] == 597
    assert doc["sporadic"] == ["K44-e", "K7-2adj", "K7-2nonadj"]
    _report(12, "totals 21+91+469+13 = 594 and 594+3 = 597 both reported")


# -- 13. determinism --------------------------------------------------------------------------


def test_criterion_13_determinism():
    tf = therefore_family()
    g = next(g for n1, n2, i, g in tf.gluings if (n1, n2, i) == ("K6t", "K6t", 1))
    docs = []
    for cold in (True, False, True):
        if cold:
            linkage.rule_context.cache_clear()
        cert = certify(g, rules="ABC")
        docs.append(cert.to_json(include_timing=False))
    assert docs[0] == docs[1] == docs[2]
    manifests = []
    for _ in range(2):
        rep = build_catalog(2)
        manifests.append(
            json.dumps(
                {
                    "formula": rep.formula_count,
                    "codes": sorted(e.code_g6 for e in rep.entries),
                    "provenance": [list(e.provenance) for e in rep.entries],
                },
                sort_keys=True,
            )
        )
    assert manifests[0] == manifests[1]
    _report(13, "certificates byte-identical cold, warm and cold again; manifests stable")
