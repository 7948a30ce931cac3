from __future__ import annotations

import hashlib
import json
import random

import networkx as nx
import pytest

from rp3link import (
    Graph,
    MarkedGraph,
    canonical_form,
    emit_edge_list,
    fixture_path,
    g6_to_graph,
    graph_to_g6,
    k6_therefore,
    load_fixture,
    load_graph_records,
    parse_graph,
)
from rp3link.cli import main
from rp3link.config import Limits, limits_from_env
from rp3link.errors import DuplicateEdge, LoopEdge, ParseError

from conftest import random_graph


def test_parse_simple():
    g = parse_graph("2 1\n0 1\n")
    assert g == Graph.from_edges(2, [(0, 1)])


def test_parse_comments_and_marks():
    text = "# a marked triangle-free pair\n4 2\n0 3  # one\n1 3\nmarks: 0 1 2\n"
    m = parse_graph(text)
    assert isinstance(m, MarkedGraph)
    assert m.marks == (0, 1, 2)


def test_parse_errors():
    with pytest.raises(LoopEdge):
        parse_graph("3 1\n0 0\n")
    with pytest.raises(DuplicateEdge):
        parse_graph("3 2\n0 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_graph("3 2\n0 1\n")
    with pytest.raises(ParseError):
        parse_graph("")


def test_non_integer_mark_names_its_line(tmp_path, capsys):
    with pytest.raises(ParseError, match=r"non-integer mark in 'marks: a b c' \(line 2\)"):
        parse_graph("3 0\nmarks: a b c\n")
    path = tmp_path / "marks.txt"
    path.write_text("3 0\nmarks: 0 1 x\n")
    assert main(["orbits", str(path)]) == 1
    assert "(line 2)" in capsys.readouterr().err


def test_fixture_k44e(k44e):
    g = load_fixture("k44_minus_e")
    assert g.n == 8 and g.m == 15
    assert canonical_form(g) == canonical_form(k44e)


def test_fixture_marked():
    m = load_fixture("k6_therefore")
    assert isinstance(m, MarkedGraph)
    assert m.graph.n == 6 and m.graph.m == 12


def test_edge_list_round_trip():
    rng = random.Random(10)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 9), 0.5)
        assert parse_graph(emit_edge_list(g)) == g
    m = load_fixture("p9b_therefore")
    assert parse_graph(emit_edge_list(m)) == m


def test_graph6_round_trip_and_oracle():
    rng = random.Random(20)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 12), 0.5)
        s = graph_to_g6(g)
        assert g6_to_graph(s) == g
        h = nx.from_graph6_bytes(s.encode())
        assert {tuple(sorted(e)) for e in h.edges()} == set(g.edges)
        assert h.number_of_nodes() == g.n


def test_load_graph_records(tmp_path):
    g1 = Graph.complete(4)
    g2 = Graph.cycle_graph(5)
    path = tmp_path / "mixed.txt"
    path.write_text(graph_to_g6(g1) + "\n# comment\n" + emit_edge_list(g2))
    loaded = load_graph_records(path)
    assert loaded == [g1, g2]
    # a marks line closes its record and is dropped with the marks
    m = k6_therefore()
    path.write_text(emit_edge_list(m) + emit_edge_list(g1))
    assert load_graph_records(path) == [m.graph, g1]


def test_cli_rejects_bad_expectation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--expect", "maybe", "certify", str(fixture_path("k6"))])
    assert exc.value.code == 2
    assert "invalid choice: 'maybe'" in capsys.readouterr().err


def test_bad_rule_strings_rejected_by_cli(capsys):
    # every subcommand checks --rules, not only those that run rules
    assert main(["--rules", "XYZ", "petersen"]) == 1
    assert "rule string" in capsys.readouterr().err
    path = str(fixture_path("k44_minus_e"))
    assert main(["--rules", "XYZ", "--expect", "undecided", "certify", path]) == 1
    assert "rule string" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("max_dim", -3), ("max_vertices", 0), ("max_cycles", "10")]
)
def test_limits_reject_non_positive_ints(field, value):
    with pytest.raises(ValueError, match=field):
        Limits(**{field: value})


@pytest.mark.parametrize("raw", ["abc", "-3", "0"])
def test_limits_from_env_names_the_variable(monkeypatch, capsys, raw):
    monkeypatch.setenv("RP3LINK_MAX_DIM", raw)
    with pytest.raises(ValueError, match="RP3LINK_MAX_DIM"):
        limits_from_env()
    assert main(["certify", str(fixture_path("k6"))]) == 1
    assert "RP3LINK_MAX_DIM" in capsys.readouterr().err


def test_cli_petersen(capsys):
    assert main(["petersen"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 7


def test_cli_certify_expectations(capsys):
    path = str(fixture_path("k44_minus_e"))
    assert main(["--rules", "AB", "--expect", "certified", "certify", path]) == 0
    capsys.readouterr()
    assert main(["--rules", "AB", "--expect", "undecided", "certify", path]) == 2
    capsys.readouterr()
    k6path = str(fixture_path("k6"))
    assert main(["--expect", "undecided", "certify", k6path]) == 0
    out = capsys.readouterr().out
    assert "UNDECIDED" in out and "not a non-linking proof" in out


def test_cli_certify_json_stable(capsys):
    path = str(fixture_path("k44_minus_e"))
    outs = []
    for _ in range(2):
        argv = ["--rules", "AB", "--format", "json", "certify", path, "--no-timing"]
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["verdict"] == "CERTIFIED"
    assert doc["dim"] == 8


# sha256 of the stdout of `rp3link --format json certify <fixture> --no-timing`
# for every bundled fixture, pinned before lifts were made linear and the
# rule-C and rule-B conditions came from one stream
_CLI_CERTIFY_SHA = {
    "k331": "dfd6c131cdb1709249663bf093c4ead07bcb18640100a366ae70faece9ea0906",
    "k44_minus_e": "4163e3111d5f289763dfda8be85be72d4fa403ac194dff33f92552c53ceab27d",
    "k6": "616e35e5e068453a3dfac0ccdf080ea9b22b58ae288db4d029d93a6505d85eae",
    "k6_therefore": "b2e930f6d13bcaddfd5f6e3c385de5a53774deb20782bf6ab9b4a7ed017a2277",
    "k6_therefore_k6": "576d58947066fdb7baac8d7b6513dbfb3b2b0b287bb145b2524bf4418c3b8924",
    "k7_minus_two_adjacent": "6555ae2ede9ccdf596a5b3ef1a2521011280590097d4cf3981c65d91c662d0b5",
    "k7_minus_two_nonadjacent": "91935ad7b89d137799d6c44295f97862d86e5e7499bbc09f12a47288dd31972e",
    "p7": "0b10e36c453736f7480d45aa9e0575570d7a4c2d3b2d81acb002cf242969acca",
    "p7a_therefore": "2cdf9d7ec0f9c5a9c3aabc98c24993b5d85b96693af0fd98b80ef2c26513f62d",
    "p7b_therefore": "fcc1c4db46909b79c41b623c227574e31b7e0fb4f511188c3b446923afd7324f",
    "p8": "028a2ba9a87184da3af3ae7b9766ba77af286d020eebc1d9404a849c1fc5389d",
    "p8b_therefore": "9c08708ca5d56b59930c54131519c40167291e2a267eeb65aa187ac505f1330f",
    "p9": "71711b0ebf8da7d8a1b99cc8e7591404ba762ac9eb6c71a8fc0c169ae1cb5a11",
    "p9b_therefore": "98f368ed72a36c65b642c6d9a2db541980df34307d91265c1eb50617ed7cb9ab",
    "p9b_therefore_p9b": "71dee61b88da652cf1373ebe16220d4bf78a847a278fca1185768969789fd232",
    "petersen": "54f2d023a798ee17df970c439a0c4bf18e107c87dc288308b3f28d0a34b2c5e7",
}
# its Petersen-family minor search takes most of a minute
_SLOW_FIXTURES = {"p9b_therefore_p9b"}


def test_every_fixture_is_pinned():
    data = fixture_path("k6").parent
    assert {p.stem for p in data.glob("*.txt")} == set(_CLI_CERTIFY_SHA)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow) if name in _SLOW_FIXTURES else name
        for name in sorted(_CLI_CERTIFY_SHA)
    ],
)
def test_cli_certify_json_pinned(name, capsys):
    assert main(["--format", "json", "certify", str(fixture_path(name)), "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _CLI_CERTIFY_SHA[name]


def test_cli_orbits_table_row(capsys):
    assert main(["--format", "json", "orbits", str(fixture_path("p8"))]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertex_classes"] == 4
    assert doc["pair_classes"] == 10
    assert doc["vfn_one"] == 7


def test_cli_patterns(capsys):
    assert main(["--format", "json", "patterns"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["census"] == {"AllZero": 1, "FourPattern": 9, "SixPattern": 6}


def test_cli_minor(capsys):
    assert main(["minor", str(fixture_path("k6")), str(fixture_path("petersen"))]) == 0
    out = capsys.readouterr().out
    assert "minor: False" in out
    assert main(["minor", str(fixture_path("k6")), str(fixture_path("k7_minus_two_adjacent"))]) == 0
    out = capsys.readouterr().out
    assert "minor: True" in out


def test_cli_minimality(capsys):
    assert main(["--rules", "AB", "minimality", str(fixture_path("k44_minus_e"))]) == 0
    out = capsys.readouterr().out
    assert "engine-minimal: True" in out


# sha256 of the stdout of `rp3link [--rules AB] --format json minimality
# <fixture>`, pinned before the one-step minors inherited the scanned
# graph's proved minor absences
_CLI_MINIMALITY_SHA = {
    ("k6", "ABC"): "dfdb8f596dd1b8ab818dffa1935914cf679248f49e4a8a8045f6e1ee3847d1ac",
    ("k44_minus_e", "AB"): "4ad5ea5875242a02dc8581e2be3e14745cba606616d4efb614b99af6f9d8ce3a",
    ("k7_minus_two_adjacent", "ABC"): (
        "c4b9daaafaa7c263516f3967c34bfe6bc48e3d882aae84067d7d009223d5863e"
    ),
    ("k7_minus_two_nonadjacent", "ABC"): (
        "c0b99860bc35c604aa3001b4df6ad7fc9def5251c8758a799b798284d7ebe06e"
    ),
    ("k6_therefore_k6", "ABC"): (
        "220a565962debd6b327589e87cd1c776f63679e36f718a18a8b5ecb75417ebd4"
    ),
}


@pytest.mark.parametrize("name, rules", sorted(_CLI_MINIMALITY_SHA))
def test_cli_minimality_json_pinned(name, rules, capsys):
    assert main(["--rules", rules, "--format", "json", "minimality", str(fixture_path(name))]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _CLI_MINIMALITY_SHA[name, rules]


def test_cli_catalog_and_reconcile(capsys, tmp_path):
    assert main(["--format", "json", "catalog", "0", "--out", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["catalogs"][0]["formula_count"] == 21
    manifest = json.loads((tmp_path / "manifest_k0.json").read_text())
    assert manifest["distinct_count"] == 21
    assert len(list(tmp_path.glob("k0_*.txt"))) == 21
    assert main(["--format", "json", "reconcile"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_without_sporadic"] == 594
    assert doc["total_with_sporadic"] == 597


def test_cli_error_exit(capsys):
    assert main(["certify", "/nonexistent/file.txt"]) == 1
    assert "error:" in capsys.readouterr().err
