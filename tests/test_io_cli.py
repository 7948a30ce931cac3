from __future__ import annotations

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
    load_fixture,
    load_graph_records,
    parse_graph,
)
from rp3link.cli import RunConfig, main
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


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(expect="maybe")


def test_bad_rule_strings_rejected_by_config_and_cli(capsys):
    with pytest.raises(ValueError, match="rule string"):
        RunConfig(rules="XYZ")
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
