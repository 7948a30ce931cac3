"""Workload inputs, built from rp3link's public constructors.

`build` runs in a fresh process: it imports rp3link (the package under
``src/`` of the checkout, never an installed copy), builds the workload's
graphs and relabels each one with a permutation drawn from the workload
seed.  Its duration is the benchmark's set-up time.  This module imports
rp3link only inside `build`, so that the import is part of what it times.
"""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOADS = ("disjoint", "catalog2", "gluing", "minimality")


def _therefore_members(rp) -> dict:
    """The marked K6t, P7Bt and P8Bt, made with `delta_y` as the delta-wye
    closure of `therefore_family` makes them.  `therefore_family` itself is
    not called: its K44-e absence proofs are engine work, not set-up."""
    k6t = rp.k6_therefore()
    # (0, 3, 4) holds one mark; the wye on the unmarked triangle (3, 4, 5)
    # would give the triangle-free P7At instead
    p7b = rp.MarkedGraph(rp.delta_y(k6t.graph, (0, 3, 4)), k6t.marks)
    # the closure has a single 8-vertex class
    p8b = rp.MarkedGraph(rp.delta_y(p7b.graph, p7b.graph.triangles()[0]), k6t.marks)
    return {"K6t": k6t, "P7Bt": p7b, "P8Bt": p8b}


def _gluings(rp, marked: dict, n1: str, n2: str) -> list[tuple[str, object]]:
    """The distinct gluings of two marked members over the six mark
    matchings, numbered in canonical-code order as `therefore_family`
    numbers its variants."""
    variants = {}
    for matching in itertools.permutations((0, 1, 2)):
        g = rp.glue_therefore(marked[n1], marked[n2], matching)
        variants.setdefault(rp.canonical_form(g), g)
    codes = sorted(variants)
    if len(codes) == 1:
        return [(f"{n1}~{n2}", variants[codes[0]])]
    return [(f"{n1}~{n2}/{i}", variants[c]) for i, c in enumerate(codes, 1)]


def _graphs(rp, workload: str) -> list[tuple[str, str, object]]:
    """(input name, rules, graph) for every input of the workload, the
    slowest first: samples beyond the first of each input go round robin
    in this order while they fit in the run."""
    # catalog entries are built as `build_catalog` builds them, without
    # building (and canonically relabelling) the whole catalog
    members = rp.petersen_family().members
    k6, k331 = members["K6"], members["K331"]
    if workload == "disjoint":
        return [
            ("K6+K6", "ABC", k6.disjoint_union(k6)),
            ("K6+K331", "ABC", k6.disjoint_union(k331)),
        ]
    if workload == "catalog2":
        return [("K6(01)+K331(02)", "ABC", rp.glue_pair(k6, (0, 1), k331, (0, 2), 0))]
    marked = _therefore_members(rp)
    if workload == "gluing":
        pairs = (("K6t", "P8Bt"), ("P7Bt", "P7Bt"), ("K6t", "P7Bt"), ("K6t", "K6t"))
        return [(name, "ABC", g) for n1, n2 in pairs
                for name, g in _gluings(rp, marked, n1, n2)]
    if workload == "minimality":
        sporadic = rp.sporadic_graphs()
        return [
            *((name, "ABC", g) for n1, n2 in (("K6t", "P7Bt"), ("K6t", "K6t"))
              for name, g in _gluings(rp, marked, n1, n2)),
            ("K7-2adj", "ABC", sporadic["K7-2adj"]),
            ("K7-2nonadj", "ABC", sporadic["K7-2nonadj"]),
            ("K44-e", "AB", sporadic["K44-e"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build(job: dict) -> dict:
    """Set up job["workload"] from job["seed"]; returns the set-up time and
    the inputs."""
    t0 = time.perf_counter()
    workload, seed = job["workload"], job["seed"]
    import rp3link as rp

    if not Path(rp.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rp3link was imported from {rp.__file__}, not from {SRC}")
    rng = random.Random(f"{workload}/{seed}")
    inputs = []
    for name, rules, g in _graphs(rp, workload):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        inputs.append({"name": name, "rules": rules, "n": h.n, "edges": h.edges,
                       "scan": workload == "minimality"})
    return {"setup_s": time.perf_counter() - t0, "inputs": inputs}
