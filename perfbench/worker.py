"""One timed sample of one input, run in a fresh process.

A fresh process matters: `rule_context` caches every context it builds,
and `cycle_space` and `all_simple_cycles` are `lru_cache`d, so a second
`certify` of the same graph in one process skips almost all of its work.

`plain` times the public calls a user makes.  `traced` times each layer
from outside, as spans around the public calls that `certify` makes, in
its own order, and then enumerates the models of every pattern once more
under a parent span of its own.  All times come from `perf_counter`;
`Certificate.wall_time` is not used.
"""

from __future__ import annotations

from time import perf_counter

from rp3link import (
    Graph,
    canonical_graph,
    certify,
    enumerate_minor_models,
    minimality_scan,
    orbits,
    petersen_family,
    rule_context,
    verify_certificate,
)

PATTERNS = ("K6", "K331", "P7", "K44-e", "P8", "P9", "Petersen")

COUNTERS = (
    "homology.cycles", "homology.dim", "linkage.pairs", "linkage.c_conditions",
    "linkage.b_conditions", "linkage.c_used", "linkage.c_prefix", "linkage.b_used",
    "linkage.b_prefix", "linkage.undecided_after_A", "linkage.undecided_after_C",
    "linkage.undecided_after_B", "linkage.verified",
    *(f"minors.{name}.models" for name in PATTERNS),
)
# span name -> metric reporting its summed duration
DURATIONS = {
    "homology.cycles": "homology.cycles_s",
    "linkage.pairs": "linkage.pairs_s",
    "linkage.c_conditions": "linkage.c_conditions_s",
    "linkage.b_conditions": "linkage.b_conditions_s",
    "linkage.verify": "linkage.verify_s",
    "minors.k6": "minors.k6_s",
    "minors.family": "minors.family_s",
    "canon.canonical_graph": "canon.canonical_graph_s",
    "canon.orbits": "canon.orbits_s",
    **{f"minors.{name}": f"minors.{name}.s" for name in PATTERNS},
}
# spans whose self time is reported as <name>.self_s
SPAN_NAMES = (
    "sample", "certify", "homology.cycles", "linkage.pairs", "minors.k6",
    "linkage.c_conditions", "minors.family", "linkage.b_conditions", "linkage.sweep",
    "canon.canonical_graph", "linkage.verify", "canon.orbits", "minors.patterns",
)


def _graph(job: dict) -> Graph:
    return Graph.from_edges(job["n"], job["edges"])


def cert_facts(cert) -> dict:
    """The invariants of a certificate that do not depend on vertex labels."""
    return {
        "verdict": cert.verdict,
        "dim": cert.dim,
        "A": cert.counts["A"],
        "C": cert.counts["C"],
        "B": cert.counts["B"],
        "unforced": len(cert.unforced),
        "cycles": cert.stats["cycles"],
        "disjoint_pairs": cert.stats["disjoint_pairs"],
    }


def scan_facts(edge_orbits: int, minors) -> dict:
    """Invariants of a minimality scan, from (operation, certificate) per
    one-step minor; the order of the minors follows vertex labels, so they
    are sorted."""
    facts = [{"operation": op, **cert_facts(cert)} for op, cert in minors]
    return {
        "edge_orbits": edge_orbits,
        "engine_minimal": all(f["verdict"] == "UNDECIDED" for f in facts),
        "minors": sorted(facts, key=lambda f: tuple(f.values())),
    }


def _minor(g: Graph, edge, operation: str) -> Graph:
    return g.delete_edge(*edge) if operation == "delete" else g.contract_edge(*edge)


def plain(job: dict) -> dict:
    """certify + verify_certificate, or minimality_scan + verification of
    every one-step minor's certificate."""
    g, rules = _graph(job), job["rules"]
    if not job["scan"]:
        t0 = perf_counter()
        cert = certify(g, rules=rules)
        t1 = perf_counter()
        verify_certificate(cert)
        t2 = perf_counter()
        return {"wall_s": t2 - t0, "verify_s": t2 - t1, "facts": cert_facts(cert)}
    t0 = perf_counter()
    report = minimality_scan(g, rules=rules)
    t1 = perf_counter()
    # certify again on the contexts the scan left warm: only the sweep reruns
    certs = [certify(_minor(g, e.edge, e.operation), rules=rules) for e in report.entries]
    for e, cert in zip(report.entries, certs):
        if (cert.verdict, len(cert.unforced)) != (e.verdict, e.unforced_count):
            raise RuntimeError(f"scan entry {e} disagrees with its certificate")
    t2 = perf_counter()
    for cert in certs:
        verify_certificate(cert)
    t3 = perf_counter()
    minors = [(e.operation, cert) for e, cert in zip(report.entries, certs)]
    return {
        "wall_s": (t1 - t0) + (t3 - t2),
        "verify_s": t3 - t2,
        "facts": scan_facts(report.edge_orbit_count, minors),
    }


class Trace:
    """Spans kept in memory: [name, start, end, parent index or None]."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def open(self, name: str, start: float, parent: int | None) -> int:
        self.spans.append([name, start, None, parent])
        return len(self.spans) - 1

    def close(self, sid: int, end: float) -> None:
        self.spans[sid][2] = end

    def phase(self, name: str, start: float, parent: int) -> float:
        """Close a phase that began at `start`; the next phase begins when
        this one ends, so the phases of a parent add up to its duration."""
        end = perf_counter()
        self.spans.append([name, start, end, parent])
        return end


def _used(cert, rule: int) -> tuple[int, int]:
    """Distinct conditions of a rule that forced some assignment, and the
    highest such index + 1."""
    used = {ev for r, ev in zip(cert.rule_of, cert.ev_of) if r == rule}
    return len(used), (max(used) + 1 if used else 0)


def _traced_certify(tr: Trace, g: Graph, rules: str, parent: int, t: float,
                    acc: dict) -> tuple:
    """`certify` split at the calls it makes, then its canonical form timed
    apart and its certificate verified; returns (certificate, end time)."""
    c = tr.open("certify", t, parent)
    ctx = rule_context(g)
    t = tr.phase("homology.cycles", t, c)
    if "A" in rules:
        ctx.pairs
        t = tr.phase("linkage.pairs", t, c)
    if "C" in rules:
        ctx.c_models
        t = tr.phase("minors.k6", t, c)
        ctx.c_conditions
        t = tr.phase("linkage.c_conditions", t, c)
    if "B" in rules:
        ctx.b_models
        t = tr.phase("minors.family", t, c)
        ctx.b_conditions
        t = tr.phase("linkage.b_conditions", t, c)
    cert = certify(g, rules=rules)
    t = tr.phase("linkage.sweep", t, c)
    tr.close(c, t)
    if cert.ctx is not ctx:
        raise RuntimeError("certify did not reuse the warmed rule context")
    sweep = tr.spans[-1][2] - tr.spans[-1][1]
    # certify also computes the canonical form; time it apart and take it
    # out of the sweep
    canonical_graph(g)
    t = tr.phase("canon.canonical_graph", t, parent)
    acc["linkage.sweep_s"] += sweep - (tr.spans[-1][2] - tr.spans[-1][1])
    acc["linkage.verified"] += verify_certificate(cert)
    t = tr.phase("linkage.verify", t, parent)
    return cert, t


def _count(cert, acc: dict) -> None:
    ctx, rules = cert.ctx, cert.rules
    total = 1 << cert.dim
    acc["homology.cycles"] += len(ctx.cycles)
    acc["homology.dim"] += ctx.dim
    acc["linkage.pairs"] += len(ctx.pairs) if "A" in rules else 0
    acc["linkage.c_conditions"] += len(ctx.c_conditions) if "C" in rules else 0
    acc["linkage.b_conditions"] += len(ctx.b_conditions) if "B" in rules else 0
    for key, rule in (("c", 2), ("b", 3)):
        used, prefix = _used(cert, rule)
        acc[f"linkage.{key}_used"] += used
        acc[f"linkage.{key}_prefix"] += prefix
    acc["linkage.undecided_after_A"] += total - cert.counts["A"]
    acc["linkage.undecided_after_C"] += total - cert.counts["A"] - cert.counts["C"]
    acc["linkage.undecided_after_B"] += len(cert.unforced)


def _pattern_pass(tr: Trace, g: Graph, acc: dict) -> None:
    members = petersen_family().members
    t = perf_counter()
    p = tr.open("minors.patterns", t, None)
    for name in PATTERNS:
        start = t
        models = sum(1 for _ in enumerate_minor_models(g, members[name]))
        t = tr.phase(f"minors.{name}", t, p)
        acc[f"minors.{name}.models"] += models
        acc["minors.found_s" if models else "minors.absent_s"] += t - start
    tr.close(p, t)


def layer_metrics(spans: list[list]) -> dict:
    """Summed durations and self times per span name, from one sample."""
    out = {metric: 0.0 for metric in DURATIONS.values()}
    out.update({f"{name}.self_s": 0.0 for name in SPAN_NAMES})
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent] += end - start
    for (name, start, end, _), inner in zip(spans, children):
        if name in DURATIONS:
            out[DURATIONS[name]] += end - start
        if name in SPAN_NAMES:
            out[f"{name}.self_s"] += (end - start) - inner
    return out


def check_phases(spans: list[list]) -> None:
    """The phases of every certify span must add up to its duration."""
    inner = {}
    for _, start, end, parent in spans:
        if parent is not None:
            inner[parent] = inner.get(parent, 0.0) + (end - start)
    for sid, (name, start, end, _) in enumerate(spans):
        if name == "certify" and abs((end - start) - inner.get(sid, 0.0)) > 1e-9:
            raise RuntimeError(f"certify phases do not add up to its span {sid}")


def traced(job: dict) -> dict:
    """One traced sample; every span and counter is recorded in memory and
    returned when the sample ends."""
    g, rules = _graph(job), job["rules"]
    tr = Trace()
    acc = {name: 0 for name in COUNTERS}
    acc.update({"linkage.sweep_s": 0.0, "minors.found_s": 0.0, "minors.absent_s": 0.0})
    t = perf_counter()
    s = tr.open("sample", t, None)
    if not job["scan"]:
        cert, t = _traced_certify(tr, g, rules, s, t, acc)
        certs = [cert]
        facts = cert_facts(cert)
    else:
        table = orbits(g)
        t = tr.phase("canon.orbits", t, s)
        edge_orbits = [orb for orb in table.pair_orbits if g.has_edge(*orb[0])]
        canonical_graph(g)
        t = tr.phase("canon.canonical_graph", t, s)
        certs, minors = [], []
        for orb in edge_orbits:
            for operation in ("delete", "contract"):
                minor = _minor(g, orb[0], operation)
                cert, t = _traced_certify(tr, minor, rules, s, t, acc)
                certs.append(cert)
                minors.append((operation, cert))
        facts = scan_facts(len(edge_orbits), minors)
    tr.close(s, t)
    total_s = t - tr.spans[s][1]
    for cert in certs:
        _count(cert, acc)
        _pattern_pass(tr, cert.graph, acc)
    check_phases(tr.spans)
    metrics = layer_metrics(tr.spans)
    metrics.update(acc)
    return {"traced_s": total_s, "layers": metrics, "facts": facts, "spans": tr.spans}
