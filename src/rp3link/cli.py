"""Command-line front end.

Subcommands: petersen, orbits, patterns, minor, certify, minimality,
catalog, reconcile.  Exit status: 0 on success (and matched --expect),
2 on expectation mismatch, 1 on error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .canon import canonical_graph, orbits
from .config import limits_from_env
from .families import (
    build_catalog,
    grand_total,
    petersen_family,
    therefore_family,
)
from .graphs import Graph, MarkedGraph
from .io_formats import graph_to_g6, load_graph_records, parse_graph_file
from .linkage import certify, minimality_scan, parse_rules
from .minors import is_minor
from .patterns import k33_census


def _emit(doc: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print("\n".join(text_lines))


def _load(path: str) -> Graph:
    g = parse_graph_file(path)
    return g.graph if isinstance(g, MarkedGraph) else g


def _cmd_petersen(args) -> int:
    fam = petersen_family()
    doc = {name: graph_to_g6(canonical_graph(g)) for name, g in fam.members.items()}
    _emit(
        {"members": doc, "projective_planar": sorted(fam.projective_planar)},
        args.format,
        [f"{name}\t{g6}" for name, g6 in doc.items()],
    )
    return 0


def _cmd_orbits(args) -> int:
    g = _load(args.graph)
    table = orbits(g, args.limits)
    doc = {
        "vertex_classes": table.vertex_class_count,
        "pair_classes": table.pair_class_count,
        "vfn_one": table.vfn_one_count,
        "vertex_orbits": [list(o) for o in table.vertex_orbits],
        "pair_orbits": [
            {"pairs": [list(p) for p in orb], "vfn": table.vfn[i]}
            for i, orb in enumerate(table.pair_orbits)
        ],
    }
    lines = [
        f"vertex classes: {table.vertex_class_count}",
        f"pair classes:   {table.pair_class_count} ({table.vfn_one_count} with vfn=1)",
    ]
    for i, orb in enumerate(table.pair_orbits):
        lines.append(f"  pair orbit {i}: vfn={table.vfn[i]} rep={orb[0]} size={len(orb)}")
    _emit(doc, args.format, lines)
    return 0


def _cmd_patterns(args) -> int:
    census = k33_census()
    _emit(
        {"census": census, "total": sum(census.values())},
        args.format,
        [f"{k}\t{v}" for k, v in census.items()] + [f"total\t{sum(census.values())}"],
    )
    return 0


def _cmd_minor(args) -> int:
    h = _load(args.pattern)
    g = _load(args.host)
    model = is_minor(h, g, args.limits)
    doc = {"minor": model is not None}
    lines = [f"minor: {model is not None}"]
    if model is not None:
        doc["branch_sets"] = [list(b) for b in model.branch_sets]
        lines.append(f"branch sets: {model.branch_sets}")
    _emit(doc, args.format, lines)
    return 0


def _expect_exit(args, verdict: str) -> int:
    if args.expect == "none":
        return 0
    return 0 if verdict.lower() == args.expect else 2


def _cmd_certify(args) -> int:
    g = _load(args.graph)
    cert = certify(g, rules=args.rules, limits=args.limits)
    doc = cert.report_dict(include_timing=not args.no_timing)
    lines = [
        f"graph:     {cert.canon_g6}",
        f"rules:     {cert.rules}",
        f"verdict:   {cert.verdict}",
        f"dim:       {cert.dim} ({1 << cert.dim} assignments)",
        f"counts:    {cert.counts}",
    ]
    if cert.unforced:
        lines.append(f"unforced:  {len(cert.unforced)} assignments")
        for s in cert.unforced_serials()[:16]:
            lines.append(f"  {s}")
        if len(cert.unforced) > 16:
            lines.append(f"  ... and {len(cert.unforced) - 16} more")
        lines.append("note: UNDECIDED is not a non-linking proof; the enumeration")
        lines.append("over-approximates embedding-realizable assignments.")
    if not args.no_timing:
        lines.append(f"wall time: {cert.wall_time:.3f}s")
    _emit(doc, args.format, lines)
    return _expect_exit(args, cert.verdict)


def _cmd_minimality(args) -> int:
    g = _load(args.graph)
    report = minimality_scan(g, rules=args.rules, limits=args.limits)
    doc = report.report_dict()
    lines = [
        f"graph: {report.graph_g6}",
        f"edge orbits: {report.edge_orbit_count}",
        f"engine-minimal: {report.engine_minimal}",
    ]
    for e in report.entries:
        lines.append(
            f"  {e.operation} {e.edge}: {e.verdict} ({e.unforced_count} unforced)"
        )
    if args.obstructions:
        obs = load_graph_records(args.obstructions)
        from .connectivity import is_projective_planar

        checks = []
        for orb_entry in report.entries:
            op = orb_entry.operation
            e = orb_entry.edge
            minor = g.delete_edge(*e) if op == "delete" else g.contract_edge(*e)
            pp = is_projective_planar(minor, obs, args.limits)
            checks.append({"edge": list(e), "operation": op, "projective_planar": pp})
            lines.append(f"  {op} {e}: projective planar = {pp}")
        doc["projective_planarity"] = checks
    _emit(doc, args.format, lines)
    return 0


def _cmd_catalog(args) -> int:
    which = args.which
    doc: dict = {}
    lines: list[str] = []
    reports = []
    if which in ("0", "1", "2"):
        reports = [build_catalog(int(which))]
    elif which == "all":
        reports = [build_catalog(k) for k in (0, 1, 2)]
    elif which == "deltawye":
        tf = therefore_family()
        doc = {
            "classes": len(tf.gluings),
            "with_k44e_minor": [list(t) for t in tf.with_k44e_minor],
            "minimal_candidates": [
                {"members": [n1, n2], "variant": idx, "graph": graph_to_g6(canonical_graph(g))}
                for n1, n2, idx, g in tf.minimal_candidates
            ],
        }
        lines = [
            f"gluing classes: {len(tf.gluings)}",
            f"with K44-e minor: {len(tf.with_k44e_minor)}",
            f"minimal candidates: {len(tf.minimal_candidates)}",
        ]
        _emit(doc, args.format, lines)
        return 0
    else:
        print(f"unknown catalog selector {which!r}", file=sys.stderr)
        return 1
    doc = {"catalogs": []}
    for rep in reports:
        entry = {
            "k": rep.connectivity_class,
            "formula_count": rep.formula_count,
            "distinct_count": rep.distinct_count,
            "findings": rep.findings,
        }
        if args.out:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            from .io_formats import emit_edge_list, g6_to_graph

            manifest = []
            for e in rep.entries:
                fname = "".join(ch if ch.isalnum() else f"_{ord(ch):02x}" for ch in e.code_g6)
                path = outdir / f"k{rep.connectivity_class}_{fname}.txt"
                path.write_text(emit_edge_list(g6_to_graph(e.code_g6)))
                manifest.append(
                    {"code": e.code_g6, "file": path.name, "provenance": list(e.provenance)}
                )
            entry["entries"] = manifest
            (outdir / f"manifest_k{rep.connectivity_class}.json").write_text(
                json.dumps(entry, sort_keys=True, indent=2) + "\n"
            )
        doc["catalogs"].append(entry)
        lines.append(
            f"k={rep.connectivity_class}: formula {rep.formula_count}, "
            f"distinct {rep.distinct_count}"
            + (f", findings: {rep.findings}" if rep.findings else "")
        )
    _emit(doc, args.format, lines)
    return 0


def _cmd_reconcile(args) -> int:
    doc = grand_total()
    lines = [
        f"k=0: {doc['counts']['k0']}   k=1: {doc['counts']['k1']}   "
        f"k=2: {doc['counts']['k2']}   deltawye: {doc['counts']['deltawye']}",
        f"total without sporadic: {doc['total_without_sporadic']}",
        f"sporadic ({len(doc['sporadic'])}): {', '.join(doc['sporadic'])}",
        f"total with sporadic:    {doc['total_with_sporadic']}",
    ]
    if doc["findings"]:
        lines.append(f"findings: {doc['findings']}")
    _emit(doc, args.format, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rp3link",
        description="Certification engine for intrinsic linking in projective 3-space",
    )
    ap.add_argument("--rules", default="ABC", help="rule subset, e.g. AB (default ABC)")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument(
        "--expect",
        choices=("certified", "undecided", "none"),
        default="none",
        help="exit 2 unless the certify verdict matches",
    )
    ap.add_argument("--obstructions", help="projective-plane obstruction dataset file")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("petersen", help="list the exchange-closure family of K6")
    p = sub.add_parser("orbits", help="vertex/pair orbit table of a graph")
    p.add_argument("graph")
    sub.add_parser("patterns", help="census of assignments on K_{3,3}")
    p = sub.add_parser("minor", help="minor containment with witness")
    p.add_argument("pattern")
    p.add_argument("host")
    p = sub.add_parser("certify", help="exhaustive assignment certification")
    p.add_argument("graph")
    p.add_argument("--no-timing", action="store_true", help="omit wall time from output")
    p = sub.add_parser("minimality", help="certify one-step minors per edge orbit")
    p.add_argument("graph")
    p = sub.add_parser("catalog", help="build catalogs: 0|1|2|deltawye|all")
    p.add_argument("which")
    p.add_argument("--out", help="directory for edge-list files and manifest")
    sub.add_parser("reconcile", help="grand totals over all catalogs")
    return ap


_DISPATCH = {
    "petersen": _cmd_petersen,
    "orbits": _cmd_orbits,
    "patterns": _cmd_patterns,
    "minor": _cmd_minor,
    "certify": _cmd_certify,
    "minimality": _cmd_minimality,
    "catalog": _cmd_catalog,
    "reconcile": _cmd_reconcile,
}


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.limits = limits_from_env()
        parse_rules(args.rules)  # a bad --rules fails every subcommand
        return _DISPATCH[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # surface as exit 1 with message
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
