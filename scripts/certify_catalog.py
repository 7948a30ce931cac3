#!/usr/bin/env python3
"""Certify and verify every catalog entry (k=0,1,2 plus the delta-wye 13 and
sporadics).

The full sweep covers 597 graphs with cycle-space dimensions up to 20
(about a million assignments for the largest), so expect a long run;
use --sample for a quick spot check.  Each certificate is re-checked by
`verify_certificate`: an entry that is not CERTIFIED, or whose
certificate fails verification, is a failure.

Usage: python scripts/certify_catalog.py [--sample N] [--k 0 1 2]
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rp3link import (
    build_catalog,
    certify,
    g6_to_graph,
    sporadic_graphs,
    therefore_family,
    verify_certificate,
)
from rp3link.errors import ModelInvalid


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sample", type=int, default=0, help="entries per class (0 = all)")
    ap.add_argument("--k", type=int, nargs="*", default=[0, 1, 2])
    args = ap.parse_args()

    rng = random.Random(0)
    failures = []

    batches = []
    for k in args.k:
        rep = build_catalog(k)
        entries = [(f"k{k}:{e.provenance}", g6_to_graph(e.code_g6)) for e in rep.entries]
        if args.sample:
            entries = rng.sample(entries, min(args.sample, len(entries)))
        batches.append((f"k={k}", entries))
    tf = therefore_family()
    batches.append(
        (
            "deltawye",
            [(f"{n1}~{n2}#{i}", g) for n1, n2, i, g in tf.minimal_candidates],
        )
    )
    batches.append(("sporadic", list(sporadic_graphs().items())))

    grand_start = perf_counter()
    for label, entries in batches:
        for name, g in entries:
            t0 = perf_counter()
            cert = certify(g, rules="ABC")
            status = cert.verdict
            try:
                verify_certificate(cert)
            except ModelInvalid as exc:
                status = "INVALID"
                failures.append((name, f"verification failed: {exc}"))
            else:
                if status != "CERTIFIED":
                    failures.append((name, f"{len(cert.unforced)} unforced"))
            print(
                f"[{label}] {name}: {status} dim={cert.dim} "
                f"counts={cert.counts} t={perf_counter() - t0:.1f}s",
                flush=True,
            )
    print(f"total {perf_counter() - grand_start:.0f}s")
    if failures:
        print("UNCERTIFIED or unverified entries:")
        for name, why in failures:
            print(f"  {name}: {why}")
        return 1
    print("all entries CERTIFIED and verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
