"""rp3link benchmark: cold-process certification of fixed workloads.

    python3 perfbench/run.py --workload disjoint --seed 1 --seconds 30 --trace 0

Every sample runs in a fresh process, one at a time.  With ``--trace 0``
each sample times the public calls (end-to-end metrics); with
``--trace 1`` an untraced and a traced sample of each input alternate
(per-layer metrics and the tracing overhead).  After one sample of every
input, more follow round robin while they fit in ``--seconds``; a time is
the median over an input's samples.  Outputs are checked against the
pinned invariants in ``expected.json``.  The last line of stdout is the result
as JSON.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import fresh
import inputs

HERE = Path(__file__).resolve().parent
TRACES = HERE / "traces"
SETUP_RUNS = 5

UNITS = {
    "wall_s": "s",
    "verify_s": "s",
    "slowest_input_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "fail_ratio": "1",
    "pass_ratio": "1",
}
# The end-to-end metrics of the JSON result; the others are only printed.
# fail_ratio is 0 on a correct program, and a metric compared as a share of
# its median must not be 0, so its complement pass_ratio stands in for it.
# verify_s is well under a second on catalog2, gluing and minimality, and
# there it spreads between runs by more than any bound the benchmark may set
# (NOTES.md); linkage.verify_s of the traced run follows it per input.
END_TO_END = ("wall_s", "slowest_input_s", "setup_s", "peak_rss_mib", "pass_ratio")


def set_up(workload: str, seed: int) -> tuple[list[dict], list[float], list[int]]:
    """Build the inputs repeatedly, each time in a fresh process; every
    build must give the same inputs."""
    times, pids, first = [], [], None
    while len(times) < SETUP_RUNS:
        result = fresh.call("inputs", "build", {"workload": workload, "seed": seed})
        if "error" in result:
            raise fresh.SampleError(result["error"])
        if first is None:
            first = result["inputs"]
        elif result["inputs"] != first:
            raise fresh.SampleError("two set-ups built different inputs")
        times.append(result["setup_s"])
        pids.append(result["pid"])
    return first, times, pids


def distinct_pids(pids: list[int]) -> bool:
    return len(set(pids)) == len(pids)


def measure(workload: str, workload_inputs: list[dict], seconds: float, trace: bool) -> dict:
    """Samples for about `seconds`: one of each input (untraced, and traced
    after it if `trace`) first, then more round robin in input order,
    skipping a sample that should not end before `seconds` have passed.
    Returns per-input sample lists, the PIDs and the failures."""
    expected = json.loads((HERE / "expected.json").read_text())[workload]
    kinds = ("plain", "traced") if trace else ("plain",)
    samples = {inp["name"]: {"plain": [], "traced": []} for inp in workload_inputs}
    took = {(inp["name"], kind): [] for inp in workload_inputs for kind in kinds}
    pids, failures, attempted = [], [], 0
    deadline = perf_counter() + seconds
    ran = True
    while ran:
        ran = False
        for inp in workload_inputs:
            pinned = expected[inp["name"]]
            for kind in kinds:
                durations = took[inp["name"], kind]
                t0 = perf_counter()
                if durations and t0 + statistics.median(durations) > deadline:
                    continue
                ran = True
                attempted += 1
                try:
                    result = fresh.call("worker", kind, inp)
                except fresh.SampleError as exc:
                    failures.append(f"{inp['name']} {kind}: {exc}")
                    continue
                finally:
                    durations.append(perf_counter() - t0)
                pids.append(result["pid"])
                if "error" in result:
                    failures.append(f"{inp['name']} {kind}: {result['error']}")
                elif result["facts"] != pinned:
                    failures.append(f"{inp['name']} {kind}: got {result['facts']}, "
                                    f"pinned {pinned}")
                else:
                    samples[inp["name"]][kind].append(result)
    return {"samples": samples, "pids": pids, "failures": failures, "attempted": attempted}


def _median_sum(samples: dict, kind: str, key) -> float:
    return sum(statistics.median(key(r) for r in s[kind]) for s in samples.values())


def end_to_end(m: dict, setup_times: list[float]) -> dict:
    samples = m["samples"]
    plain = [r for s in samples.values() for r in s["plain"]]
    fail_ratio = len(m["failures"]) / m["attempted"]
    return {
        "wall_s": _median_sum(samples, "plain", lambda r: r["wall_s"]),
        "verify_s": _median_sum(samples, "plain", lambda r: r["verify_s"]),
        "slowest_input_s": max(
            statistics.median(r["wall_s"] for r in s["plain"]) for s in samples.values()
        ),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": max(r["rss_kib"] for r in plain) / 1024,
        "fail_ratio": fail_ratio,
        "pass_ratio": 1 - fail_ratio,
    }


def per_layer(m: dict) -> dict:
    samples = m["samples"]
    names = samples[next(iter(samples))]["traced"][0]["layers"]
    out = {name: _median_sum(samples, "traced", lambda r, k=name: r["layers"][k])
           for name in names}
    out["minors.absent_share"] = out["minors.absent_s"] / (
        out["minors.absent_s"] + out["minors.found_s"])
    out["trace.overhead_s"] = (_median_sum(samples, "traced", lambda r: r["traced_s"])
                               - _median_sum(samples, "plain", lambda r: r["wall_s"]))
    return out


def write_spans(m: dict, workload: str, seed: int) -> Path:
    """Write the spans of every traced sample, kept in memory until now.
    A span's sample is its worker's PID and its parent an index into the
    spans of that sample."""
    spans = [
        {"sample": r["pid"], "input": name, "name": span, "start": start, "end": end,
         "parent": parent}
        for name, s in m["samples"].items() for r in s["traced"]
        for span, start, end, parent in r["spans"]
    ]
    TRACES.mkdir(exist_ok=True)
    path = TRACES / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans}))
    return path


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "1" if name.endswith("_share") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (inputs.SRC / "rp3link").is_dir():
        print(f"no rp3link package under {inputs.SRC}", file=sys.stderr)
        return 1
    # SIGTERM unwinds like an exception, so a running worker is killed and
    # waited for (fresh.call) before the benchmark exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        workload_inputs, setup_times, setup_pids = set_up(args.workload, args.seed)
    except fresh.SampleError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    m = measure(args.workload, workload_inputs, args.seconds, bool(args.trace))
    for failure in m["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    complete = all(s["plain"] and (s["traced"] or not args.trace)
                   for s in m["samples"].values())
    pids_ok = distinct_pids(m["pids"] + setup_pids)
    if not pids_ok:
        print("FAILED two samples ran in the same process", file=sys.stderr)
    if not complete:
        print("FAILED some input has no successful sample", file=sys.stderr)
        return 1

    for name, s in m["samples"].items():
        walls = sorted(r["wall_s"] for r in s["plain"])
        print(f"{args.workload:10} {name:18} samples={len(walls)} "
              f"median_wall_s={statistics.median(walls):.4f} "
              f"range=[{walls[0]:.4f}, {walls[-1]:.4f}] "
              f"median_verify_s={statistics.median(r['verify_s'] for r in s['plain']):.4f}")
    if args.trace:
        print(f"spans written to {write_spans(m, args.workload, args.seed)}")
        values = per_layer(m)
        units = {name: unit_of(name) for name in values}
        reported = list(values)
    else:
        values, units, reported = end_to_end(m, setup_times), UNITS, END_TO_END
    for name, value in values.items():
        print(f"  {name:32} {value:.6g} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in reported}
    print(json.dumps({
        "correct": not m["failures"] and pids_ok,
        "attempted": m["attempted"],
        "failed": len(m["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
