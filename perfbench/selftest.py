"""Self-test of the benchmark's own guarantees.

    python3 perfbench/selftest.py

Fails (exit 1) if two timed samples ran in the same process, if the PID
check would not notice that, or if the pinned invariants of K44-e and
K7-2adj differ between two seeds (that is, between two relabellings).
Takes about 15 seconds.
"""

from __future__ import annotations

import json
import sys

import fresh
import run

NAMES = ("K7-2adj", "K44-e")
SEEDS = (1, 2)


def main() -> int:
    failures = []

    built = {}
    for seed in SEEDS:
        workload_inputs, _, setup_pids = run.set_up("minimality", seed)
        built[seed] = [i for i in workload_inputs if i["name"] in NAMES]
        # long enough for several samples of each input
        m = run.measure("minimality", built[seed], 3, trace=False)
        failures += m["failures"]
        if any(len(s["plain"]) < 2 for s in m["samples"].values()):
            failures.append(f"seed {seed}: some input was sampled only once")
        if not run.distinct_pids(m["pids"] + setup_pids):
            failures.append(f"seed {seed}: two samples ran in the same process")
    if run.distinct_pids([1, 2, 1]):
        failures.append("distinct_pids misses a repeated PID")

    pinned = json.loads((run.HERE / "expected.json").read_text())["minimality"]
    for a, b in zip(built[SEEDS[0]], built[SEEDS[1]]):
        if a["edges"] == b["edges"]:
            failures.append(f"{a['name']}: seeds {SEEDS} gave the same labelling")
        for scan in (False, True):
            facts = []
            for job in (a, b):
                result = fresh.call("worker", "plain", {**job, "scan": scan})
                if "error" in result:
                    failures.append(f"{job['name']}: {result['error']}")
                facts.append(result.get("facts"))
            if facts[0] != facts[1]:
                failures.append(f"{a['name']} (scan={scan}): invariants differ between "
                                f"seeds {SEEDS}: {facts[0]} != {facts[1]}")
            elif scan and facts[0] != pinned[a["name"]]:
                failures.append(f"{a['name']}: scan invariants differ from the pins")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
