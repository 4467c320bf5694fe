#!/usr/bin/env python3
"""Checks the benchmark itself, on tiny runs (--seconds 1).

    python3 perfbench/test_determinism.py [workload ...]

For each workload (all four by default):
  * two traced runs with the same seed print the same input digest and
    the same exact counters (resilience.exact.*, db.witness.*,
    resilience.session.* counts, server.requests.*);
  * an end-to-end run with that seed prints the same digest, is correct
    (which needs a nonzero number of oracle checks), and reports exactly
    the BENCHMARK.json end_to_end metrics with their units; the traced
    runs report exactly its per_layer metrics;
  * another seed gives another digest.
Run from the root of a rescq checkout; exits 1 on the first failure.
"""

import json
import os
import re
import subprocess
import sys

WORKLOADS = ["serve_reads", "serve_epochs", "solve_mix", "route_reads"]
EXACT_PREFIXES = (
    "resilience.exact.nodes", "resilience.exact.packing_prunes",
    "resilience.exact.flow_prunes", "resilience.exact.components",
    "db.witness.witnesses", "db.witness.sets", "db.witness.dedup_ratio",
    "resilience.session.resolved_frac", "resilience.session.delta_witnesses",
    "resilience.session.family_sets", "server.requests.",
)


def run(workload, seed, trace):
    here = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, os.path.join(here, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, universal_newlines=True, check=True).stdout
    digest = re.search(r"^# digest ([0-9a-f]{16})", out, re.M).group(1)
    return digest, json.loads(out.strip().splitlines()[-1])


def check(cond, message):
    if not cond:
        print("FAIL: " + message)
        sys.exit(1)


def main(workloads):
    spec = json.load(open("BENCHMARK.json"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in workloads:
        d1, r1 = run(w, 7, 1)
        d2, r2 = run(w, 7, 1)
        check(d1 == d2, "%s: same seed, digests %s vs %s" % (w, d1, d2))
        exact = [n for n in r1["metrics"] if n.startswith(EXACT_PREFIXES)]
        check(exact, "%s: no exact counters" % w)
        for n in exact:
            check(r1["metrics"][n] == r2["metrics"][n],
                  "%s: %s differs: %s vs %s" % (w, n, r1["metrics"][n], r2["metrics"][n]))
        for r in (r1, r2):
            check(r["correct"], "%s: traced run not correct" % w)
            got = {n: m["unit"] for n, m in r["metrics"].items()}
            check(got == layers, "%s: traced metrics differ from per_layer" % w)
        d3, r3 = run(w, 7, 0)
        check(d3 == d1, "%s: traced and end-to-end digests %s vs %s" % (w, d1, d3))
        check(r3["correct"] and r3["failed"] == 0, "%s: end-to-end run not correct" % w)
        got = {n: m["unit"] for n, m in r3["metrics"].items()}
        check(got == e2e, "%s: end-to-end metrics differ from end_to_end" % w)
        d4, _ = run(w, 8, 0)
        check(d4 != d1, "%s: seeds 7 and 8 share digest %s" % (w, d1))
        print("ok %s: digest %s, %d exact counters equal" % (w, d1, len(exact)))


if __name__ == "__main__":
    main(sys.argv[1:] or WORKLOADS)
