#!/usr/bin/env python3
"""Builds the rescq benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a rescq checkout. The first call configures and
builds an optimised (Release) tree under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild incrementally. The
benchmark's own output follows; its last line is the JSON result. A
traced run (--trace 1) also writes its spans, as Chrome trace_event
JSON, to <build dir>/trace-<workload>.json, and its result is completed
here with the BENCHMARK.json per_layer names the workload does not
exercise. See perfbench/README.md.
"""

import json
import os
import subprocess
import sys


def fill_per_layer(out, workload, spec_path):
    """Prints a traced run's output with its result completed: every
    BENCHMARK.json per_layer name the workload does not exercise is
    added as 0, and listed. Returns 1 if the run reported a name that
    per_layer lacks."""
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    with open(spec_path) as f:
        per_layer = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    extra = sorted(set(result["metrics"]) - set(per_layer))
    missing = [n for n in per_layer if n not in result["metrics"]]
    for name in missing:
        result["metrics"][name] = {"value": 0, "unit": per_layer[name]}
    print("\n".join(lines[:-1]))
    print("# not exercised by %s (reported as 0): %s" % (workload, " ".join(missing) or "none"))
    if extra:
        print("perfbench: metrics missing from BENCHMARK.json per_layer: " + " ".join(extra),
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tree = os.path.join(build, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 2
    args = list(argv)
    flags = dict(zip(args[::2], args[1::2]))
    binary = os.path.join(tree, "perfbench")
    if flags.get("--trace") != "1":
        return subprocess.run([binary] + args).returncode
    workload = flags.get("--workload", "run")
    args += ["--trace-out", os.path.join(tree, "trace-%s.json" % workload)]
    run = subprocess.run([binary] + args, stdout=subprocess.PIPE, universal_newlines=True)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        return run.returncode
    return fill_per_layer(run.stdout, workload, os.path.join(here, "..", "BENCHMARK.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
