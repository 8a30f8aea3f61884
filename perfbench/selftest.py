#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload: a short run (one solve, no warm-up) with --trace 0 and
with --trace 1 must pass its output checks with no failed operation and emit
every metric BENCHMARK.json names, with its unit; and a short run against a
tampered reference (--tamper) must be reported incorrect. Also checks that
BENCHMARK.json and perfbench/workloads.json list the same workloads. Exits 1
on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--short", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(ok, message):
    if not ok:
        print("selftest: FAIL: " + message)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    expect(sorted(names) == sorted(workloads),
           "BENCHMARK.json workloads %s != workloads.json %s" % (names, list(workloads)))

    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(name, trace)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   "%s trace %d: checks failed: %s" % (name, trace, result))
            for metric in bench[key]:
                got = result["metrics"].get(metric["name"])
                expect(got is not None, "%s trace %d: no %s" % (name, trace, metric["name"]))
                expect(got["unit"] == metric["unit"] and math.isfinite(got["value"]),
                       "%s trace %d: bad %s: %s" % (name, trace, metric["name"], got))
            if trace == 0:
                for metric in bench[key]:
                    expect(result["metrics"][metric["name"]]["value"] > 0,
                           "%s: end-to-end metric %s is 0" % (name, metric["name"]))
        tampered = run(name, 0, "--tamper")
        expect(not tampered["correct"] and tampered["failed"] > 0,
               "%s: a tampered reference passed the output checks" % name)
        print("selftest: %s ok" % name)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
