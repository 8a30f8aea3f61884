#!/usr/bin/env python3
"""End-to-end benchmark of the ASYNC engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the engine and the asyncml_perfbench binary from this checkout's sources
into .bench_build/perfbench (Release), runs the named workload of
perfbench/workloads.json unmodeled, and prints one JSON line as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. --short (one solve, no warm-up) and --tamper (corrupt the
reference the output checks use) serve perfbench/selftest.py.

Exits non-zero without a result line when the build fails, a metric is
missing, or asyncml_perfbench fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "asyncml_perfbench")

# One measurement process must finish well inside the 180 s a run may take.
MEASURE_TIMEOUT_S = 150
RSS_TIMEOUT_S = 60


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")


def workload_args(spec):
    """Command-line flags of asyncml_perfbench for one workloads.json entry."""
    flags = {
        "solver": spec["solver"], "data": spec["data"], "rows": spec["rows"],
        "cols": spec["cols"],
        "batch": spec["batch_fraction"], "step": spec["step"],
        "step-kind": spec["step_kind"], "updates": spec["updates"],
        "target": spec["target"], "bound": spec["bound"],
        "backend": spec["backend"], "disk": int(spec["disk"]),
        "checkpoint-every": spec["checkpoint_every"],
    }
    if "nnz_per_row" in spec:
        flags["nnz-per-row"] = spec["nnz_per_row"]
    args = []
    for key, value in flags.items():
        args += ["--" + key, repr(value) if isinstance(value, float) else str(value)]
    return args


def run_bench(args, env, timeout):
    """Runs the binary in its own process group; returns its result object."""
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("asyncml_perfbench timed out after %d s" % timeout)
    if proc.returncode != 0:
        fail("asyncml_perfbench exited with code %d" % proc.returncode)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("asyncml_perfbench printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--tamper", action="store_true")
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if opts.workload not in workloads:
        fail("unknown workload %r (have: %s)" % (opts.workload, ", ".join(workloads)))
    wanted = bench["per_layer" if opts.trace else "end_to_end"]

    build()
    workdir = os.path.join(BUILD, "runs", "%s-%d" % (opts.workload, os.getpid()))
    # The socket transport makes its socket directory under $TMPDIR. A path
    # relative to the checkout keeps it inside the checkout and short enough
    # for sun_path (108 bytes) however deep the checkout is.
    tmpdir = os.path.join(workdir, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.relpath(tmpdir, ROOT))
    common = workload_args(workloads[opts.workload]) + [
        "--name", opts.workload, "--seed", str(opts.seed),
        "--seconds", str(opts.seconds), "--trace", str(opts.trace),
        "--workdir", workdir]
    if opts.short:
        common.append("--short")
    if opts.tamper:
        common.append("--tamper")
    try:
        results = []
        if not opts.trace:
            # Peak RSS comes from a process that runs only the workload.
            results.append(run_bench(common + ["--mode", "rss"], env, RSS_TIMEOUT_S))
        results.append(run_bench(common + ["--mode", "measure"], env, MEASURE_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = {}
    for result in results:
        measured.update(result["metrics"])
    metrics = {}
    for metric in wanted:
        if metric["name"] not in measured:
            fail("metric %s was not measured" % metric["name"])
        metrics[metric["name"]] = {"value": measured[metric["name"]],
                                   "unit": metric["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
