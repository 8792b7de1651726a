#!/usr/bin/env python3
"""Builds the PACO benchmark harness from source and runs one workload.

Run from the root of a PACO checkout:

    python3 perfbench/run.py --workload analyze|execute|serve \
        --seed N --seconds S --trace 0|1

The harness, paco_bench, is configured and built (Release, assertions
on) into the directory named by CARGO_TARGET_DIR, or `.bench_build` when
it is unset, on first use; later runs only re-check the build. Its
output is passed through; its last line is the JSON result. A traced run also
writes its spans, one JSON object per line, next to the build as
`spans-<workload>-<seed>.jsonl`.

Exits nonzero without printing a result when the checkout holds no PACO
sources, when the build fails, or when paco_bench fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("analyze", "execute", "serve")
# Build parallelism: never more than the machine has.
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr only on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:])
        fail("build step failed: " + " ".join(cmd))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no PACO sources (src/CMakeLists.txt) in " + ROOT)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", build_dir, "--target", "paco_bench",
               "-j", str(BUILD_JOBS)])
    return os.path.join(build_dir, "paco_bench")


def check_metric_names(result, trace, lines):
    """paco_bench's metric tables must match BENCHMARK.json's lists; a
    counter this build does not register may only be missing if
    paco_bench said so."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    absent = set()
    for line in lines:
        if line.startswith("absent "):
            absent.update(line.split(":", 1)[1].split())
    if got - want or want - got - absent:
        fail("metrics differ from BENCHMARK.json: unexpected %s, missing %s"
             % (sorted(got - want), sorted(want - got - absent)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        fail("%s exited with %d" % (os.path.basename(binary),
                                   proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("paco_bench printed no result line")
    check_metric_names(result, args.trace, lines[:-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
