#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload chase|analytics|serve --seed N \
        --seconds S --trace 0|1

Run it from anywhere inside a full checkout.  The benchmark is a dune
project of its own (perfbench/ocaml).  This script stages it with a
copy of the repository's lib/ in .bench_build/ at the checkout root,
builds it there with dune, runs it from the checkout root, checks that
the result line carries exactly the metrics BENCHMARK.json declares for
the mode (end_to_end for --trace 0, per_layer for --trace 1), and
relays the output.  The last line of stdout is the JSON result; the
exit code is 0 only for a correct run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench", "ocaml")
STAGE = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(STAGE, "_build", "default", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stage():
    """Lay out the benchmark project with the repository's lib/ inside
    it; dune's content digests keep rebuilds incremental."""
    os.makedirs(STAGE, exist_ok=True)
    for name in os.listdir(PACKAGE):
        shutil.copy2(os.path.join(PACKAGE, name), os.path.join(STAGE, name))
    lib = os.path.join(STAGE, "lib")
    shutil.rmtree(lib, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "lib"), lib)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["chase", "analytics", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    for need in ("lib", "BENCHMARK.json", os.path.join("examples", "minic", "fig9_list.mc")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(need + " is missing: run from a full checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    stage()
    try:
        build = subprocess.run(["dune", "build", "--root", STAGE, "./main.exe"],
                               cwd=STAGE, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(cores()), "--rev", revision(),
           "--out", os.path.join(STAGE, "out")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the run printed no JSON result")
    if run.returncode == 0:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
                 % (sorted(set(declared) - set(got)), sorted(set(got) - set(declared))))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
