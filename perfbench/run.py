#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe from source
with dune's release profile into .bench_build/, then runs the workload.
A clean run (--trace 0) is split over PROCESSES processes of S/PROCESSES
seconds each, on the same inputs, and each metric is the median of theirs:
some of the run-to-run spread is fixed per process (where its memory and
threads land), and a median over processes cancels part of it.  The
traced run (--trace 1) is one process; its spans are written to
.bench_build/perfbench-spans-<workload>.jsonl.  The last line of standard
output is the JSON result.  Exits non-zero, printing no result, when the
build or a run fails.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
PROCESSES = 3


def find_dune():
    """dune from PATH, else from the active or a default opam switch."""
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    if not os.path.isfile("dune-project"):
        sys.exit("run.py: run from the root of a checkout of the repository")
    dune = find_dune()
    if dune is None:
        sys.exit("run.py: dune not found")
    env = dict(os.environ)
    # The compilers live beside dune; keep the build inside the checkout.
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        [dune, "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("run.py: build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.trace == 1:
        runs = [cmd + ["--seconds", str(args.seconds), "--spans",
                       os.path.join(BUILD_DIR, "perfbench-spans-%s.jsonl" % args.workload)]]
    else:
        runs = [cmd + ["--seconds", repr(args.seconds / PROCESSES)]] * PROCESSES
    results = []
    for c in runs:
        run = subprocess.run(c, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S / len(runs))
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.stderr.write(run.stdout)
            sys.exit("run.py: benchmark exited with %d" % run.returncode)
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results.append(json.loads(lines[-1]))
    metrics = {}
    for name, m in results[0]["metrics"].items():
        metrics[name] = {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                         "unit": m["unit"]}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
