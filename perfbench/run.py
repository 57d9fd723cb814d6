#!/usr/bin/env python3
"""Build and run the symla wall-clock benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload syrk-tiled --seed 1 --seconds 15 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build` at the repository root), then runs one workload.
The last line of standard output is the JSON result object. Set-up files
(the file-backed workload's slow memory, the traced run's Chrome-trace
export) go under the build directory too, so a run writes nothing else.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["syrk-tiled", "syrk-square", "chol-lbc", "syrk-tiled-file"]
# A run measures for --seconds plus set-up and its last call; this much
# slack on top of --seconds bounds a hung run.
RUN_SLACK_S = 145


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    return p.parse_args()


def main():
    args = parse_args()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    scratch = os.path.join(target, "perfbench-run")
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(scratch, "traces")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env,
                             timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
