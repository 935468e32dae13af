#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
solver libraries and the perfbench binary (Release) under .bench_build/;
later runs rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the binary's JSON result. Extra flags:

    --held-out        use the held-out seed instead of --seed (see README.md)
    --drill           perturb two answers (one solution, one objective); the
                      run must count both as failed

A traced run writes its spans to .bench_build/perfbench/spans-<workload>-<seed>.json.

Exits non-zero, without printing a result, when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no solver sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--drill", action="store_true")
    args = parser.parse_args()

    binary = build()
    seed = HELD_OUT_SEED if args.held_out else args.seed
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.drill:
        cmd.append("--drill")
    env = dict(os.environ, PERFBENCH_COMMIT=source_identity())
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"perfbench exited with code {done.returncode}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if args.drill:
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        failures = [line for line in lines if line.startswith("failure: ")]
        if result["failed"] != 2 or result["correct"] or \
                sum("reference" in line for line in failures) != 1:
            fail(f"checker drill did not trip as expected: failed={result['failed']}")
        print("perfbench: checker drill tripped (2 perturbed answers counted as failed)",
              file=sys.stderr)


if __name__ == "__main__":
    main()
