#!/usr/bin/env python3
"""Builds the benchmark (release) and runs it with the given arguments.

Run from the repository root:

    python3 perfbench/run.py --workload zipf_head --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload delta_router --smoke      # seconds, same checks

The build goes to $CARGO_TARGET_DIR when set, else perfbench/target.
Cargo's output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Exits non-zero without a result
if the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    """Builds the release binary and returns its path (None on failure)."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def main(argv):
    binary = build()
    if binary is None:
        return 1
    out = os.path.join(HERE, "out")
    try:
        done = subprocess.run([binary, *argv, "--out", out], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
