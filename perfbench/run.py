#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the benchmark
(`cargo build --release` into `$CARGO_TARGET_DIR`, default
`.bench_build`); later runs reuse the build. The benchmark's own
output, ending in one JSON result line, goes to standard output; build
output goes to standard error. Exits non-zero, without a result line,
when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print(f"perfbench: build failed with exit code {build.returncode}", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    # One CPU for the benchmark: its client and server threads take turns,
    # and waking a thread on the same CPU does not wait on a second one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
