#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `axmul-perfbench` crate in
release mode (into `$CARGO_TARGET_DIR`, default `.bench_build`), then
runs it with the same arguments. The last line of standard output is
the result object; cargo's own output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.getcwd(), ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "axmul-perfbench")
    try:
        run = subprocess.run([binary, *sys.argv[1:]], env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
