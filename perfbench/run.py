#!/usr/bin/env python3
"""Builds the benchmark binary from source, then runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload mltcp_gpt2x6 --seed 42 --seconds 30 --trace 0

All arguments go to the binary (see perfbench/README.md). The build goes
to $CARGO_TARGET_DIR, or `.bench_build` in the current directory when it
is unset. Build output goes to standard error, so the last line of
standard output is the binary's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
