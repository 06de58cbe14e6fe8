#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload in a fresh process.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload tpch|scan|serve|cluster \
        --seed N --seconds S --trace 0|1 [--smoke]

The build is `cargo build --release --offline` of perfbench/Cargo.toml
(its own workspace; the repository's crates are path dependencies), into
CARGO_TARGET_DIR when it is set and perfbench/target otherwise. The
program runs as shipped: every SCC_* override is removed from the
environment. Build output goes to standard error; standard output is the
benchmark's, whose last line is the result object. The exit code is the
build's when it fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCC_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, cwd=ROOT,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary] + sys.argv[1:], env=env, cwd=ROOT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
