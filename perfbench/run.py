#!/usr/bin/env python3
"""Build the release `cdat` binary and the benchmark, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

Every flag is passed to the `perfbench` executable unchanged; its last
line of standard output is the JSON result. Both programs build into
`$CARGO_TARGET_DIR` (default `.bench_build`), so the first run of a fresh
checkout compiles the workspace.

    python3 perfbench/run.py --self-test

builds the same way and runs the benchmark's own tests instead.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "cdat",
         "--manifest-path", os.path.join(root, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for command in builds:
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    if sys.argv[1:] == ["--self-test"]:
        test = ["cargo", "test", "--release", "--offline",
                "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")]
        return subprocess.run(test, env=env).returncode
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    work = os.path.join(root, ".bench_work")
    return subprocess.run([binary, "--work", work] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
