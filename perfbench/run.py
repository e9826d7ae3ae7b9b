#!/usr/bin/env python3
"""Builds the `barre` binary and the benchmark, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Both builds go to $CARGO_TARGET_DIR
(default .bench_build). The last line of standard output is the result
as one JSON object; see perfbench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        # The program as users build it: the repository's own workspace
        # and lock file.
        ["cargo", "build", "--release", "--locked", "--quiet",
         "--manifest-path", str(ROOT / "Cargo.toml"), "-p", "barre-cli", "--bin", "barre"],
        ["cargo", "build", "--release", "--locked", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none"
    cmd = [str(target / "release" / "perfbench"), *sys.argv[1:],
           "--barre", str(target / "release" / "barre"), "--root", str(ROOT), "--commit", commit]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
