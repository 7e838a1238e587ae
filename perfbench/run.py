#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <route_dense|eco_edit|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the `perfbench` package
(release, offline) into $CARGO_TARGET_DIR, or `perfbench/target` when that
is unset, then runs the binary, which prints its report and, as the last
line, one JSON object with the result. Span files and per-run results go
to `perfbench/out/`. The exit code is the binary's: nonzero when the build
fails or an output fails its check.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    # Cargo's own output goes to stderr: stdout carries only the report.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(ROOT, target, "release", "perfbench")
    args = sys.argv[1:] + ["--commit", commit(), "--out", os.path.join(HERE, "out")]
    try:
        return subprocess.run([binary] + args, cwd=ROOT, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the run exceeded 170 s and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
