#!/usr/bin/env python3
"""Builds the `iim` binary and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

Build output goes to stderr; the benchmark's last stdout line is its JSON
result. Build artefacts land in $CARGO_TARGET_DIR (default `.bench_build`).
"""
import os
import subprocess
import sys


def build(args, env):
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        stdout=sys.stderr,
        env=env,
    )
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build failed: %s\n" % " ".join(args))
        sys.exit(proc.returncode or 1)


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.stderr.write("perfbench: run from the repository root (no Cargo.toml here)\n")
        sys.exit(2)
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build(["--manifest-path", "Cargo.toml", "-p", "iim", "--bin", "iim"], env)
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], env)
    work = os.path.join(target, "perfbench-work")
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--iim", os.path.join(target, "release", "iim"),
        "--work-dir", work,
    ] + sys.argv[1:]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
