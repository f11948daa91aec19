#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

  python3 perfbench/run.py --workload live|flush|drain --seed N \
      --seconds S --trace 0|1

Builds perfbench/ in Release mode (it compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs one workload. Build output goes to stderr. The report, a
provenance line and, last, the result JSON go to stdout.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Runs cmd with its stdout sent to our stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


def build(root, build_dir):
    for required in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, required)):
            fail(f"{required} not found: run from the repository root", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    if run_quiet(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                  build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 BUILD_TIMEOUT_S) != 0:
        fail("cmake configure failed")
    if run_quiet(["cmake", "--build", build_dir, "-j", jobs],
                 BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def git_provenance(root):
    """Commit and dirty flag, or 'unknown' outside a git checkout of root."""
    def git(*args):
        out = subprocess.run(["git", "-C", root, *args], capture_output=True,
                             text=True, timeout=30)
        if out.returncode != 0:
            raise OSError(out.stderr.strip())
        return out.stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != \
                os.path.realpath(root):
            raise OSError("not the repository root")
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": "unknown", "dirty": "unknown"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["live", "flush", "drain"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir, "run")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        fail(f"perfbench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")

    provenance = git_provenance(root)
    for line in lines[:-1]:
        if line.startswith("settings "):
            provenance.update(json.loads(line[len("settings "):]))
        else:
            print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
