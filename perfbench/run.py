#!/usr/bin/env python3
"""Build and run the closed-loop benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--scale full|tiny] [--inject-fault none|adr|trace-byte]

Run it from the root of the repository. It builds the benchmark package
(perfbench/Cargo.toml, release profile, offline) into $CARGO_TARGET_DIR
(default: .bench_build), then runs it with the host fingerprint and
relays its output. The last line of standard output is the result JSON;
the exit code is the benchmark's own (non-zero when an output check
failed). A failed build exits non-zero without printing a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fingerprint(root):
    """nproc, rustc version and the commit (or, outside a git checkout,
    a digest of the sources the benchmark builds)."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if (top.returncode == 0 and head.returncode == 0
                and os.path.realpath(top.stdout.strip()) == os.path.realpath(root)):
            commit = head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    if commit is None:
        digest = hashlib.sha256()
        for top in ("crates", "perfbench"):
            for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
                dirnames[:] = sorted(d for d in dirnames if d != "target")
                for name in sorted(filenames):
                    if name.endswith((".rs", ".toml", ".json")):
                        path = os.path.join(dirpath, name)
                        digest.update(os.path.relpath(path, root).encode())
                        with open(path, "rb") as f:
                            digest.update(f.read())
        commit = "source-sha256:" + digest.hexdigest()[:16]
    return f"nproc={nproc} rustc=\"{rustc}\" commit={commit}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", default="full", choices=["full", "tiny"])
    parser.add_argument("--inject-fault", default="none", choices=["none", "adr", "trace-byte"])
    args = parser.parse_args()

    root = os.getcwd()
    manifest = os.path.join("perfbench", "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    binary = os.path.join(target, "release", "perfbench")
    command = [
        binary,
        "--workload", args.workload,
        "--seed", args.seed,
        "--seconds", args.seconds,
        "--trace", args.trace,
        "--scale", args.scale,
        "--inject-fault", args.inject_fault,
        "--out", os.path.join(target, "perfbench"),
        "--host", fingerprint(root) + f" seed={args.seed}",
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
