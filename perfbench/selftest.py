#!/usr/bin/env python3
"""Self-test of the benchmark command. Run from the repository root:

    python3 perfbench/selftest.py

Green path: at the tiny size, every workload prints, in its last line,
exactly the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1), each with its unit, and exits 0.
Red path: a corrupted output (an ADR of 1.5 fed to the checker, or one
flipped byte in a recorded trace) is counted as failed and the command
exits non-zero. Finally, in a directory holding only BENCHMARK.json and
the benchmark's files, the command exits non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TARGET = os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run(extra, cwd=ROOT, env=None):
    cmd = SPEC["command"] + ["--seed", "3", "--seconds", "1"] + extra
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900, env=env)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stdout + done.stderr


def expect(cond, what, output=""):
    if not cond:
        print(f"FAIL: {what}\n{output}")
        sys.exit(1)
    print(f"ok: {what}")


def main():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, result, out = run(["--workload", workload, "--trace", trace, "--scale", "tiny"])
            label = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None, f"{label} exits 0 with a result", out)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label} result has exactly the four keys", out)
            expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} is correct, attempted {result['attempted']}, failed 0", out)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{label} prints every {key} metric with its unit", out)
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{label} values are numbers", out)
            if key == "end_to_end":
                expect(all(m["value"] != 0 for m in result["metrics"].values()),
                       f"{label} end-to-end values are not 0", out)

    for workload, fault in (("credit_paper", "adr"), ("credit_wide", "adr"),
                            ("hiring_lab", "adr"), ("hiring_lab", "trace-byte")):
        for trace in ("0", "1"):
            code, result, out = run(["--workload", workload, "--trace", trace, "--scale", "tiny",
                                     "--inject-fault", fault])
            label = f"{workload} --trace {trace} with a corrupted {fault}"
            expect(code != 0, f"{label} exits non-zero", out)
            expect(result is not None and result["correct"] is False and result["failed"] >= 1,
                   f"{label} counts the corruption as failed", out)
            if fault == "trace-byte" and trace == "1":
                expect(result["metrics"]["trace.checksum_failures"]["value"] >= 1,
                       f"{label} counts a checksum failure", out)

    bare = os.path.join(ROOT, TARGET, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("target"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    code, result, out = run(["--workload", SPEC["workloads"][0]["name"], "--trace", "0"],
                            cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None,
           "without the program's sources the command exits non-zero without a result", out)
    print("selftest passed")


if __name__ == "__main__":
    main()
