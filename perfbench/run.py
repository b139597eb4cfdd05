#!/usr/bin/env python3
"""Build and run the perfbench harness (see perfbench/README.md).

    python3 perfbench/run.py --workload figures|serve|sweeps --seed N \
        --seconds S --trace 0|1

Run from the repository root. The harness is built from ../src into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first
use. stdout carries a run header line and, last, one JSON result line;
build output and diagnostics go to stderr. Exits nonzero, without a
result line, when the sources are missing, the build fails, or the
harness emits metrics that do not match BENCHMARK.json; exits nonzero
with the result line when a correctness gate failed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_LIMIT_S = 175


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then (re)build; returns the harness binary path.
    The compiler's temporary files go under the build directory, so a
    run writes only inside the checkout."""
    out = build_dir()
    src = os.path.join(ROOT, "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "-j", str(os.cpu_count() or 2)],
        cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def source_hash():
    """Content hash of the program sources (the checkout may not be a
    git repository, so this identifies the code under test)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    table = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def check_result(result, trace):
    """The harness self-check every run makes: exact keys, every metric
    of BENCHMARK.json's table once with its unit and a finite value."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted %r" % result["attempted"]
    expected = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(expected):
        return "metric names differ from BENCHMARK.json: missing %s, " \
               "extra %s" % (sorted(set(expected) - set(got)),
                             sorted(set(got) - set(expected)))
    for name, unit in expected.items():
        m = got[name]
        if m.get("unit") != unit:
            return "%s unit %r, BENCHMARK.json says %r" % (
                name, m.get("unit"), unit)
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            return "%s value %r is not finite" % (name, v)
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["figures", "serve", "sweeps"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--break-gate", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    started = time.monotonic()
    for needed in ("src", "perfbench/CMakeLists.txt", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing; run from a full checkout" % needed, 2)
    os.chdir(ROOT)
    first_build = not os.path.exists(
        os.path.join(build_dir(), "CMakeCache.txt"))
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e, 3)
    if first_build:
        # The first build of a checkout may take minutes; the run limit
        # applies to the runs after it.
        started = time.monotonic()

    # A fresh scratch directory inside the checkout, named relative to
    # it so the Unix socket path stays short.
    scratch = os.path.relpath(
        os.path.join(build_dir(), "run-%d" % os.getpid()), ROOT)
    shutil.rmtree(scratch, ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("NPP_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.break_gate:
        cmd.append("--break-gate")
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(budget, 10))
    except subprocess.TimeoutExpired:
        fail("harness exceeded the %d s run limit" % RUN_LIMIT_S, 5)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if not lines:
        fail("harness printed nothing (exit %d)" % proc.returncode, 6)
    for line in lines[:-1]:
        try:
            doc = json.loads(line)
        except ValueError:
            doc = None
        if isinstance(doc, dict) and "header" in doc:
            doc["header"]["git_commit"] = git_commit()
            doc["header"]["source_hash"] = source_hash()
            line = json.dumps(doc)
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        fail("no result line (exit %d): %s"
             % (proc.returncode, lines[-1][:200]), 6)
    problem = check_result(result, args.trace == 1)
    if problem:
        fail("harness self-check: " + problem, 4)
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or result["failed"] or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
