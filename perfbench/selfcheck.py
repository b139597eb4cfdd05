#!/usr/bin/env python3
"""Self-check of the perfbench harness.

    python3 perfbench/selfcheck.py

Run from the repository root (about six minutes; figures alone takes
four of them). For every workload of BENCHMARK.json it checks that:
  - the workload, untraced and traced, exits 0 with a result whose
    metric names and units are exactly BENCHMARK.json's table, each
    with a finite value (run.py checks this on every run, and fails
    the run otherwise), no failed gate, and the metrics of the layers
    the workload exercises nonzero;
  - the traced serve run's server.coverage is at least 0.9 for every
    request class;
  - a run with one deliberately broken result (--break-gate: figures
    perturbs one warm row by one ulp, serve changes one digit of a mem
    response's mapping after its first ',', sweeps perturbs one disk
    pass winner's time by one ulp) exits nonzero and counts exactly that
    one failed operation.
It also checks that a directory holding only BENCHMARK.json and
perfbench/ makes the benchmark exit nonzero without printing a result.
Exits nonzero naming the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]

COMMON_SIM = ["sim.runs", "sim.blocks", "sim.run_s", "sim.us_per_block",
              "sim.cache_hits", "sim.cache_misses", "sim.cache_hit_ratio",
              "sim.cache_bytes", "codegen.compiles", "codegen.compile_ms",
              "analysis.search_ms", "analysis.candidates",
              "support.trace_overhead_pct", "bench.coverage"]

# Per-layer metrics that must be nonzero on each workload: the layers
# it exercises. Everything else may legitimately read 0 there.
NONZERO = {
    "figures": COMMON_SIM + [
        "apps.launches", "apps.fig12_cold_s", "apps.fig13_cold_s",
        "apps.fig14_cold_s", "apps.fig12_warm_s", "apps.fig13_warm_s",
        "apps.fig14_warm_s", "apps.launch_self_cold_s",
        "apps.launch_self_warm_s"],
    "serve": COMMON_SIM + [
        "sim.cache_find_mem_ms", "sim.cache_find_disk_ms",
        "sim.cache_disk_hits", "sim.cache_disk_stores",
        "sim.consolidation_s", "runtime.fingerprint_ms",
        "runtime.fingerprint_gb_per_s", "server.requests",
        "server.request_ms", "server.wait_ms", "server.bind_ms",
        "server.render_ms", "server.coverage", "server.coverage_cold",
        "server.coverage_mem", "server.coverage_disk",
        "server.cold_p50_ms", "server.cold_p90_ms", "server.cold_count",
        "server.mem_p50_ms", "server.mem_p90_ms", "server.mem_count",
        "server.disk_p50_ms", "server.disk_p90_ms", "server.disk_count"],
    "sweeps": COMMON_SIM + [
        "sim.cache_disk_hits", "sim.cache_disk_stores",
        "sim.consolidation_s", "sim.fleet_s", "runtime.fingerprint_ms",
        "runtime.fingerprint_gb_per_s", "codegen.autotune_s",
        "codegen.autotune_trials", "predict.train_s", "predict.samples",
        "predict.sweep_s", "predict.survivors", "predict.pruned",
        "support.parallel_jobs", "support.parallel_s"],
}


def check(ok, what):
    if not ok:
        print("selfcheck: FAILED: " + what, file=sys.stderr)
        sys.exit(1)
    print("selfcheck: ok: " + what)


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds", "10",
               "--trace", str(trace)] + list(extra),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is not None and "metrics" not in result:
        result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for workload in (w["name"] for w in spec["workloads"]):
        check(workload in NONZERO, workload + " has a self-check")
        for trace in (0, 1):
            proc, result = run(workload, trace)
            what = "%s --trace %d" % (workload, trace)
            check(proc.returncode == 0 and result is not None,
                  what + " exits 0 with a result (run.py checked names, "
                  "units and finite values)"
                  + ("" if proc.returncode == 0 else
                     ": " + proc.stderr[-500:]))
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  what + " passes every gate (%d attempted)"
                  % result["attempted"])
            metrics = result["metrics"]
            if trace == 0:
                zero = [n for n, m in metrics.items() if m["value"] == 0]
            else:
                zero = [n for n in NONZERO[workload]
                        if metrics[n]["value"] == 0]
            check(not zero, what + " measures every metric it exercises"
                  + (": zero %s" % zero if zero else ""))
            if workload == "serve" and trace == 1:
                low = [n for n in ("server.coverage_cold",
                                   "server.coverage_mem",
                                   "server.coverage_disk")
                       if metrics[n]["value"] < 0.9]
                check(not low, "serve replay covers >= 90% of the server "
                      "span per class" + (": %s" % low if low else ""))

        proc, result = run(workload, 0, "--break-gate")
        check(proc.returncode != 0 and result is not None
              and result["failed"] == 1 and not result["correct"],
              workload + " with one broken result exits nonzero and counts "
              "exactly that failure")

    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run("serve", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and result is None,
          "without the program sources the benchmark exits nonzero and "
          "prints no result")


if __name__ == "__main__":
    main()
