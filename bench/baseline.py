"""Measure the benchmark's baseline at the current commit.

    python3 bench/baseline.py

For each workload: two sets of RUNS untraced runs, each run with another
seed (set k uses seeds stride_k * 1 .. stride_k * RUNS), then one traced
run at the workload's default seed.  Runs last run_seconds from
BENCHMARK.json.  Writes bench/baseline.json with every run's end-to-end
values and, per set, their median, quartiles and spread (inter-quartile
range over median, as statistics.quantiles gives them); the change of
each median from the first set to the second as a share of the first;
and the traced per-layer table.  Each run is its own process, started
and awaited one at a time.
"""

import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("suite", "explore", "rational")
RUNS = 10
# Two far-apart seed strides, so the two sets draw different inputs.
SEED_STRIDES = (7919, 104729)


def bench(workload, seed, seconds, trace):
    """One run of run.py; seed None means the workload's default seed."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    info_line, result_line = proc.stdout.splitlines()[-2:]
    result = json.loads(result_line)
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect\n{proc.stderr}")
    return json.loads(info_line)["info"], result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def measure_set(workload, stride, seconds):
    seeds = [stride * k for k in range(1, RUNS + 1)]
    values = {}
    for seed in seeds:
        _, result = bench(workload, seed, seconds, 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
              file=sys.stderr, flush=True)
    return {"seeds": seeds,
            "end_to_end": {k: summary(v) for k, v in values.items()}}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    out = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        sets = [measure_set(workload, stride, seconds)
                for stride in SEED_STRIDES]
        first, second = (s["end_to_end"] for s in sets)
        info, traced = bench(workload, None, seconds, 1)
        out["environment"] = {k: info[k] for k in (
            "nproc", "python", "numpy", "thread_caps", "git_commit",
            "src_sha256")}
        out["workloads"][workload] = {
            "sets": sets,
            "median_change": {k: second[k]["median"] / first[k]["median"] - 1
                              for k in first},
            "traced_seed": info["seed"],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    with open(os.path.join(BENCH, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
