"""Record the benchmark's baseline, its run-to-run spread and how well
two sets of runs agree.

    python3 bench/baseline.py

Runs every workload RUNS times with seeds 1..RUNS (tracing off), then
every workload a second set of RUNS times with seeds RUNS+1..2*RUNS, and
each workload once traced with seed 1, all for BENCHMARK.json's
run_seconds.  Writes bench/baseline.json: the machine, the source
identity, and per workload and set each end-to-end metric's values,
median and spread (interquartile range over median, as
statistics.quantiles(values, n=4) gives the quartiles), the same for the
unscaled wall time and for the host slowdown each run measured, the
change of each median from the first set to the second, and the
per-layer metrics of the traced run.  Exits 1 if any run fails.
"""

from __future__ import annotations

import json
import os
import platform
import statistics

import run

BASELINE = os.path.join(run.BENCH, "baseline.json")
RUNS = 10
SETS = 2


def one_run(workload, seed, seconds, trace):
    rc, result, stdout, stderr = run.invoke(workload, seed, seconds, trace)
    if rc != 0 or not result or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed (exit {rc})\n"
                         f"{stdout[-2000:]}{stderr[-2000:]}")
    with open(run.report_path(workload, seed, trace)) as fh:
        report = json.load(fh)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        # what the scaling in speed.py takes out: the unscaled wall time,
        # and how much slower than the reference speed the host ran
        values["wall_raw_s"] = report["details"]["wall_raw_s"]
        values["host_slowdown"] = report["host_slowdown"]
    return values


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    chipfire = run.load_chipfire()
    baseline = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version()},
        "source": run.source_identity(chipfire),
        "runs": RUNS, "sets": SETS, "seconds": seconds,
        "workloads": {w: {"sets": []} for w in run.WORKLOADS},
    }
    for number in range(SETS):
        for workload, entry in baseline["workloads"].items():
            seeds = range(number * RUNS + 1, (number + 1) * RUNS + 1)
            runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
            entry["sets"].append({name: summary([r[name] for r in runs]) for name in runs[0]})
            print(workload, f"set {number + 1}",
                  {k: f"median {v['median']:.4g} spread {v['spread']:.3f}"
                   for k, v in entry["sets"][-1].items()}, flush=True)
    for workload, entry in baseline["workloads"].items():
        first, last = entry["sets"][0], entry["sets"][-1]
        entry["median_change"] = {name: last[name]["median"] / first[name]["median"] - 1
                                  for name in first}
        entry["traced_seed_1"] = one_run(workload, 1, seconds, 1)
        print(workload, "median change", {k: f"{v:+.3f}" for k, v in entry["median_change"].items()},
              flush=True)
    with open(BASELINE, "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
