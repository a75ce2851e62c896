"""Self-test of the benchmark harness.

    python3 bench/selftest.py

1. The tracer patches a name at every module that binds it, and a name
   the program does not define becomes an absent metric, not a crash
   (checked on a stub package, so it runs in a second).
2. A traced run's result line holds exactly the per-layer metrics of
   BENCHMARK.json, each in its unit.
3. Every counter of a traced run repeats exactly in a second traced run
   of the same workload and seed.  The counters are the per-layer
   metrics with unit "count" or "bytes".

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys
import types

import run
from tracer import Tracer


def stub_package():
    """A package `stubcf` whose `pairs` imports `mat_mul` by name and whose
    `linalg` lacks every other traced function."""
    pkg = types.ModuleType("stubcf")
    linalg = types.ModuleType("stubcf.linalg")
    pairs = types.ModuleType("stubcf.pairs")

    def mat_mul(a, b):
        return a * b

    linalg.mat_mul = mat_mul
    pairs.mat_mul = mat_mul
    pkg.mat_mul = mat_mul
    for mod in (pkg, linalg, pairs):
        sys.modules[mod.__name__] = mod
    return pkg, linalg, pairs


def check_patching():
    pkg, linalg, pairs = stub_package()
    original = linalg.mat_mul
    tracer = Tracer()
    try:
        tracer.install(pkg)
        results = (linalg.mat_mul(2, 3), pairs.mat_mul(3, 4), pkg.mat_mul(1, 1))
    finally:
        tracer.uninstall()
        for name in ("stubcf", "stubcf.linalg", "stubcf.pairs"):
            sys.modules.pop(name, None)
    calls = sum(1 for span in tracer.spans if tracer.names[span[0]] == "linalg.mat_mul")
    problems = []
    if results != (6, 12, 1):
        problems.append(f"wrapped mat_mul returned {results}, expected (6, 12, 1)")
    if calls != 3:
        problems.append(f"mat_mul traced {calls} times, expected 3 (one per binding)")
    if not (pkg.mat_mul is linalg.mat_mul is pairs.mat_mul is original):
        problems.append("uninstall did not restore the original bindings")
    if tracer.present != {"linalg.mat_mul"}:
        problems.append(f"traced layers {sorted(tracer.present)}, expected only linalg.mat_mul")
    return problems


def manifest_per_layer():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def traced_counters(workload, seed, problems):
    rc, result, stdout, stderr = run.invoke(workload, seed, 1, 1)
    if rc != 0:
        raise SystemExit(f"{workload}: traced run exited {rc}\n{stdout[-2000:]}{stderr[-2000:]}")
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    if units != manifest_per_layer():
        problems.append(f"{workload}: result line metrics differ from BENCHMARK.json's per_layer")
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "bytes")}


def main():
    problems = check_patching()
    for workload in run.WORKLOADS:
        first = traced_counters(workload, run.DEFAULT_SEED, problems)
        second = traced_counters(workload, run.DEFAULT_SEED, problems)
        differ = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
                  if first.get(k) != second.get(k)}
        if differ:
            problems.append(f"{workload}: counters differ between traced runs: {differ}")
        print(f"{workload}: {len(first)} counters, {'identical' if not differ else 'DIFFERENT'}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "passed" if not problems else "failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
