"""Freeze the reference outputs the benchmark checks against.

    python3 bench/freeze.py

Writes bench/reference.json: the K6 critical-group histogram copied from
chipfire.refdata, the sha256 of the k6-sweep output, the candidate K6
sign patterns for k6-pair (every fifth pattern of the orbit of pattern
691 under permutations of the non-sink vertices, 691 included), and for each candidate
the sha256 of each command's stdout and of its sorted critical
configurations.  Run it only at a commit whose outputs are known good;
the benchmark then fails any later commit whose outputs differ.
"""

from __future__ import annotations

import json
import os

import gen
import run

SEED_PATTERN = 691


def main():
    chipfire = run.load_chipfire()
    os.makedirs(run.OUT, exist_ok=True)
    from chipfire.refdata import K6_CRITICAL_GROUPS

    _, stdout, result, stderr = run.run_command(run.K6_SWEEP_ARGS, False, "freeze")
    if result is None or result["rc"] != 0:
        raise SystemExit(f"family-scan failed: {stderr}")
    reference = {
        "k6_critical_groups": sorted([list(f), c] for f, c in K6_CRITICAL_GROUPS.items()),
        "family_scan_sha256": run.sha256(stdout),
        "k6_pairs": {},
    }
    reason = run.K6Sweep(reference).check(stdout)
    if reason:
        raise SystemExit(f"family-scan: {reason}")
    orbit = gen.k6_orbit(SEED_PATTERN)
    for pattern in orbit[orbit.index(SEED_PATTERN) % 5::5]:
        data = gen.k6_input(pattern)
        pair = chipfire.reduced_laplacians(chipfire.parse_edge_list(data["text"]))
        criticals = sorted("(" + ", ".join(str(x) for x in r.config) + ")"
                           for r in pair.enumerate_pair_criticals())
        entry = {"det_l": data["det_l"], "criticals_sha256": run.sha256("\n".join(criticals).encode()),
                 "stdout_sha256": {}}
        path = os.path.join(run.OUT, f"k6-pattern-{pattern}.sg")
        with open(path, "w") as fh:
            fh.write(data["text"])
        outputs = {}
        for name, argv in run.K6_PAIR_COMMANDS:
            _, stdout, result, stderr = run.run_command((*argv, "--graph", path), False, "freeze")
            if result is None or result["rc"] != 0:
                raise SystemExit(f"{name} failed on pattern {pattern}: {stderr}")
            entry["stdout_sha256"][name] = run.sha256(stdout)
            outputs[name] = stdout
        reference["k6_pairs"][str(pattern)] = entry
        # the frozen outputs must pass the structural checks too
        k6_pair = run.K6Pair(reference)
        for name, _, check in k6_pair.jobs({**data, "path": path}):
            reason = check(outputs[name])
            if reason:
                raise SystemExit(f"{name} on pattern {pattern}: {reason}")
        print(f"pattern {pattern}: det L {data['det_l']}", flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
