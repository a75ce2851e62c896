"""The fresh process in which the benchmark runs chipfire code.

    python3 bench/child.py SRC RESULT TRACE JOB setup
    python3 bench/child.py SRC RESULT TRACE JOB cli <chipfire arguments...>
    python3 bench/child.py SRC RESULT TRACE JOB batch INPUTS

Imports chipfire from SRC (and refuses any other copy), then either
exits (`setup`, which times interpreter start plus import), runs
`chipfire.cli.main` on the arguments with stdout passed through (`cli`,
as a CLI user runs one command), or runs the small-pairs jobs listed in
the JSON file INPUTS through the public library calls and checks each
job's outputs (`batch`).

RESULT receives a JSON object with the exit code and, for `setup`, two
reference-loop readings taken in this process just before and just
after the import (speed.py) and the time those readings took.  For
`cli` it receives the perf_counter stamps at which `cli.main` started
and ended, and for `batch` those of each job that passed its check and
the reason of each that failed (the clock is the same in every process,
so the parent can take out the time it kept this process stopped).
When TRACE is 1 it also receives the spans and counters of the tracer.
For `cli` and `batch` it receives the process's peak resident memory
since it started this script ("peak_rss_kb", VmHWM): getrusage would
also count the memory of the parent it was spawned from.
"""

from __future__ import annotations

import json
import os
import sys
import time


def import_chipfire(src):
    """Import chipfire from src only; exit 3 if it resolves elsewhere."""
    sys.path.insert(0, src)
    import chipfire

    expected = os.path.join(os.path.realpath(src), "chipfire", "__init__.py")
    if os.path.realpath(chipfire.__file__) != expected:
        print(f"bench: chipfire imported from {chipfire.__file__}, expected {expected}",
              file=sys.stderr)
        sys.exit(3)
    return chipfire


def time_import(src):
    from speed import CALIBRATION_SAMPLES, calibration_s

    # the host speed before and after the import, and the time those
    # two readings took, which the parent takes off the process time
    start = time.perf_counter()
    readings = [calibration_s(CALIBRATION_SAMPLES)]
    calibrating = time.perf_counter() - start
    import_chipfire(src)
    start = time.perf_counter()
    readings.append(calibration_s(CALIBRATION_SAMPLES))
    calibrating += time.perf_counter() - start
    return {"rc": 0, "loop_s": readings, "calibrating_s": calibrating}


def run_cli(chipfire, args):
    import chipfire.cli

    start = time.perf_counter()
    try:
        rc = chipfire.cli.main(args)
    finally:
        end = time.perf_counter()
    sys.stdout.flush()
    return {"rc": rc, "main": [start, end]}


def run_batch(cf, inputs_path, tracer, job):
    """Run every small-pairs job, then check the outputs of each."""
    with open(inputs_path) as fh:
        jobs = json.load(fh)
    times, outputs, failures = [], [], []
    for index, spec in enumerate(jobs):
        if tracer:
            tracer.job = f"{job}:{index}"
        start = time.perf_counter()
        try:
            pair = cf.reduced_laplacians(cf.parse_edge_list(spec["text"]))
            out = {
                "pair": pair,
                "superstables": pair.enumerate_pair_superstables(),
                "criticals": pair.enumerate_pair_criticals(),
                "table": cf.duality_table(pair),
                "frackets": [cf.fracket_partition(pair, side) for side in "LM"],
                "fixed": cf.fixed_points(pair),
                "predicted": cf.predicted_fixed_point_count(pair),
            }
        except Exception as exc:  # a failed job is counted, not fatal
            out = f"{type(exc).__name__}: {exc}"
        times.append([start, time.perf_counter()])
        outputs.append(out)
    if tracer:
        tracer.uninstall()
    for index, (spec, out) in enumerate(zip(jobs, outputs)):
        reason = out if isinstance(out, str) else check_pair(cf, spec, out)
        if reason:
            times[index] = None
            failures.append([index, reason])
    return {"rc": 0, "jobs": times, "failures": failures}


def check_pair(cf, spec, out):
    pair = out["pair"]
    det_l, det_m = spec["det_l"], spec["det_m"]
    if len(out["superstables"]) != det_l or len(out["criticals"]) != det_l:
        return "row count differs from |det L|"
    for row in out["table"]:
        if cf.duality_inverse(pair, row["dual_preimage"]) != row["preimage"]:
            return "duality_inverse does not map a result back to its input"
    for part, det in zip(out["frackets"], (det_l, det_m)):
        if part.fracket_count * part.fracket_size != det:
            return f"fracket count x size differs from |det {part.side}|"
    if len(out["fixed"]) not in (0, out["predicted"]):
        return "fixed-point count is neither 0 nor the predicted count"
    return None


def peak_rss_kb():
    """Peak resident memory of this process image (VmHWM of
    /proc/self/status), which exec started afresh."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


def main(argv):
    src, result_path, trace, job, mode, *args = argv
    if mode == "setup":
        result = time_import(src)
    else:
        chipfire = import_chipfire(src)
        tracer = None
        if trace == "1":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(chipfire)
            tracer.job = job
        if mode == "cli":
            result = run_cli(chipfire, args)
        else:
            result = run_batch(chipfire, args[0], tracer, job)
        if tracer is not None:
            tracer.uninstall()
            tracer.finish_counters()
            result.update(spans=tracer.spans, counts=tracer.counts,
                          present=sorted(tracer.present))
        result["peak_rss_kb"] = peak_rss_kb()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
