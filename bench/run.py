"""The chipfire benchmark: one command per workload, outputs checked.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the code under test is always the
checkout's own `src/chipfire`, and the run refuses any other copy.
chipfire code runs only in fresh processes (child.py) that this process
starts one at a time, with no threads.

Workloads (see BENCHMARK.json for why each exists):
  k6-sweep     `chipfire family-scan --kind complete --n 6 --verify
               critical-groups` in a fresh process; the seed has no effect.
  k6-pair      four CLI commands, each in a fresh process, on one K6 sign
               pattern chosen by the seed.
  small-pairs  a stratified seeded batch of small signed multigraphs run
               through the public library calls, in one process per round.

A round is one pass over a workload's jobs.  After set-up the run repeats
rounds until the next one would end after --seconds.  Every time is
scaled to a reference host speed, read while the process that runs the
jobs is stopped for it (speed.py); wall_s is the sum over jobs of each
job's median time over the rounds, and wall_raw_s the same without the
scaling.  peak_rss_mb is the largest, over the processes of a round, of
each one's median peak resident memory over the rounds.  With --trace 1
the run first makes one traced round, whose spans and counters give the
per-layer metrics, then untraced rounds for the tracing overhead.

Standard output carries a readable report and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  The full
report goes to .bench_out/ in the checkout, and the spans of a traced
run to .bench_out/spans-<workload>-seed<n>.jsonl.  The exit code is 1
when any job fails its check, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import hashlib
import io
import itertools
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import gen
import speed
from tracer import LAYERS, LAYER_COUNTERS, CALL_COUNTERS, layer_totals, write_spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH, "reference.json")
WORKLOADS = ("k6-sweep", "k6-pair", "small-pairs")
DEFAULT_SEED = 1
SETUP_SAMPLES = 7
ROUND_TIMEOUT_S = 150

K6_SWEEP_ARGS = ("family-scan", "--kind", "complete", "--n", "6", "--verify", "critical-groups")
K6_PAIR_COMMANDS = (
    ("enumerate", ("enumerate", "--kind", "superstable", "--preimages", "--format", "csv")),
    ("duality", ("duality", "--show-mu-cases")),
    ("fixed_points", ("fixed-points", "--predict", "--format", "json")),
    ("frackets", ("frackets", "--side", "L")),
)
VECTOR = re.compile(r"\([^()]*\)")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# measured in the untraced rounds and reported on every workload
UNTRACED_PER_LAYER = (("wall_raw_s", "s"), ("fail_ratio", "ratio"))
# measured in the untraced rounds of one workload only (cmd.* on k6-pair,
# job_p* on small-pairs): in the report, not in the result line
WORKLOAD_DETAIL = (
    tuple((f"cmd.{name}_s", "s") for name, _ in K6_PAIR_COMMANDS)
    + (("job_p50_ms", "ms"), ("job_p90_ms", "ms"))
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, _, _ in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
        out += [(counter, "count") for counter in LAYER_COUNTERS.get(layer, ())]
    out += [(f"{layer}.calls", "count") for layer, _, _ in CALL_COUNTERS]
    out += [("cli.stdout_bytes", "bytes"), ("trace_overhead", "ratio")]
    return out + list(UNTRACED_PER_LAYER)


class BenchError(Exception):
    """The run cannot start: missing source, wrong import, missing reference."""


# -- source under test ------------------------------------------------------------

def load_chipfire():
    if not os.path.isfile(os.path.join(SRC, "chipfire", "__init__.py")):
        raise BenchError(f"no chipfire package under {SRC}")
    sys.path.insert(0, SRC)
    import chipfire

    expected = os.path.join(os.path.realpath(SRC), "chipfire", "__init__.py")
    if os.path.realpath(chipfire.__file__) != expected:
        raise BenchError(f"chipfire imported from {chipfire.__file__}, expected {expected}")
    return chipfire


def source_identity(chipfire):
    digest = hashlib.sha256()
    pkg = os.path.dirname(chipfire.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):   # an exported checkout has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"chipfire_file": os.path.relpath(chipfire.__file__, ROOT), "commit": commit,
            "src_sha256": digest.hexdigest()}


def load_reference():
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"reference outputs missing: {exc}") from exc


# -- fresh-process commands ---------------------------------------------------------

def run_command(argv, traced, job, mode="cli"):
    """Run child.py in a fresh process: one chipfire command (mode
    "cli"), a small-pairs batch ("batch", argv is the inputs file), or
    just the interpreter start and import ("setup").

    A command or batch is stopped every speed.SAMPLE_INTERVAL_S to read
    the host speed, and read once more when it has ended; the readings
    go into the result as "loop_s".  The stopped time is taken out of
    the returned wall seconds, of the result's "main_s" (the seconds of
    `cli.main`) and "job_s" (the seconds of each batch job that passed,
    else None) and of the spans of a traced process.

    Returns (wall seconds, stdout bytes, child result dict or None, stderr).
    """
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        result_path, out_path, err_path = (os.path.join(tmp, name)
                                           for name in ("result.json", "stdout", "stderr"))
        cmd = [sys.executable, os.path.join(BENCH, "child.py"), SRC, result_path,
               "1" if traced else "0", job, mode, *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, cmd, os.environ, file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            rc, end, pauses, readings = watch(pid, sample=mode != "setup")
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode(errors="replace")[-2000:]
        if rc is None:
            return end - start, stdout, None, "timed out"
        result = None
        if os.path.exists(result_path):
            with open(result_path) as fh:
                result = json.load(fh)
    run_time = unpaused(pauses)
    if result is not None:
        if rc != 0:
            result["rc"] = rc
        if mode != "setup":
            result["loop_s"] = readings
            if "main" in result:
                result["main_s"] = run_time(result["main"][1]) - run_time(result["main"][0])
            if "jobs" in result:
                result["job_s"] = [None if job is None else run_time(job[1]) - run_time(job[0])
                                   for job in result["jobs"]]
            if "spans" in result:
                result["spans"] = [(i, run_time(s), run_time(e), p, j)
                                   for i, s, e, p, j in result["spans"]]
    return run_time(end) - run_time(start), stdout, result, stderr


def watch(pid, sample):
    """Wait until process `pid` ends, at most ROUND_TIMEOUT_S.  With
    `sample`, stop it every speed.SAMPLE_INTERVAL_S and read the host
    speed on the vCPU it last ran on, and read it there once more when it
    has ended.  Returns (exit code, or None when it was killed for taking
    too long; the perf_counter time it ended; the [start, end] of each
    stop; the readings)."""
    pauses, readings = [], []
    deadline = time.perf_counter() + ROUND_TIMEOUT_S
    fd = os.pidfd_open(pid)
    status = None
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        while not poller.poll(speed.SAMPLE_INTERVAL_S * 1000):
            if time.perf_counter() > deadline:
                return None, time.perf_counter(), pauses, readings
            if not sample:
                continue
            paused = time.perf_counter()
            os.kill(pid, signal.SIGSTOP)
            _, status = os.waitpid(pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):       # it ended before it could be stopped
                readings.append(speed.calibration_s(speed.SAMPLE_LOOPS))
                return os.waitstatus_to_exitcode(status), paused, pauses, readings
            status = None
            readings.append(speed.reading_on(last_cpu(pid)))
            os.kill(pid, signal.SIGCONT)
            pauses.append((paused, time.perf_counter()))
        end = time.perf_counter()
        if sample:      # an ended process keeps its stat until it is reaped
            readings.append(speed.reading_on(last_cpu(pid)))
        _, status = os.waitpid(pid, 0)
        return os.waitstatus_to_exitcode(status), end, pauses, readings
    finally:
        os.close(fd)
        if status is None:      # still running, or stopped: end it and reap it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def last_cpu(pid):
    """The vCPU process `pid` last ran on (field 39 of /proc/<pid>/stat)."""
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def unpaused(pauses):
    """A function taking a perf_counter time to the time a process
    stopped during `pauses` (sorted [start, end] pairs) had run by then."""
    starts = [start for start, _ in pauses]
    before = list(itertools.accumulate((end - start for start, end in pauses), initial=0.0))

    def run_time(t):
        k = bisect.bisect_right(starts, t)
        if k and t < pauses[k - 1][1]:      # inside a pause
            return pauses[k - 1][0] - before[k - 1]
        return t - before[k]
    return run_time


def time_fresh_import():
    """Seconds a fresh interpreter takes to start and import chipfire,
    scaled by the host speed read inside it, and those readings."""
    wall, _, result, stderr = run_command((), False, "setup", mode="setup")
    if result is None:
        raise BenchError(f"a fresh interpreter could not import chipfire: {stderr}")
    return (wall - result["calibrating_s"]) * speed.scale_for(result["loop_s"]), result["loop_s"]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def parse_k6_histogram(text):
    """{invariant factors: patterns} from the family-scan table output."""
    hist = {}
    for line in text.splitlines():
        m = re.fullmatch(r"((?:Z_\d+)(?: x Z_\d+)*|trivial): (\d+) patterns", line)
        if m:
            factors = tuple(int(d) for d in re.findall(r"Z_(\d+)", m.group(1)))
            hist[factors] = int(m.group(2))
    return hist


# -- workloads ----------------------------------------------------------------------

class Round:
    """What one pass over a workload's jobs produced."""

    def __init__(self):
        self.attempted = 0
        self.failures = []         # (job, reason)
        self.job_s = {}            # job -> scaled seconds, passed jobs only
        self.job_raw_s = {}        # job -> unscaled seconds, passed jobs only
        self.rss_mb = {}           # process -> its peak resident MB
        self.cmd_s = {}            # k6-pair command -> cli.main seconds
        self.spans = []
        self.counts = {}
        self.present = set()
        self.stdout_bytes = 0
        self.loop_s = []           # reference-loop readings taken while the jobs ran

    def fail(self, job, reason):
        self.failures.append((job, reason))

    @property
    def wall(self):
        return sum(self.job_s.values())

    def merge_trace(self, spans, counts, present):
        offset = len(self.spans)
        self.spans += [(i, s, e, p + offset if p >= 0 else -1, j) for i, s, e, p, j in spans]
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.present |= set(present)


class CliWorkload:
    """Jobs are chipfire commands, each in a fresh process."""

    def run_round(self, inputs, number, traced):
        rnd = Round()
        for job, argv, check in self.jobs(inputs):
            rnd.attempted += 1
            job_id = f"r{number}:{job}"
            wall, stdout, result, stderr = run_command(argv, traced, job_id)
            if result is None or result["rc"] != 0:
                rnd.fail(job, f"exit {result['rc'] if result else 'without result'}: {stderr}")
                continue
            reason = check(stdout)
            if reason:
                rnd.fail(job, reason)
                continue
            rnd.loop_s += result["loop_s"]
            scale = speed.scale_for(result["loop_s"])
            rnd.job_raw_s[job] = wall
            rnd.job_s[job] = wall * scale
            rnd.cmd_s[job] = result["main_s"] * scale
            rnd.rss_mb[job] = result["peak_rss_kb"] / 1024
            rnd.stdout_bytes += len(stdout)
            if traced:
                rnd.merge_trace(result["spans"], result["counts"], result["present"])
        return rnd


class K6Sweep(CliWorkload):
    def __init__(self, reference):
        self.ref = reference

    def generate(self, seed):
        return {}

    def describe(self, inputs):
        return {"command": " ".join(K6_SWEEP_ARGS), "patterns": 1024}

    def jobs(self, inputs):
        yield "family_scan", K6_SWEEP_ARGS, self.check

    def check(self, stdout):
        hist = parse_k6_histogram(stdout.decode())
        want = {tuple(f): c for f, c in self.ref["k6_critical_groups"]}
        if hist != want:    # 7 groups over 1024 patterns
            return f"histogram {hist} differs from the reference {want}"
        if sha256(stdout) != self.ref["family_scan_sha256"]:
            return "stdout differs from the frozen digest"
        return None


class K6Pair(CliWorkload):
    def __init__(self, reference):
        self.ref = reference["k6_pairs"]
        self.candidates = sorted(int(p) for p in self.ref)

    def generate(self, seed):
        pattern = self.candidates[seed % len(self.candidates)]
        data = gen.k6_input(pattern)
        path = os.path.join(OUT, f"k6-pattern-{pattern}.sg")
        with open(path, "w") as fh:
            fh.write(data["text"])
        return {**data, "path": path}

    def describe(self, inputs):
        return {"pattern": inputs["pattern"], "det_l": inputs["det_l"],
                "candidates": self.candidates}

    def jobs(self, inputs):
        ref = self.ref[str(inputs["pattern"])]
        det_l = abs(inputs["det_l"])
        seen = {}

        def check(name):
            def checked(stdout):
                if sha256(stdout) != ref["stdout_sha256"][name]:
                    return "stdout differs from the frozen digest"
                return getattr(self, "check_" + name)(stdout.decode(), det_l, ref, seen)
            return checked

        for name, argv in K6_PAIR_COMMANDS:
            yield name, (*argv, "--graph", inputs["path"]), check(name)

    @staticmethod
    def check_enumerate(text, det_l, ref, seen):
        rows = list(csv.reader(io.StringIO(text)))[1:]
        seen["superstables"] = {r[0] for r in rows}
        if len(rows) != det_l or len(seen["superstables"]) != det_l:
            return f"{len(rows)} rows, expected |det L| = {det_l}"
        return None

    @staticmethod
    def check_duality(text, det_l, ref, seen):
        rows = [VECTOR.findall(line) for line in text.splitlines()[2:]]
        if len(rows) != det_l or any(len(r) != 4 for r in rows):
            return f"{len(rows)} duality rows, expected |det L| = {det_l}"
        criticals = sorted({r[2] for r in rows})
        if sha256("\n".join(criticals).encode()) != ref["criticals_sha256"]:
            return "dual configurations differ from the set of criticals"
        if "superstables" in seen and {r[0] for r in rows} != seen["superstables"]:
            return "duality superstables differ from the enumerate output"
        return None

    @staticmethod
    def check_fixed_points(text, det_l, ref, seen):
        data = json.loads(text)
        if data["count"] not in (0, data["predicted"]):
            return f"{data['count']} fixed points, predicted {data['predicted']} or 0"
        return None

    @staticmethod
    def check_frackets(text, det_l, ref, seen):
        sizes = [int(line.split(")", 1)[1].split()[0]) for line in text.splitlines()[2:]]
        if sum(sizes) != det_l or len(set(sizes)) != 1:
            return f"fracket sizes {sorted(set(sizes))} do not tile |det L| = {det_l}"
        return None


class SmallPairs:
    """Jobs are small pairs, run by the public library calls in one fresh
    process per round (child.py batch), which checks their outputs."""

    def generate(self, seed):
        jobs = gen.small_pairs(seed)
        path = os.path.join(OUT, f"small-pairs-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump(jobs, fh)
        return {"jobs": jobs, "path": path}

    def describe(self, inputs):
        jobs = inputs["jobs"]
        return {"jobs": len(jobs), "n": dict(sorted(Counter(job["n"] for job in jobs).items())),
                "det_l": _bucketed([job["det_l"] for job in jobs]),
                "det_m": _bucketed([job["det_m"] for job in jobs])}

    def run_round(self, inputs, number, traced):
        rnd = Round()
        rnd.attempted = len(inputs["jobs"])
        _, _, result, stderr = run_command((inputs["path"],), traced, f"r{number}", mode="batch")
        if result is None or result["rc"] != 0:
            for index in range(rnd.attempted):
                rnd.fail(index, f"batch exit {result['rc'] if result else 'without result'}: "
                                f"{stderr}")
            return rnd
        for index, reason in result["failures"]:
            rnd.fail(index, reason)
        rnd.loop_s = result["loop_s"]
        rnd.rss_mb["batch"] = result["peak_rss_kb"] / 1024
        scale = speed.scale_for(result["loop_s"])
        for index, seconds in enumerate(result["job_s"]):
            if seconds is not None:
                rnd.job_raw_s[index] = seconds
                rnd.job_s[index] = seconds * scale
        if traced:
            rnd.merge_trace(result["spans"], result["counts"], result["present"])
        return rnd


def _bucketed(values):
    edges = (1, 10, 30, 100, 301)
    return {f"[{lo},{hi})": sum(lo <= v < hi for v in values) for lo, hi in zip(edges, edges[1:])}


# -- one run ----------------------------------------------------------------------------

def job_times(rounds, raw=False):
    """{job: [seconds in each round where it passed]}, scaled unless raw."""
    out = {}
    for r in rounds:
        for job, seconds in (r.job_raw_s if raw else r.job_s).items():
            out.setdefault(job, []).append(seconds)
    return out


def wall(rounds, raw=False):
    """Sum over jobs of each job's median seconds over the rounds."""
    return sum(statistics.median(times) for times in job_times(rounds, raw).values())


def peak_rss(rounds):
    """Largest over the processes of a round of each one's median peak
    resident MB over the rounds."""
    per_process = {}
    for r in rounds:
        for name, mb in r.rss_mb.items():
            per_process.setdefault(name, []).append(mb)
    return max(statistics.median(v) for v in per_process.values()) if per_process else 0.0


def untraced_details(workload, rounds):
    """Unscaled wall, cmd.* seconds, job percentiles and fail ratio from
    untraced rounds; a metric the workload does not produce is left out."""
    out = {"wall_raw_s": wall(rounds, raw=True)}
    for name, _ in K6_PAIR_COMMANDS:
        times = [r.cmd_s[name] for r in rounds if name in r.cmd_s]
        if times:
            out[f"cmd.{name}_s"] = statistics.median(times)
    medians = []
    if isinstance(workload, SmallPairs):
        medians = [statistics.median(v) * 1000 for v in job_times(rounds).values()]
    if len(medians) > 1:
        out["job_p50_ms"] = statistics.median(medians)
        out["job_p90_ms"] = statistics.quantiles(medians, n=10)[-1]
    attempted = sum(r.attempted for r in rounds)
    out["fail_ratio"] = sum(len(r.failures) for r in rounds) / attempted
    return out


def traced_metrics(traced, untraced_wall):
    totals = layer_totals([layer for layer, _, _ in LAYERS], traced.spans)
    scale = speed.scale_for(traced.loop_s) if traced.loop_s else 1.0   # 1.0: every job failed
    metrics = {}
    for layer, _, _ in LAYERS:
        if layer in traced.present:
            calls, self_s = totals.get(layer, (0, 0.0))
            metrics[f"{layer}.calls"] = calls
            metrics[f"{layer}.self_s"] = self_s * scale
    for key, value in traced.counts.items():
        metrics[key] = value
    metrics["cli.stdout_bytes"] = traced.stdout_bytes
    metrics["trace_overhead"] = traced.wall / untraced_wall if untraced_wall else 0.0
    return metrics


def invoke(workload, seed, seconds, trace):
    """Run the benchmark in a fresh process: (exit code, result line or
    None, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stdout, proc.stderr


def report_path(workload, seed, trace):
    return os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")


def run(workload_name, seed, seconds, trace):
    chipfire = load_chipfire()
    identity = source_identity(chipfire)
    reference = load_reference()
    os.makedirs(OUT, exist_ok=True)
    workload = {
        "k6-sweep": lambda: K6Sweep(reference),
        "k6-pair": lambda: K6Pair(reference),
        "small-pairs": SmallPairs,
    }[workload_name]()

    print(f"chipfire bench: workload {workload_name}, seed {seed}, {seconds} s, trace {trace}")
    print(f"source {identity['chipfire_file']} commit {identity['commit']} "
          f"src sha256 {identity['src_sha256'][:16]}")
    loop_s = []
    setup_samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.calibration_s(speed.CALIBRATION_SAMPLES)
        start = time.perf_counter()
        inputs = workload.generate(seed)
        generation = time.perf_counter() - start
        after = speed.calibration_s(speed.CALIBRATION_SAMPLES)
        fresh_import, child_loop_s = time_fresh_import()
        loop_s += [before, after, *child_loop_s]
        setup_samples.append(fresh_import + generation * speed.scale_for([before, after]))
    setup_s = statistics.median(setup_samples)
    described = workload.describe(inputs)
    print(f"inputs {json.dumps(described)}")

    started = time.perf_counter()
    traced = workload.run_round(inputs, 0, True) if trace else None
    if traced:
        print(f"traced round: {traced.wall:.3f} s over {len(traced.job_s)} jobs, "
              f"{len(traced.failures)} failed")
    rounds = []
    while True:
        rnd = workload.run_round(inputs, len(rounds) + 1, False)
        rounds.append(rnd)
        print(f"round {len(rounds)}: {rnd.wall:.3f} s over {len(rnd.job_s)} jobs, "
              f"{len(rnd.failures)} failed")
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / (len(rounds) + (1 if trace else 0)) > seconds:
            break

    everything = rounds + ([traced] if traced else [])
    attempted = sum(r.attempted for r in everything)
    failures = [f for r in everything for f in r.failures]
    for job, reason in failures[:10]:
        print(f"FAILED job {job}: {reason}")
    wall_s = wall(rounds)
    end_to_end = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss(rounds)}
    details = untraced_details(workload, rounds)
    loop_s += [t for r in everything for t in r.loop_s]
    slowdown = statistics.median(loop_s) / speed.REFERENCE_S
    print(f"host slowdown against the reference speed: median {slowdown:.3f} "
          f"over {len(loop_s)} loop timings")
    for name, unit in END_TO_END + UNTRACED_PER_LAYER + WORKLOAD_DETAIL:
        value = end_to_end.get(name, details.get(name))
        if value is not None:
            print(f"{name:>20} {value:12.6g} {unit}")

    absent = []
    if trace:
        values = {**traced_metrics(traced, wall_s), **details}
        # the result line holds every per-layer metric: one whose name the
        # program no longer defines was called 0 times, and is named here
        absent = [name for name, _ in per_layer_names() if name not in values]
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in per_layer_names()}
        spans_path = os.path.join(OUT, f"spans-{workload_name}-seed{seed}.jsonl")
        write_spans(spans_path, [layer for layer, _, _ in LAYERS], traced.spans)
        print(f"spans: {len(traced.spans)} written to {spans_path}; absent metrics: {absent}")
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END}

    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "source": identity, "inputs": described, "setup_samples_s": setup_samples,
        "host_slowdown": slowdown, "loop_s": loop_s,
        "round_wall_s": [r.wall for r in rounds], "end_to_end": end_to_end, "details": details,
        "rounds": [{"job_raw_s": r.job_raw_s, "loop_s": r.loop_s} for r in rounds],
        "failures": [[str(job), reason] for job, reason in failures], "metrics": metrics,
        "absent_metrics": absent,
    }
    with open(report_path(workload_name, seed, trace), "w") as fh:
        json.dump(report, fh, indent=1)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
