"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

One caller in one process runs a closed loop of whole passes over the
workload's job mix until --seconds have elapsed, checking every job's
output with its oracle outside the timed region. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced passes and
reports the per-layer metrics. Set-up time comes from fresh interpreters
(probe.py) started between passes. The last stdout line is the JSON
result; the lines before it
give the environment, every metric with its unit and direction, and the
latency of each job class. The full record, with the spans of a traced
run, goes to .bench_out/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from time import perf_counter

import env

SETUP_PROBES = 5
SHOWN_FAILURES = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=env.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def probe(workload: str, seed: int) -> dict:
    """Time one fresh interpreter from spawn until the workload is ready."""
    cmd = [sys.executable, os.path.join(env.BENCH_DIR, "probe.py"), workload, str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=env.ROOT) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait()
    if rc != 0 or not line:
        print(f"error: set-up probe exited with {rc}", file=sys.stderr)
        raise SystemExit(2)
    rec = json.loads(line)
    rec["setup_s"] = ready
    return rec


class Tally:
    """Jobs attempted and failed, per job class."""

    def __init__(self):
        self.attempted = 0
        self.failed = Counter()
        self.reasons: dict[str, str] = {}

    def fail(self, key: str, reason: str) -> None:
        self.failed[key] += 1
        self.reasons.setdefault(key, reason)


def run_job(job, tally: Tally, tracer=None) -> tuple[float, bool]:
    """Run one job (timed), then its oracle (not timed)."""
    import oracles

    tally.attempted += 1
    if tracer is not None:
        tracer.job = tally.attempted
    t0 = perf_counter()
    try:
        out = job.run()
    except Exception:  # a raised exception fails the job, not the run
        dt = perf_counter() - t0
        tally.fail(job.key, "raised " + traceback.format_exc(limit=-1).strip())
        return dt, False
    dt = perf_counter() - t0
    try:
        job.check(out)
    except oracles.Reject as e:
        tally.fail(job.key, str(e))
        return dt, False
    except Exception:  # e.g. a missing output file
        tally.fail(job.key, "oracle: " + traceback.format_exc(limit=-1).strip())
        return dt, False
    if tracer is not None:
        tracer.work["cli.write_bytes"] += sum(os.path.getsize(f) for f in job.cli_files)
    return dt, True


class Pass:
    """One pass over the job mix: job time, passed jobs and every job's latency.

    A sample is keyed by the job's copy, "<class> #<position in the pass>":
    each copy is its own drawn input. A job the oracle rejects still did
    its work, so its latency counts; its failure counts in ok_ratio and
    jobs_per_s.
    """

    def __init__(self, wl, tally: Tally, tracer=None):
        self.job_s = 0.0
        self.passed = 0
        self.samples: list[tuple[str, float]] = []
        for i, job in enumerate(wl.jobs):
            dt, ok = run_job(job, tally, tracer)
            self.job_s += dt
            self.passed += ok
            self.samples.append((f"{job.key} #{i}", dt))


class Probes:
    """Set-up probes spread evenly over the timed loop.

    The host's speed drifts over tens of seconds, so probes taken back to
    back can all land in one slow spell; spread out, their median cannot.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.args = (workload, seed)
        self.due = [seconds * j / SETUP_PROBES for j in range(SETUP_PROBES)]
        self.records: list[dict] = []

    def run_due(self, elapsed: float) -> float:
        """Run every probe due by `elapsed`; return the wall time taken."""
        t0 = perf_counter()
        while len(self.records) < len(self.due) and self.due[len(self.records)] <= elapsed:
            self.records.append(probe(*self.args))
        return perf_counter() - t0


def run_loop(seconds: float, probes: Probes, step) -> None:
    """Call step() until `seconds` of loop time have passed (at least once).

    Probes run between steps as they fall due; their time is not loop time.
    """
    start, paused, steps = perf_counter(), 0.0, 0
    while True:
        elapsed = perf_counter() - start - paused
        if steps and elapsed >= seconds:
            break
        paused += probes.run_due(elapsed)
        step()
        steps += 1
    probes.run_due(math.inf)


def timed_loop(wl, seconds: float, tally: Tally, probes: Probes) -> list[Pass]:
    """Whole untraced passes."""
    passes = []
    run_loop(seconds, probes, lambda: passes.append(Pass(wl, tally)))
    return passes


def traced_loop(wl, seconds: float, tally: Tally, tracer, probes: Probes):
    """Alternating untraced and traced passes."""
    plain, traced = [], []

    def step():
        plain.append(Pass(wl, tally))
        tracer.install()
        try:
            traced.append(Pass(wl, tally, tracer))
        finally:
            tracer.uninstall()

    run_loop(seconds, probes, step)
    return plain, traced


def end_to_end(passes, probes, tally):
    import metrics

    latencies = defaultdict(list)
    for p in passes:
        for copy, dt in p.samples:
            latencies[copy].append(dt * 1e3)
    passed = sum(p.passed for p in passes)
    if not passed:
        raise SystemExit("error: no job passed its oracle")
    values, notes = metrics.job_metrics(latencies, passed, sum(p.job_s for p in passes))
    values.update({
        "setup_s": statistics.median(r["setup_s"] for r in probes),
        "ok_ratio": (tally.attempted - sum(tally.failed.values())) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    notes["setup_s"] = f"median of {len(probes)} fresh interpreters spread over the run"
    notes["jobs_per_s"] += f", {len(passes)} passes"
    by_class = defaultdict(list)
    for copy, samples in latencies.items():
        by_class[metrics.job_class(copy)].append(samples)
    classes = []
    for k, copies in by_class.items():
        ms = [x for samples in copies for x in samples]
        classes.append((statistics.median(ms), f"class {k}: {len(copies)} copies, "
                        f"{len(ms)} runs, median {statistics.median(ms):.4g} ms, "
                        f"min {min(ms):.4g} ms, max {max(ms):.4g} ms"))
    classes = [line for _, line in sorted(classes)]
    return values, notes, classes, dict(latencies)


def main(argv=None) -> int:
    args = parse_args(argv)
    env.pin_threads()
    env.require_source()
    env.import_consensuslab()
    import metrics
    import spans
    import workloads

    header = env.header(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(header, sort_keys=True))
    os.makedirs(env.WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=env.WORK_DIR)
    tally = Tally()
    probes = Probes(args.workload, args.seed, args.seconds)
    tracer = spans.Tracer() if args.trace else None
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        for job in wl.warmup:
            run_job(job, tally)
        if tracer is None:
            passes = timed_loop(wl, args.seconds, tally, probes)
            values, notes, classes, latencies = end_to_end(passes, probes.records, tally)
            table = metrics.END_TO_END
        else:
            plain, traced = traced_loop(wl, args.seconds, tally, tracer, probes)
            traced_s = sum(p.job_s for p in traced)
            values = tracer.summary(len(traced), traced_s)
            records = probes.records
            values["consensuslab.import_s"] = statistics.median(r["import_s"] for r in records)
            values["setup.inputs_s"] = statistics.median(r["inputs_s"] for r in records)
            values["trace.overhead_ratio"] = traced_s / sum(p.job_s for p in plain)
            notes = {"trace.overhead_ratio": f"{len(traced)} traced vs {len(plain)} plain passes"}
            classes = [f"per-layer sums are per traced pass; {len(tracer.spans)} spans"]
            table = metrics.PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(env.WORK_DIR)
        except OSError:
            pass

    failed = sum(tally.failed.values())
    for line in classes:
        print(line)
    for key, reason in list(tally.reasons.items())[:SHOWN_FAILURES]:
        print(f"fail {key} ({tally.failed[key]}x): {reason}")
    print(f"fail_ratio {failed / tally.attempted:.6g} ({failed} of {tally.attempted} jobs)")
    for name in table:
        print(metrics.line(name, values[name], notes.get(name, "")))
    res = metrics.result(failed == 0, tally.attempted, failed, values, table)

    os.makedirs(env.OUT_DIR, exist_ok=True)
    record = {"env": header, "result": res, "notes": notes, "classes": classes,
              "failures": {k: [tally.failed[k], r] for k, r in tally.reasons.items()}}
    if tracer is None:
        record["latencies_ms"] = latencies
        record["pass_s"] = [p.job_s for p in passes]
    else:
        record["trace"] = tracer.dump()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(env.OUT_DIR, name), "w") as fh:
        json.dump(record, fh)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
