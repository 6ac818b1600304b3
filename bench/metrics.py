"""Every metric the benchmark reports: name -> (unit, better).

BENCHMARK.json at the checkout root lists the same names, units and
directions; test_bench.py checks that the two agree both ways.
"""

from __future__ import annotations

import math

END_TO_END = {
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "job_p50_ms": ("ms", "lower"),
    "job_tail_ms": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

LAYERS = ("net", "spectral", "analysis", "sim", "cli")

PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.share"] = ("ratio", "lower")
    PER_LAYER[f"{_layer}.errors"] = ("count", "lower")
PER_LAYER.update({
    "spectral.eig_s": ("s", "lower"),
    "spectral.eig_calls": ("count", "lower"),
    "spectral.eig_work_n3": ("count", "lower"),
    "spectral.eig_ns_per_n3": ("ns", "lower"),
    "net.structure_s": ("s", "lower"),
    "net.read_s": ("s", "lower"),
    "net.read_bytes": ("B", "lower"),
    "net.validate_s": ("s", "lower"),
    "analysis.map_calls": ("count", "lower"),
    "analysis.optimal_beta_s": ("s", "lower"),
    "analysis.convergence_s": ("s", "lower"),
    "sim.run_batch_s": ("s", "lower"),
    "sim.agent_steps": ("count", "higher"),
    "sim.substreams": ("count", "higher"),
    "sim.ns_per_agent_step": ("ns", "lower"),
    "sim.fit_s": ("s", "lower"),
    "sim.fit_ok_ratio": ("ratio", "higher"),
    "sim.write_csv_s": ("s", "lower"),
    "sim.write_bytes": ("B", "lower"),
    "cli.write_bytes": ("B", "lower"),
    "consensuslab.import_s": ("s", "lower"),
    "setup.inputs_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})

# The tail is read at the highest of these percentiles that leaves at
# least TAIL_BEYOND of the run's job samples above it. A fixed ladder keeps
# the percentile the same from run to run while the sample count stays
# inside one band.
TAIL_LADDER = (99.9, 99.0, 95.0, 75.0, 50.0)
TAIL_BEYOND = 10

def job_class(copy: str) -> str:
    """The job class of a copy key "<class> #<position in the pass>"."""
    return copy.rsplit(" #", 1)[0]


def rank(p: float, samples: int) -> int:
    """1-based nearest rank of percentile p among `samples` sorted samples."""
    return max(math.ceil(p * samples / 100.0 - 1e-9), 1)


def tail_percentile(samples: int) -> float:
    """The ladder percentile the tail is read at, for a run of `samples` jobs."""
    for p in TAIL_LADDER:
        if samples - rank(p, samples) >= TAIL_BEYOND:
            return p
    return TAIL_LADDER[-1]


def job_metrics(latencies: dict[str, list[float]], passed: int, job_s: float
                ) -> tuple[dict, dict]:
    """jobs_per_s, job_p50_ms and job_tail_ms of an untraced loop.

    `latencies` maps each job copy (one drawn input, see run.Pass) to the
    latencies in ms of all its runs; `passed` jobs passed their oracle in
    `job_s` seconds of total job time. jobs_per_s is the passed jobs over
    that time; p50 and the tail are percentiles of every sample.
    """
    ranked = sorted((ms, copy) for copy, samples in latencies.items() for ms in samples)
    n = len(ranked)
    p = tail_percentile(n)
    mid, mid_copy = ranked[rank(50.0, n) - 1]
    top, top_copy = ranked[rank(p, n) - 1]
    values = {"jobs_per_s": passed / job_s, "job_p50_ms": mid, "job_tail_ms": top}
    notes = {
        "jobs_per_s": f"{passed} passed of {n} jobs in {job_s:.4g} s of job time",
        "job_p50_ms": f"a run of {mid_copy}",
        "job_tail_ms": f"p{p:g}, {n - rank(p, n)} of {n} samples beyond; a run of {top_copy}",
    }
    return values, notes


def line(name: str, value: float, note: str = "") -> str:
    """One human-readable metric line: name, value, unit, direction."""
    unit, better = END_TO_END.get(name) or PER_LAYER[name]
    extra = f"  [{note}]" if note else ""
    return f"metric {name} {value:.6g} {unit} ({better} is better){extra}"


def result(correct: bool, attempted: int, failed: int, values: dict, table: dict) -> dict:
    """The final JSON line; `values` must hold exactly the names in `table`."""
    if set(values) != set(table):
        raise ValueError(f"metric set mismatch: {sorted(set(values) ^ set(table))}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": table[k][0]} for k in table},
    }
