"""Steadiness check: run one workload on several seeds and report spreads.

    python3 bench/steady.py --workload validate --seeds 1-10 [--against FILE]

Runs `bench/run.py --trace 0` once per seed with BENCHMARK.json's
run_seconds, one run at a time, and prints for each end-to-end metric
the median of the runs and the distance between the first and third
quartiles as a share of the median (`statistics.quantiles(values, n=4)`),
next to a third of the metric's bound. With --against, the report of an
earlier set of the same workload, it also prints how far each median
moved in the worse direction, next to the bound. Exits 1 when a spread
reaches a third of its bound or a median moved by more than its bound.
The report goes to .bench_out/steady-<workload>-seeds<a>-<b>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import env


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=env.WORKLOADS)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--against", help="report of an earlier set to compare medians with")
    args = p.parse_args(argv)
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    table = {m["name"]: m for m in bench["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)

    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(env.BENCH_DIR, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True, check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
              flush=True)

    ok = True
    report = {}
    for name, m in table.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        report[name] = {"median": med, "spread": spread, "values": vals}
        steady = spread < m["bound"] / 3
        verdict = f"bound {m['bound']:g}: {'ok' if steady else 'TOO WIDE'}"
        if earlier is not None:
            before = earlier[name]["median"]
            worse = (med - before if m["better"] == "lower" else before - med) / before
            held = worse <= m["bound"]
            verdict += f"; median {worse:+.2%} worse than before: {'ok' if held else 'MOVED'}"
            steady &= held
        ok &= steady
        print(f"{name:12s} median {med:<12.6g} spread {spread:8.2%}  {verdict}", flush=True)
    os.makedirs(env.OUT_DIR, exist_ok=True)
    name = f"steady-{args.workload}-seeds{args.seeds}.json"
    with open(os.path.join(env.OUT_DIR, name), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
