"""Tests of the benchmark itself: metric names, oracles, tracer, seeding.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import env

env.require_source()

import consensuslab as cl  # noqa: E402
from consensuslab import cli, spectral  # noqa: E402

import metrics  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(env.BENCH_DIR, "run.py")


def benchmark_json() -> dict:
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- metric names


def test_benchmark_json_names_what_the_bench_emits():
    b = benchmark_json()
    assert {w["name"] for w in b["workloads"]} <= set(env.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in b["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in b["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layer == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    assert all(0 < v <= 0.25 for v in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _emitted(stdout: str) -> tuple[dict, dict]:
    """(name -> (unit, better)) from the metric lines, and the JSON result."""
    lines = stdout.strip().splitlines()
    pat = re.compile(r"metric (\S+) \S+ (\S+) \((lower|higher) is better\)")
    shown = {m[1]: (m[2], m[3]) for m in map(pat.match, lines) if m}
    return shown, json.loads(lines[-1])


@pytest.mark.parametrize("trace, table", [(0, metrics.END_TO_END), (1, metrics.PER_LAYER)])
def test_run_emits_every_metric_with_unit_and_direction(trace, table):
    cmd = [sys.executable, RUN, "--workload", "validate", "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True, check=True)
    shown, res = _emitted(out.stdout)
    assert shown == table
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    units = {k: v["unit"] for k, v in res["metrics"].items()}
    assert units == {k: unit for k, (unit, _) in table.items()}


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(env.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "validate", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_job_metrics_read_percentiles_of_every_sample():
    # 300 samples: p95 is the 285th, leaving 15 beyond; p50 is the 150th
    lat = {
        "fast #0": list(np.arange(1.0, 101.0)),  # 1..100
        "fast #1": list(np.arange(101.0, 201.0)),  # 101..200
        "slow #2": list(np.arange(1001.0, 1101.0)),  # 1001..1100
    }
    values, notes = metrics.job_metrics(lat, 290, 29.0)
    assert values["job_p50_ms"] == 150.0
    assert values["job_tail_ms"] == 1085.0
    assert notes["job_tail_ms"] == "p95, 15 of 300 samples beyond; a run of slow #2"
    assert values["jobs_per_s"] == 10.0
    assert metrics.tail_percentile(200) == 95.0 and metrics.tail_percentile(199) == 75.0
    assert metrics.tail_percentile(1000) == 99.0
    assert metrics.job_class("simulate mla n=8 2000x100 #12") == "simulate mla n=8 2000x100"


# ---------------------------------------------------------------- oracles


@pytest.fixture(scope="module")
def validate_wl(tmp_path_factory):
    return workloads.build("validate", 5, str(tmp_path_factory.mktemp("validate")))


def _job(wl, key):
    return next(j for j in wl.jobs if j.key == key)


def _rejects(check, *args):
    with pytest.raises(oracles.Reject):
        check(*args)


def test_validate_oracle_rejects_a_flipped_primitive_flag(validate_wl):
    for key, old, new in (
        ("validate odd-ring n=17", "primitive=true", "primitive=false"),
        ("validate even-ring n=16", "primitive=false", "primitive=true"),
        ("validate random n=32", "primitive=true", "primitive=false"),
    ):
        job = _job(validate_wl, key)
        res = job.run()
        assert job.check(res) is None
        assert old in res.out
        res.out = res.out.replace(old, new)
        _rejects(job.check, res)


def test_validate_oracle_rejects_a_wrong_witness(validate_wl):
    job = _job(validate_wl, "validate loop-ring n=32")
    res = job.run()
    assert "witness_k=16" in res.out
    res.out = res.out.replace("witness_k=16", "witness_k=15")
    _rejects(job.check, res)


def test_bench_structure_check_matches_closed_forms():
    for n in (5, 6, 9):
        W = cl.make_ring(n, 0.0).weights
        assert oracles.structure(W) == (True, n - 1 if n % 2 else None)
        assert oracles.structure(cl.make_ring(n, 0.1).weights) == (True, n // 2)
    two_blocks = np.kron(np.eye(2), np.full((2, 2), 0.5))
    assert oracles.structure(two_blocks) == (False, None)


def _analyze_job(tmp_path, family, n, gamma):
    b = workloads._Inputs(11, str(tmp_path))
    net = b.network(family, n)
    argv = ["analyze", "--porcelain", "--gamma", repr(gamma), "--input", net.path]
    return workloads.run_cli(argv), net


def test_analyze_oracle_rejects_nan_and_flipped_verdicts(tmp_path):
    res, net = _analyze_job(tmp_path, "loop-ring", 4, 0.7)
    assert oracles.check_analyze(res, net, 0.7) is None
    kv = oracles.porcelain(res.out)
    first = kv["spectrum"].split(",")[1]
    for old, new in (
        (f",{first},", ",nan,"),
        ("gamma_converges=true", "gamma_converges=false"),
        ("rate_chain_ok=true", "rate_chain_ok=false"),
        (f"gamma_star={kv['gamma_star']}", "gamma_star=0.5"),
    ):
        assert old in res.out
        bad = workloads.CliResult(res.rc, res.out.replace(old, new, 1), res.err)
        _rejects(oracles.check_analyze, bad, net, 0.7)


def test_analyze_oracle_wants_no_optima_on_a_periodic_ring(tmp_path):
    res, net = _analyze_job(tmp_path, "even-ring", 6, 0.4)
    oracles.check_analyze(res, net, 0.4)
    twin, _ = _analyze_job(tmp_path, "loop-ring", 6, 0.4)
    kv = oracles.porcelain(twin.out)
    faked = "\n".join(
        line if not line.startswith(("gamma_star=", "beta_star=")) else
        line.split("=")[0] + "=" + kv[line.split("=")[0]]
        for line in res.out.splitlines()
    )
    _rejects(oracles.check_analyze, workloads.CliResult(0, faked, ""), net, 0.4)


@pytest.fixture(scope="module")
def simulate_wl(tmp_path_factory):
    return workloads.build("simulate", 5, str(tmp_path_factory.mktemp("simulate")))


def _rewrite(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def test_simulate_oracle_rejects_a_dropped_row_and_a_nan(simulate_wl):
    job = _job(simulate_wl, "simulate mla n=4 2000x100")
    for edit in (
        lambda lines: lines[:50] + lines[51:],
        lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",nan"],
    ):
        res = job.run()
        assert job.check(res) is None
        out = res.out.splitlines()[0].split(" ", 1)[1]
        _rewrite(out, edit)
        _rejects(job.check, res)


def test_simulate_oracle_rejects_a_closed_envelope_on_a_periodic_ring(simulate_wl):
    job = _job(simulate_wl, "simulate degroot n=4 2000x100")
    res = job.run()
    job.check(res)
    out = res.out.splitlines()[0].split(" ", 1)[1]
    _rewrite(out, lambda lines: lines[:-1] + [f"{len(lines) - 2},-1e-20,1e-20"])
    _rejects(job.check, res)


def test_simulate_oracle_rejects_a_convergence_claim_on_a_periodic_ring(simulate_wl):
    # the program's verdict line, not only its envelope, must say DeGroot
    # and accelerated averaging do not settle on an even pure ring
    for key in ("simulate degroot n=4 2000x100", "simulate accelerated n=4 200x2000"):
        job = _job(simulate_wl, key)
        res = job.run()
        job.check(res)
        lines = res.out.splitlines()
        assert lines[3] == "model not convergent on this network; no rate fit"
        lines[3] = "fitted decay rate: 1 (theory 1, r^2 0, window 10..100)"
        _rejects(job.check, workloads.CliResult(res.rc, "\n".join(lines) + "\n", res.err))


def test_contour_oracle_rejects_a_dropped_row_and_a_wrong_cell(tmp_path):
    files = [str(tmp_path / "contour_grid.csv"), str(tmp_path / "contour_disc_zero.csv")]
    res = workloads.run_cli(["figure", "contour", "--out-dir", str(tmp_path)])
    cells = np.arange(0, oracles.CONTOUR_POINTS**2, 997)
    assert oracles.check_contour(res, files, cells) is None
    with open(files[0]) as fh:
        good = fh.read()
    lines = good.splitlines()
    row = 1 + int(cells[3])
    for bad in (
        lines[:row] + lines[row + 1:],
        lines[:row] + [lines[row].rsplit(",", 1)[0] + ",0.123"] + lines[row + 1:],
        lines[:row] + [lines[row].rsplit(",", 1)[0] + ",nan"] + lines[row + 1:],
    ):
        with open(files[0], "w") as fh:
            fh.write("\n".join(bad) + "\n")
        _rejects(oracles.check_contour, res, files, cells)


def test_sweep_oracle_rejects_a_flipped_verdict(tmp_path):
    b = workloads._Inputs(2, str(tmp_path))
    net = b.network("loop-ring", 10)
    gammas = b.gammas(float(net.spectrum[-1]), 21)
    result = workloads.sweep(cl.eigendecompose_symmetric(net.adjacency), gammas)
    assert oracles.check_sweep(result, net, gammas) is None
    v, rate = result["verdicts"][3]
    result["verdicts"][3] = (
        cl.ConvergenceVerdict(not v.converges, v.gamma_in_range,
                              v.criterion_ii_value, v.limiting_eigenvalue_modulus),
        rate,
    )
    _rejects(oracles.check_sweep, result, net, gammas)


def test_sweep_oracle_rejects_optima_on_a_periodic_ring(tmp_path):
    b = workloads._Inputs(2, str(tmp_path))
    ring, twin = b.network("even-ring", 10), b.network("loop-ring", 10)
    gammas = b.gammas(float(ring.spectrum[-1]), 11)
    result = workloads.sweep(cl.eigendecompose_symmetric(ring.adjacency), gammas)
    assert isinstance(result["optimal_gamma"], cl.BadSpectrum)
    oracles.check_sweep(result, ring, gammas)
    twin_spec = cl.eigendecompose_symmetric(twin.adjacency)
    result["optimal_gamma"] = cl.optimal_gamma(twin_spec)
    result["optimal_beta"] = cl.optimal_beta(twin_spec)
    _rejects(oracles.check_sweep, result, ring, gammas)


# ---------------------------------------------------------------- tracer


def test_tracer_wraps_every_binding_and_restores_them():
    original = spectral.eigendecompose_symmetric
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.eigendecompose_symmetric is not original
        assert cl.eigendecompose_symmetric is cli.eigendecompose_symmetric
        res = workloads.run_cli(["analyze", "--ring", "8", "--self-loop", "0.1", "--gamma", "0.5"])
    finally:
        tracer.uninstall()
    assert res.rc == 0
    assert cli.eigendecompose_symmetric is original and cl.eigendecompose_symmetric is original
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "net.analyze_structure", "spectral.eigendecompose_symmetric",
            "analysis.optimal_beta", "spectral.rho_ess"} <= names
    assert tracer.counts["analysis.map_eigenvalue"] > 0
    assert not any(s[0].endswith("map_eigenvalue") for s in tracer.spans)
    out = tracer.summary(1, sum(s[2] - s[1] for s in tracer.spans if s[3] == -1))
    assert out["spectral.eig_calls"] == 1 and out["spectral.eig_work_n3"] == 8**3
    assert sum(out[f"{L}.share"] for L in metrics.LAYERS) == pytest.approx(1.0)
    # rho_ess is reached from analysis through its own by-name binding
    by_index = tracer.spans
    parents = {by_index[s[3]][0].split(".")[0] for s in by_index if s[0] == "spectral.rho_ess"}
    assert "analysis" in parents


def test_tracer_counts_errors_once_at_the_layer_boundary():
    tracer = spans.Tracer()
    tracer.install()
    try:
        spec = cl.eigendecompose_symmetric(cl.make_ring(6))
        with pytest.raises(cl.BadSpectrum):
            cl.optimal_beta(spec)
    finally:
        tracer.uninstall()
    out = tracer.summary(1, 1.0)
    assert out["analysis.errors"] == 1 and out["spectral.errors"] == 0


# ---------------------------------------------------------------- seeding


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    built = {}
    for name, seed in (("a", 4), ("b", 4), ("c", 5)):
        d = tmp_path / name
        d.mkdir()
        wl = workloads.build("analyze", seed, str(d))
        files = {f.name: f.read_text() for f in sorted(d.iterdir())}
        built[name] = (files, sorted(j.argv[3] for j in wl.jobs))
    assert built["a"] == built["b"]
    assert built["a"][0] != built["c"][0]
    assert built["a"][1] != built["c"][1]
