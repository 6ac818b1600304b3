"""Acceptance suite: every criterion checked at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.
"""

import math
import time

import numpy as np

from consensuslab import (
    ModelParams,
    SimConfig,
    analyze_structure,
    check_mla_convergence,
    eigendecompose_symmetric,
    fit_rate,
    improving_gamma_exists,
    make_ring,
    optimal_beta,
    optimal_gamma,
    random_symmetric_stochastic,
    rho_ess,
    rho_ess_accelerated,
    rho_ess_mla,
    run_batch,
    simulate_trajectory,
)
from scalar_reference import (
    augmented_matrix,
    map_eigenvalue,
    roots_in_unit_disk_via_halfplane,
    verify_augmented_eigenpair,
)


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_periodic_network_convergence():
    A = make_ring(4, 0.0)
    t0 = time.perf_counter()
    widths = {}
    for label, model in (
        ("mla", ModelParams.mla(0.5)),
        ("degroot", ModelParams.degroot()),
        ("accelerated", ModelParams.accelerated(1.2)),
    ):
        ts = run_batch(A, SimConfig(model=model, steps=100, runs=200, seed=7))
        widths[label] = (
            ts.env_max[0] - ts.env_min[0],
            ts.env_max[-1] - ts.env_min[-1],
        )
    elapsed = time.perf_counter() - t0
    ok = (
        widths["mla"][1] <= 1e-10
        and widths["degroot"][1] >= 0.1 * widths["degroot"][0]
        and widths["accelerated"][1] >= 0.1 * widths["accelerated"][0]
        and elapsed < 5.0
    )
    report(
        1,
        "pure 4-ring: MLA collapses, DeGroot and accelerated persist",
        ok,
        f"mla final {widths['mla'][1]:.2e}, degroot ratio "
        f"{widths['degroot'][1] / widths['degroot'][0]:.2f}, "
        f"accelerated ratio "
        f"{widths['accelerated'][1] / widths['accelerated'][0]:.2f}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_2_optimal_parameter_numbers():
    spec = eigendecompose_symmetric(make_ring(4, 0.1))
    rho = rho_ess(spec)
    gs = optimal_gamma(spec)
    bs = optimal_beta(spec)
    exhaustive = rho_ess_mla(spec, gs.gamma)
    numeric_min = rho_ess_accelerated(spec, bs.beta)
    ok = (
        abs(rho - 0.8) <= 1e-10
        and abs(gs.gamma - 0.8541019662) <= 1e-9
        and abs(gs.rate - 0.3416407865) <= 1e-9
        and abs(gs.rate - exhaustive) <= 1e-9
        and abs(numeric_min - 0.5) <= 1e-6
    )
    report(
        2,
        "self-loop ring optimum: rho, gamma*, rate, beta minimum",
        ok,
        f"rho {rho:.12f}, gamma* {gs.gamma:.12f}, rate {gs.rate:.12f}, "
        f"exhaustive {exhaustive:.12f}, beta min {numeric_min:.8f}",
    )


def test_criterion_3_rate_chain_inequality():
    worst = np.inf
    ok = True
    for rho in np.arange(0.01, 0.995, 0.01):
        mla = math.sqrt(1.0 + rho) - 1.0
        acc = rho / (1.0 + math.sqrt(1.0 - rho * rho))
        worst = min(worst, acc - mla, rho - acc)
        ok = ok and (acc - mla > 1e-12) and (rho - acc > 1e-12)
    report(
        3,
        "rate chain mla < accelerated < degroot on the rho grid",
        ok,
        f"smallest margin {worst:.3e}",
    )


def test_criterion_4_augmented_eigenpair_residuals(corpus100):
    rng = np.random.Generator(np.random.Philox(key=4))
    worst = 0.0
    pairs = 0
    for A, spec in corpus100:
        for g in rng.uniform(-0.5, 2.5, 20):
            for i in range(A.n):
                lam = float(spec.eigenvalues[i])
                v = spec.eigenvectors[:, i]
                mapped = map_eigenvalue(lam, float(g))
                for lam_hat in (mapped.lambda_plus, mapped.lambda_minus):
                    worst = max(
                        worst,
                        verify_augmented_eigenpair(A, float(g), lam, lam_hat, v),
                    )
                    pairs += 1
    ok = worst <= 1e-9
    report(
        4,
        "all mapped eigenpairs verify on the explicit block matrix",
        ok,
        f"{pairs} pairs, worst residual {worst:.3e}",
    )


def test_criterion_5_convergence_biconditional(corpus100):
    rng = np.random.Generator(np.random.Philox(key=5))
    checked = 0
    mismatches = 0
    for A, spec in corpus100:
        lam_n = float(spec.eigenvalues[-1])
        boundary = (lam_n - 1.0) / (2.0 * lam_n) if lam_n != 0.0 else np.inf
        for g in rng.uniform(-0.5, 2.5, 20):
            g = float(g)
            if min(abs(g), abs(g - 2.0), abs(g - boundary)) <= 1e-9:
                continue
            verdict = check_mla_convergence(spec, g)
            brute = verdict.limiting_eigenvalue_modulus < 1.0
            ev = np.linalg.eigvals(augmented_matrix(A, g))
            rest = np.delete(ev, np.argmin(np.abs(ev - 1.0)))
            oracle = bool(np.max(np.abs(rest)) < 1.0)
            if verdict.converges != brute or verdict.converges != oracle:
                mismatches += 1
            checked += 1
    ok = checked >= 500 and mismatches == 0
    report(
        5,
        "analytic convergence criteria match mapped moduli and eigensolver",
        ok,
        f"{checked} samples, {mismatches} mismatches",
    )


def test_criterion_6_consensus_value():
    rng = np.random.Generator(np.random.Philox(key=6))
    done = 0
    worst = 0.0
    seed = 0
    while done < 50:
        A = random_symmetric_stochastic(3 + seed % 6, 3000 + seed)
        spec = eigendecompose_symmetric(A)
        seed += 1
        gamma = float(rng.uniform(0.0, 2.0))
        if not check_mla_convergence(spec, gamma).converges:
            continue
        rate = rho_ess_mla(spec, gamma)
        if rate > 0.97:
            continue
        steps = math.ceil(10.0 * math.log(1e-10) / math.log(rate))
        x0 = rng.uniform(-1.0, 1.0, A.n)
        traj = simulate_trajectory(A, ModelParams.mla(gamma), x0, steps)
        worst = max(worst, float(np.max(np.abs(traj[-1] - x0.mean()))))
        done += 1
    ok = worst <= 1e-8
    report(
        6,
        "simulated steady state equals the initial mean",
        ok,
        f"50 runs, worst deviation {worst:.3e}",
    )


def test_criterion_7_empirical_rates():
    A = make_ring(4, 0.1)
    spec = eigendecompose_symmetric(A)
    gs = optimal_gamma(spec)
    x0 = np.random.Generator(np.random.Philox(key=12345)).uniform(0.0, 1.0, 4)
    fit_mla = fit_rate(A, ModelParams.mla(gs.gamma), x0, 180)
    fit_dg = fit_rate(A, ModelParams.degroot(), x0, 100)
    rel_mla = abs(fit_mla.fitted_rate - 0.34164) / 0.34164
    rel_dg = abs(fit_dg.fitted_rate - 0.8) / 0.8
    ok = rel_mla <= 0.05 and rel_dg <= 0.05
    report(
        7,
        "fitted decay rates match theory within 5%",
        ok,
        f"mla {fit_mla.fitted_rate:.5f} ({rel_mla * 100:.2f}%), "
        f"degroot {fit_dg.fitted_rate:.5f} ({rel_dg * 100:.2f}%)",
    )


def test_criterion_8_halfplane_oracle_agreement():
    rng = np.random.Generator(np.random.Philox(key=8))
    checked = 0
    mismatches = 0
    while checked < 500:
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(a) > 3.0 or abs(b) > 3.0:
            continue
        sq = np.sqrt(complex(a * a - 4.0 * b))
        z1, z2 = (-a + sq) / 2.0, (-a - sq) / 2.0
        if abs(abs(z1) - 1.0) <= 1e-10 or abs(abs(z2) - 1.0) <= 1e-10:
            continue
        direct = abs(z1) < 1.0 and abs(z2) < 1.0
        if roots_in_unit_disk_via_halfplane(a, b) != direct:
            mismatches += 1
        checked += 1
    ok = mismatches == 0
    report(
        8,
        "half-plane transform agrees with direct root moduli",
        ok,
        f"{checked} quadratics, {mismatches} mismatches",
    )


def test_criterion_9_improving_memory_weight_exists():
    found = 0
    tried = 0
    seed = 0
    failures = []
    while tried < 50:
        A = random_symmetric_stochastic(3 + seed % 6, 7000 + seed)
        seed += 1
        if not analyze_structure(A).primitive:
            continue
        spec = eigendecompose_symmetric(A)
        lam_2 = float(spec.eigenvalues[1])
        lam_n = float(spec.eigenvalues[-1])
        if abs(lam_2 + lam_n) <= 1e-3:
            continue
        tried += 1
        got = improving_gamma_exists(spec)
        if got is not None and got[1] < rho_ess(spec) - 1e-12:
            found += 1
        else:
            failures.append(seed - 1)
    ok = found == 50
    report(
        9,
        "a rate-improving memory weight is found on primitive networks",
        ok,
        f"{found}/50 found" + (f", failing seeds {failures}" if failures else ""),
    )
