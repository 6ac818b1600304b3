"""The paper's claims checked on networks of n = 32, 128 and 256 agents.

The same properties the acceptance suite checks on n <= 8, at their
stated tolerances: eigensolver certificates, stacked-eigenpair residuals,
the convergence biconditional, the optima, the rate chain and the
consensus value.
"""

import math

import numpy as np
import pytest

from consensuslab import (
    ModelParams,
    check_mla_convergence,
    consensus_value,
    optimal_beta,
    optimal_gamma,
    rho_ess,
    rho_ess_accelerated,
    rho_ess_mla,
    simulate_trajectory,
)
from consensuslab.spectral import certificate_bound
from scalar_reference import (
    augmented_matrix,
    map_eigenvalue,
    verify_augmented_eigenpair,
)


def test_corpus_covers_the_large_sizes(corpus_large):
    assert sorted({A.n for A, _ in corpus_large}) == [32, 128, 256]


def test_certificates_within_bound(corpus_large):
    for A, spec in corpus_large:
        assert spec.residual <= certificate_bound(A.n)
        assert spec.orth_error <= certificate_bound(A.n)


def test_mapped_eigenpairs_verify(corpus_large):
    rng = np.random.Generator(np.random.Philox(key=41))
    for A, spec in corpus_large:
        # both extremes plus a seeded sample of the interior eigenpairs
        idx = [0, A.n - 1, *rng.choice(np.arange(1, A.n - 1), 6, replace=False)]
        for g in rng.uniform(-0.5, 2.5, 3):
            for i in idx:
                lam = float(spec.eigenvalues[i])
                v = spec.eigenvectors[:, i]
                pair = map_eigenvalue(lam, float(g))
                for lam_hat in (pair.lambda_plus, pair.lambda_minus):
                    r = verify_augmented_eigenpair(A, float(g), lam, lam_hat, v)
                    assert r <= 1e-9


def test_convergence_biconditional(corpus_large):
    rng = np.random.Generator(np.random.Philox(key=42))
    verdicts = set()
    for A, spec in corpus_large:
        lam_n = float(spec.eigenvalues[-1])
        boundary = (lam_n - 1.0) / (2.0 * lam_n) if lam_n != 0.0 else np.inf
        gammas = [g for g in rng.uniform(-0.5, 2.5, 40)
                  if min(abs(g), abs(g - 2.0), abs(g - boundary)) > 1e-9]
        for k, g in enumerate(gammas):
            verdict = check_mla_convergence(spec, float(g))
            assert verdict.converges == (verdict.limiting_eigenvalue_modulus < 1.0)
            verdicts.add(verdict.converges)
            if k < 2:  # a reference eigensolver on the 2n-by-2n block
                ev = np.linalg.eigvals(augmented_matrix(A, float(g)))
                rest = np.delete(ev, np.argmin(np.abs(ev - 1.0)))
                assert verdict.converges == bool(np.max(np.abs(rest)) < 1.0)
    assert verdicts == {True, False}


def test_optimal_gamma(corpus_large):
    met = 0
    for A, spec in corpus_large:
        gs = optimal_gamma(spec)
        if not gs.hypotheses_met:
            assert gs.rate == rho_ess_mla(spec, gs.gamma)
            continue
        met += 1
        # the smallest eigenvalue carries the radius and gets a double root
        lam_n = float(spec.eigenvalues[-1])
        D = gs.gamma**2 * lam_n**2 - 4.0 * (gs.gamma - 1.0) * lam_n
        assert abs(D) <= 1e-10
        assert gs.rate == pytest.approx(rho_ess_mla(spec, gs.gamma), abs=1e-9)
        grid = []
        for g in np.arange(0.01, 1.0, 1e-3):
            v = check_mla_convergence(spec, float(g))
            grid.append(v.limiting_eigenvalue_modulus if v.converges else np.inf)
        assert min(grid) >= gs.rate - 1e-9
    assert met >= 3


def test_optimal_beta_matches_closed_form(corpus_large):
    for A, spec in corpus_large:
        bs = optimal_beta(spec)
        achieved = rho_ess_accelerated(spec, bs.beta)
        assert abs(achieved - bs.rate) <= 1e-6


def test_rate_chain(corpus_large):
    for A, spec in corpus_large:
        rho = rho_ess(spec)
        gs, bs = optimal_gamma(spec), optimal_beta(spec)
        assert bs.rate < rho
        if gs.hypotheses_met:
            assert gs.rate < bs.rate < rho


def test_consensus_value(corpus_large):
    rng = np.random.Generator(np.random.Philox(key=43))
    simulated = 0
    for A, spec in corpus_large:
        x0 = rng.uniform(-1.0, 1.0, A.n)
        assert consensus_value(A, spec, x0) == pytest.approx(x0.mean(), abs=1e-12)
        gamma = 0.9
        rate = rho_ess_mla(spec, gamma)
        if rate > 0.97:
            continue
        steps = math.ceil(10.0 * math.log(1e-10) / math.log(rate))
        traj = simulate_trajectory(A, ModelParams.mla(gamma), x0, steps)
        assert np.max(np.abs(traj[-1] - x0.mean())) <= 1e-8
        simulated += 1
    assert simulated >= 6
