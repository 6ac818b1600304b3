"""The paper's claims checked on networks of n = 32, 128 and 256 agents,
and in closed form on networks of 10^3 to 10^6.

The same properties the acceptance suite checks on n <= 8, at their
stated tolerances: eigensolver certificates, stacked-eigenpair residuals,
the convergence biconditional, the optima, the rate chain and the
consensus value. The closed-form families (rings, the complete graph,
K_{m,m} with self loops and tori) need no solve: their spectra are built
by hand from the formulas, which are checked against solved spectra at
n = 256.
"""

import math
import tracemalloc

import numpy as np
import pytest

from consensuslab import (
    BadSpectrum,
    DominantNotSimple,
    ModelParams,
    check_mla_convergence,
    consensus_value,
    eigendecompose_symmetric,
    make_ring,
    optimal_beta,
    optimal_gamma,
    rho_ess,
    rho_ess_accelerated,
    rho_ess_mla,
    Spectrum,
    simulate_trajectory,
    validate,
)
from consensuslab.spectral import _contract_bound, certificate_bound
from conftest import bipartite_with_loops
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


def ring_spectrum(n, s=0.0):
    """Eigenvalues s + (1 - s) cos(2 pi k / n) of make_ring(n, s), descending:
    cos falls on [0, pi], and k and n - k give the same one."""
    return s + (1.0 - s) * np.cos(2.0 * np.pi * ((np.arange(n) + 1) // 2) / n)


def complete_spectrum(n):
    """J / n: 1, then n - 1 zeros."""
    w = np.zeros(n)
    w[0] = 1.0
    return w


def bipartite_spectrum(n, s):
    """K_{n/2,n/2} with self weight s: 1, s (n - 2 times), 2 s - 1."""
    w = np.full(n, s)
    w[0], w[-1] = 1.0, 2.0 * s - 1.0
    return w


def torus_spectrum(n, s):
    """The m-by-m torus, (R kron I + I kron R) / 2 for R = make_ring(m, s)
    and n = m^2: every (lam_i + lam_j) / 2."""
    r = ring_spectrum(math.isqrt(n), s)
    return np.sort(np.add.outer(r, r).ravel())[::-1] / 2.0


def torus(m, s):
    R = make_ring(m, s).weights
    return validate((np.kron(R, np.eye(m)) + np.kron(np.eye(m), R)) / 2.0)


@pytest.mark.parametrize(
    "A, w",
    [
        (make_ring(255), ring_spectrum(255)),
        (make_ring(256, 0.1), ring_spectrum(256, 0.1)),
        (validate(np.full((256, 256), 1.0 / 256)), complete_spectrum(256)),
        (bipartite_with_loops(256, 0.1, seed=1), bipartite_spectrum(256, 0.1)),
        (torus(16, 0.1), torus_spectrum(256, 0.1)),
    ],
    ids=["ring", "ring_loops", "complete", "bipartite_loops", "torus_loops"],
)
def test_closed_forms_match_solved_spectra(A, w):
    got = eigendecompose_symmetric(A).eigenvalues
    assert np.max(np.abs(got - w)) <= certificate_bound(A.n)


BIG = (10**3, 10**4, 10**5, 10**6)
# (id, eigenvalue builder, lambda_2, lambda_n) wherever the family's gap
# clears _contract_bound(n); rings from n = 30,001 read as reducible
CLOSED_FORMS = [
    *((f"ring-{n}", lambda n=n: ring_spectrum(n), math.cos(2.0 * math.pi / n),
       -math.cos(math.pi / n)) for n in (1001, 10_001)),
    *((f"ring_loops-{n}", lambda n=n: ring_spectrum(n, 0.1),
       0.1 + 0.9 * math.cos(2.0 * math.pi / n), -0.8) for n in (1000, 10_000)),
    *((f"complete-{n}", lambda n=n: complete_spectrum(n), 0.0, 0.0) for n in BIG),
    *((f"bipartite_loops-{n}", lambda n=n: bipartite_spectrum(n, 0.1), 0.1, -0.8)
      for n in BIG),
    *((f"torus_loops-{m * m}", lambda m=m: torus_spectrum(m * m, 0.1),
       (1.0 + 0.1 + 0.9 * math.cos(2.0 * math.pi / m)) / 2.0, -0.8)
      for m in (32, 100, 316, 1000)),
]


@pytest.fixture(scope="module", params=CLOSED_FORMS, ids=[c[0] for c in CLOSED_FORMS])
def closed_form(request):
    """(spectrum, lambda_2, lambda_n), the spectrum built once per family."""
    _, build, lam_2, lam_n = request.param
    return Spectrum(build()), lam_2, lam_n


# seeded draws in (-0.5, 2.5); none is exactly 1, where the complete
# graph's n - 1 zeros all tie and a verdict reads every one of them
GAMMAS = np.random.Generator(np.random.Philox(key=44)).uniform(-0.5, 2.5, 199)


def test_closed_form_convergence_biconditional(closed_form):
    spec, lam_2, lam_n = closed_form
    assert spec.eigenvalues[1] == pytest.approx(lam_2, abs=1e-15)
    assert spec.eigenvalues[-1] == pytest.approx(lam_n, abs=1e-15)
    upper = min(2.0, (lam_n - 1.0) / (2.0 * lam_n)) if lam_n < 0.0 else 2.0
    verdicts = set()
    for g in GAMMAS:
        if min(abs(g), abs(g - upper)) <= 1e-6:
            continue
        verdict = check_mla_convergence(spec, float(g))
        assert verdict.converges == (0.0 < g < upper), g
        assert verdict.converges == (verdict.limiting_eigenvalue_modulus < 1.0), g
        verdicts.add(verdict.converges)
    assert verdicts == {True, False}


def test_closed_form_optima(closed_form):
    spec, lam_2, lam_n = closed_form
    rho = max(abs(lam_2), abs(lam_n))
    if rho <= certificate_bound(spec.eigenvalues.size):
        # the complete graph settles in one step: no optimum to find
        with pytest.raises(BadSpectrum):
            optimal_gamma(spec)
        with pytest.raises(BadSpectrum):
            optimal_beta(spec)
        return
    gs, bs = optimal_gamma(spec), optimal_beta(spec)
    root = math.sqrt(1.0 - rho * rho)
    assert gs.gamma == pytest.approx(2.0 / rho * (math.sqrt(1.0 + rho) - 1.0), rel=1e-12)
    assert bs.beta == pytest.approx(2.0 / (1.0 + root), rel=1e-12)
    assert bs.rate == pytest.approx(rho / (1.0 + root), rel=1e-9)
    if spec.eigenvalues.size <= 10**4:
        # above n = 10^4 this walk would read every copy of K_{m,m}'s s
        assert rho_ess_accelerated(spec, bs.beta) == pytest.approx(bs.rate, abs=1e-6)
    # the hypotheses of the closed-form gamma* hold on K_{m,m} alone
    assert gs.hypotheses_met == (lam_2 <= abs(lam_n) / 3.0 and abs(lam_n) == rho)
    if gs.hypotheses_met:
        assert gs.rate == pytest.approx(math.sqrt(1.0 + rho) - 1.0, rel=1e-12)
        assert gs.rate == pytest.approx(rho_ess_mla(spec, gs.gamma), rel=1e-7)
        assert gs.rate < bs.rate < rho
    else:
        assert gs.rate == rho_ess_mla(spec, gs.gamma)


@pytest.mark.parametrize("s", [0.0, 0.1, 0.5])
def test_ring_is_reducible_once_its_gap_is_within_the_bound(s):
    # a hand-built spectrum meets the same bound as a solved one, input
    # error included, so the outcome follows from 1 - lambda_2 <= bound
    reducible = {}
    for n in (20_001, 25_000, 30_001, 10**5, 10**6):
        gap = 2.0 * (1.0 - s) * math.sin(math.pi / n) ** 2
        bound = _contract_bound(n)
        assert abs(gap - bound) > 0.01 * bound
        spec = Spectrum(ring_spectrum(n, s))
        reducible[n] = gap <= bound
        if reducible[n]:
            with pytest.raises(DominantNotSimple):
                rho_ess(spec)
        else:
            assert rho_ess(spec) <= 1.0
    assert reducible[20_001] is False and reducible[10**6] is True
    if s == 0.1:  # gap 2.84e-8 against 2.51e-8, then 1.97e-8 against 3.01e-8
        assert not reducible[25_000] and reducible[30_001]


def test_verdicts_read_a_few_eigenvalues_past_the_ends(reads):
    # a long ring's moduli next to its ends differ by less than the walk's
    # 1e-6 margin, so a verdict reads a few more than lambda_2 and lambda_n
    spec = Spectrum(ring_spectrum(10**4, 0.1))
    counts = []
    for g in GAMMAS:
        reads.clear()
        check_mla_convergence(spec, float(g))
        counts.append(reads["walk"])
    assert 4 < max(counts) <= 8
    for beta in np.linspace(0.5, 1.95, 30):
        reads.clear()
        rho_ess_accelerated(spec, float(beta))
        assert reads["walk"] <= 10
    spec = Spectrum(ring_spectrum(1001))
    for g in GAMMAS:
        reads.clear()
        check_mla_convergence(spec, float(g))
        assert reads["walk"] <= 4


def test_tied_ends_are_read_in_full(reads):
    # every copy of a repeated end eigenvalue ties: the complete graph's
    # zeros at gamma = 1, and K_{m,m}'s s in the accelerated flat region
    n = 1000
    check_mla_convergence(Spectrum(complete_spectrum(n)), 1.0)
    assert reads["walk"] == n - 1
    reads.clear()
    rho_ess_accelerated(Spectrum(bipartite_spectrum(n, 0.1)), 1.5)
    assert reads["walk"] == n - 1


def test_a_million_eigenvalues_need_no_vectors():
    w = bipartite_spectrum(10**6, 0.1)
    tracemalloc.start()
    try:
        spec = Spectrum(w)
        check_mla_convergence(spec, 0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.eigenvectors is None
    # 8 n bytes of eigenvalues and 32 n of Python floats; vectors would be 8 n^2
    assert peak < 64 << 20
