import cmath
import collections
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import consensuslab
from consensuslab import (
    AssumptionViolated,
    BadParameter,
    BadSpectrum,
    ConvergenceVerdict,
    DegenerateSpectrum,
    DominantNotSimple,
    ModelParams,
    NotConvergent,
    Spectrum,
    check_mla_convergence,
    consensus_value,
    eigendecompose_symmetric,
    improving_gamma_exists,
    lambda_hat_max,
    analysis,
    make_ring,
    model_rate,
    optimal_beta,
    optimal_gamma,
    rho_ess,
    rho_ess_accelerated,
    rho_ess_mla,
    simulate_trajectory,
    summary,
    validate,
)
from consensuslab import spectral
from conftest import bipartite_with_loops, relabelled_rings
from scalar_reference import augmented_matrix, roots_in_unit_disk_via_halfplane

GAMMA_STAR = 0.8541019662496845  # 2.5 * (sqrt(1.8) - 1) for rho = 0.8
RATE_STAR = 0.3416407864998738  # sqrt(1.8) - 1


def synthetic_spectrum(eigenvalues):
    w = np.asarray(eigenvalues, dtype=float)
    return Spectrum(eigenvalues=w)


def mla_pair(lam, gamma):
    """Signed MLA roots (plus, minus) of one eigenvalue, as the library
    maps the dominant one."""
    return analysis._root_pair(*analysis._mla_coefficients(lam, gamma))


def accelerated_pair(lam, beta):
    """Signed accelerated roots (plus, minus) of one eigenvalue."""
    return analysis._root_pair(*analysis._accelerated_coefficients(lam, beta))


def direct_roots(a, b):
    """Quadratic formula for z^2 + a z + b with complex coefficients."""
    sq = cmath.sqrt(a * a - 4.0 * b)
    return (-a + sq) / 2.0, (-a - sq) / 2.0


class TestMapEigenvalue:
    def test_dominant_pair(self):
        plus, minus = mla_pair(1.0, 0.5)
        assert plus == 1.0
        assert minus == -0.5

    def test_zero_collapses(self):
        for g in (-0.5, 0.0, 1.0, 2.5):
            plus, minus = mla_pair(0.0, g)
            assert plus == 0.0 and minus == 0.0

    def test_complex_pair_example(self):
        plus, minus = mla_pair(-1.0, 0.5)
        want = complex(-0.25, math.sqrt(1.75) / 2.0)
        assert abs(plus - want) <= 1e-12
        assert abs(minus - want.conjugate()) <= 1e-12
        assert abs(abs(plus) - math.sqrt(0.5)) <= 1e-12

    def test_degroot_embedding_is_exact(self):
        for lam in np.linspace(-1.0, 1.0, 41):
            assert set(mla_pair(float(lam), 1.0)) == {complex(lam), 0j}

    @given(
        lam=st.floats(min_value=-1.0, max_value=1.0),
        gamma=st.floats(min_value=-0.5, max_value=2.5),
    )
    @settings(max_examples=300, deadline=None)
    def test_residual_and_vieta(self, lam, gamma):
        plus, minus = mla_pair(lam, gamma)
        for z in (plus, minus):
            assert abs(z * z - gamma * lam * z + (gamma - 1.0) * lam) <= 1e-12
        assert abs(plus * minus - (gamma - 1.0) * lam) <= 1e-12
        assert abs(plus + minus - gamma * lam) <= 1e-12

    def test_complex_region_modulus_is_root_product(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(200):
            lam = rng.uniform(-1.0, 1.0)
            g = rng.uniform(-0.5, 2.5)
            plus, _ = mla_pair(lam, g)
            if (g * lam) ** 2 - 4.0 * (g - 1.0) * lam < 0:
                assert abs(abs(plus) ** 2 - (g - 1.0) * lam) <= 1e-12

    def test_small_memory_perturbation_approximation(self):
        # gamma = 1 + delta with tiny delta: roots approach {lam + delta*(lam-1), delta}
        delta = 1e-5
        for lam in (-0.9, -0.3, 0.3, 0.9):
            roots = sorted(mla_pair(lam, 1.0 + delta), key=abs)
            assert abs(roots[0] - delta) <= 1e-8
            assert abs(roots[1] - (lam + delta * (lam - 1.0))) <= 1e-8


class TestMapEigenvalueAccelerated:
    def test_periodic_eigenvalue_pair(self):
        for beta in (-0.5, 0.3, 1.0, 1.2, 2.4):
            roots = accelerated_pair(-1.0, beta)
            assert any(abs(z + 1.0) <= 1e-12 for z in roots)
            assert any(abs(z - (1.0 - beta)) <= 1e-12 for z in roots)

    def test_beta_one_reduces_to_degroot(self):
        assert set(accelerated_pair(1.0, 1.0)) == {1 + 0j, 0j}
        for lam in (-0.7, 0.0, 0.4):
            assert set(accelerated_pair(lam, 1.0)) == {complex(lam), 0j}

    @given(
        lam=st.floats(min_value=-1.0, max_value=1.0),
        beta=st.floats(min_value=-0.5, max_value=2.5),
    )
    @settings(max_examples=300, deadline=None)
    def test_residual_and_vieta(self, lam, beta):
        plus, minus = accelerated_pair(lam, beta)
        for z in (plus, minus):
            assert abs(z * z - beta * lam * z + (beta - 1.0)) <= 1e-12
        assert abs(plus * minus - (beta - 1.0)) <= 1e-12
        assert abs(plus + minus - beta * lam) <= 1e-12


class TestConvergenceVerdict:
    def test_pure_ring_converges_below_one(self, ring4):
        spec = eigendecompose_symmetric(ring4)
        v = check_mla_convergence(spec, 0.5)
        assert v.converges and v.gamma_in_range
        assert v.criterion_ii_value == pytest.approx(1.0, abs=1e-10)
        assert v.limiting_eigenvalue_modulus == pytest.approx(
            math.sqrt(0.5), abs=1e-10
        )

    def test_pure_ring_boundary_at_one(self, ring4):
        spec = eigendecompose_symmetric(ring4)
        v = check_mla_convergence(spec, 1.0)
        assert not v.converges
        assert abs(v.criterion_ii_value) <= 1e-12

    def test_gamma_two_never_converges(self, ring4_loops_spectrum):
        v = check_mla_convergence(ring4_loops_spectrum, 2.0)
        assert not v.converges and not v.gamma_in_range

    def test_rejects_non_stochastic_spectrum(self):
        with pytest.raises(AssumptionViolated):
            check_mla_convergence(synthetic_spectrum([0.9, 0.1]), 0.5)

    def test_is_an_immutable_named_tuple(self):
        v = ConvergenceVerdict(
            converges=True,
            gamma_in_range=True,
            criterion_ii_value=0.5,
            limiting_eigenvalue_modulus=0.25,
        )
        assert v == ConvergenceVerdict(True, True, 0.5, 0.25)
        assert tuple(v) == (v.converges, v.gamma_in_range, v[2], v[3])
        assert v._fields == (
            "converges",
            "gamma_in_range",
            "criterion_ii_value",
            "limiting_eigenvalue_modulus",
        )
        with pytest.raises(AttributeError):
            v.converges = False

    def test_verdict_agrees_with_explicit_eigenvalues(self, corpus20):
        rng = np.random.Generator(np.random.Philox(key=21))
        checked = 0
        for A, spec in corpus20:
            lam_n = float(spec.eigenvalues[-1])
            for g in rng.uniform(-0.5, 2.5, 30):
                boundary = (lam_n - 1.0) / (2.0 * lam_n)
                if min(abs(g), abs(g - 2.0), abs(g - boundary)) < 1e-9:
                    continue
                v = check_mla_convergence(spec, g)
                assert v.converges == (v.limiting_eigenvalue_modulus < 1.0)
                if v.converges:
                    assert v.limiting_eigenvalue_modulus < 1.0 + 1e-10
                # independent oracle: numpy on the explicit block matrix
                ev = np.linalg.eigvals(augmented_matrix(A, g))
                rest = np.delete(ev, np.argmin(np.abs(ev - 1.0)))
                assert v.converges == (np.max(np.abs(rest)) < 1.0)
                checked += 1
        assert checked >= 500


class TestHalfplaneTransform:
    def test_origin_roots(self):
        assert roots_in_unit_disk_via_halfplane(0.0, 0.0) is True

    def test_on_circle_roots(self):
        assert roots_in_unit_disk_via_halfplane(0.0, 1.0) is False

    def test_root_at_one_degenerate(self):
        # z^2 - z = 0 has roots {0, 1}: the leading coefficient vanishes
        assert roots_in_unit_disk_via_halfplane(-1.0, 0.0) is False

    def test_matches_mapped_modulus_near_critical_point(self):
        lam, g = -0.8, 0.8541019662
        direct = max(map(abs, mla_pair(lam, g))) < 1.0
        assert roots_in_unit_disk_via_halfplane(-g * lam, (g - 1.0) * lam) == direct

    @given(
        ar=st.floats(-3, 3), ai=st.floats(-3, 3),
        br=st.floats(-3, 3), bi=st.floats(-3, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_direct_moduli(self, ar, ai, br, bi):
        a, b = complex(ar, ai), complex(br, bi)
        assume(abs(a) <= 3.0 and abs(b) <= 3.0)
        z1, z2 = direct_roots(a, b)
        assume(abs(abs(z1) - 1.0) > 1e-10 and abs(abs(z2) - 1.0) > 1e-10)
        want = abs(z1) < 1.0 and abs(z2) < 1.0
        assert roots_in_unit_disk_via_halfplane(a, b) == want


class TestConsensusValue:
    def test_single_impulse_gives_mean(self, ring4_loops, ring4_loops_spectrum):
        got = consensus_value(ring4_loops, ring4_loops_spectrum, [1.0, 0.0, 0.0, 0.0])
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_consensus_state_is_its_own_value(self, ring4_loops, ring4_loops_spectrum):
        got = consensus_value(ring4_loops, ring4_loops_spectrum, np.full(4, 2.5))
        assert got == pytest.approx(2.5, abs=1e-12)

    def test_matches_long_simulation(self, ring4_loops, ring4_loops_spectrum):
        x0 = np.array([2.0, 4.0, 6.0, 8.0])
        got = consensus_value(ring4_loops, ring4_loops_spectrum, x0)
        assert got == pytest.approx(5.0, abs=1e-10)
        traj = simulate_trajectory(ring4_loops, ModelParams.mla(0.5), x0, 200)
        assert np.max(np.abs(traj[-1] - got)) <= 1e-8

    def test_rejects_non_simple_dominant(self):
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        W[2, 3] = W[3, 2] = 1.0
        A = validate(W)
        with pytest.raises(AssumptionViolated):
            consensus_value(A, eigendecompose_symmetric(A), np.arange(4.0))


class TestRhoEssMla:
    def test_pure_ring_at_half(self, ring4):
        spec = eigendecompose_symmetric(ring4)
        assert rho_ess_mla(spec, 0.5) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_optimal_point_value(self, ring4_loops_spectrum):
        assert rho_ess_mla(ring4_loops_spectrum, GAMMA_STAR) == pytest.approx(
            RATE_STAR, abs=1e-9
        )

    def test_gamma_one_is_degroot_rate(self, corpus20):
        for _, spec in corpus20:
            if check_mla_convergence(spec, 1.0).converges:
                assert rho_ess_mla(spec, 1.0) == pytest.approx(
                    rho_ess(spec), abs=1e-12
                )

    def test_raises_when_not_convergent(self, ring4):
        spec = eigendecompose_symmetric(ring4)
        with pytest.raises(NotConvergent):
            rho_ess_mla(spec, 1.0)


class TestParameterGuards:
    """A gamma or beta that is not finite, or whose root coefficients
    overflow, raises BadParameter before numpy can warn or a wrong
    modulus come back."""

    BAD = (np.nan, np.inf, -np.inf, 1e200, -1e200, 1e308)

    @pytest.mark.parametrize("param", BAD)
    def test_spectrum_operations(self, ring4_loops_spectrum, param):
        for f in (check_mla_convergence, rho_ess_mla, rho_ess_accelerated):
            with pytest.raises(BadParameter):
                f(ring4_loops_spectrum, param)
        for model in (ModelParams.accelerated, ModelParams.mla):
            if math.isfinite(param):
                with pytest.raises(BadParameter):
                    model_rate(ring4_loops_spectrum, model(param))

    @pytest.mark.parametrize("param", BAD)
    def test_scalar_maps(self, param):
        with pytest.raises(BadParameter):
            lambda_hat_max(0.5, param)
        with pytest.raises(BadParameter):
            lambda_hat_max(0.5, np.array([0.5, param]))

    @pytest.mark.parametrize("lam", (np.nan, np.inf, -np.inf, 1e200))
    def test_non_finite_or_huge_eigenvalue(self, lam):
        with pytest.raises(BadParameter):
            lambda_hat_max(lam, 0.5)
        with pytest.raises(BadParameter):
            lambda_hat_max(np.array([0.0, lam]), 0.5)

    def test_overflow_is_found_at_the_largest_eigenvalue(self):
        # an eigenvalue below -1 is no stochastic spectrum's, so the largest
        # modulus a verdict reads is 1 + 1e-8, where the overflow check sits
        spec = synthetic_spectrum([1.0, 0.5, -1e200])
        with pytest.raises(AssumptionViolated, match=r"^smallest eigenvalue -1e\+200 "):
            check_mla_convergence(spec, 0.5)
        with pytest.raises(AssumptionViolated, match=r"^smallest eigenvalue -1e\+200 "):
            rho_ess_accelerated(spec, 0.5)

    @pytest.mark.parametrize(
        "param", [10**400, -(10**400), Fraction(10**400, 3)], ids=["1e400", "-1e400", "fraction"]
    )
    @pytest.mark.parametrize(
        "call",
        [
            check_mla_convergence,
            rho_ess_mla,
            rho_ess_accelerated,
            # model_rate's parameter comes in a ModelParams, which rejects it
            lambda spec, p: model_rate(spec, ModelParams.mla(p)),
            lambda spec, p: model_rate(spec, ModelParams.accelerated(p)),
            lambda spec, p: lambda_hat_max(0.5, p),
            lambda spec, p: lambda_hat_max(p, 0.5),
        ],
        ids=["check_mla_convergence", "rho_ess_mla", "rho_ess_accelerated",
             "model_rate-mla", "model_rate-accelerated", "lambda_hat_max-gamma",
             "lambda_hat_max-lam"],
    )
    def test_parameters_beyond_the_float_range(self, ring4_loops_spectrum, call, param):
        # a real number float() cannot hold raises no raw OverflowError
        with pytest.raises(BadParameter):
            call(ring4_loops_spectrum, param)

    def test_large_finite_parameters_still_map(self, ring4_loops_spectrum):
        # b*b stays finite up to |b| of about 1.34e154
        v = check_mla_convergence(ring4_loops_spectrum, 1e150)
        assert not v.converges
        assert 1e149 < v.limiting_eigenvalue_modulus < math.inf
        assert 1e149 < rho_ess_accelerated(ring4_loops_spectrum, 1e150) < math.inf
        assert 1e149 < lambda_hat_max(-1.0, 1e150) < math.inf


class TestSpectrumGuard:
    """Both models' radii reject the spectra the MLA verdict rejects."""

    @pytest.mark.parametrize("radius", [rho_ess_mla, rho_ess_accelerated])
    def test_identity_is_reducible(self, radius):
        identity = eigendecompose_symmetric(validate(np.eye(4)))
        with pytest.raises(
            DominantNotSimple,
            match=r"^network is reducible: second eigenvalue 1\.0 is within 4\.01421e-12 of 1$",
        ):
            radius(identity, 0.5)

    @pytest.mark.parametrize("radius", [rho_ess_mla, rho_ess_accelerated])
    def test_dominant_not_one(self, radius):
        with pytest.raises(AssumptionViolated, match=r"^dominant eigenvalue 0\.5 is not 1"):
            radius(synthetic_spectrum([0.5, 0.2, -0.1]), 0.5)

    def test_an_eigenvalue_below_minus_one_is_no_network_spectrum(self):
        # rho_ess read its radius 5 as 1.0, and the MLA rate came back 1.5811
        spec = synthetic_spectrum([1.0, 0.5, -5.0])
        calls = [
            lambda: rho_ess(spec),
            lambda: check_mla_convergence(spec, 0.5),
            lambda: rho_ess_accelerated(spec, 1.2),
            lambda: model_rate(spec, ModelParams.mla(0.5)),
            lambda: summary(spec),
        ]
        for call in calls:
            with pytest.raises(
                AssumptionViolated, match=r"^smallest eigenvalue -5\.0 is below -1; "
            ):
                call()

    def test_every_radius_and_the_consensus_value_need_dominant_one(self):
        spec = synthetic_spectrum([0.5, 0.2, -0.3])
        calls = [
            lambda: rho_ess(spec),
            lambda: model_rate(spec, ModelParams.degroot()),
            lambda: model_rate(spec, ModelParams.accelerated(0.5)),
            lambda: consensus_value(make_ring(3), spec, np.arange(3.0)),
        ]
        for call in calls:
            with pytest.raises(AssumptionViolated, match=r"^dominant eigenvalue 0\.5 "):
                call()


def test_calls_derive_nothing_the_spectrum_settled(monkeypatch):
    # the rule and certificate_bound(n) are settled when the
    # spectrum is built: a verdict or rate evaluates no n-scaled bound and
    # never checks the rule again, at any name that binds them
    spec = eigendecompose_symmetric(make_ring(16, 0.1))
    A = make_ring(16, 0.1)
    counted = {
        spectral.certificate_bound: "bound",
        spectral._contract_bound: "bound",
        spectral._dominance_fault: "rule",
    }
    calls = collections.Counter()

    def counting(f):
        def wrapper(*args):
            calls[counted[f]] += 1
            return f(*args)
        return wrapper

    bindings = 0
    for name, module in list(sys.modules.items()):
        if name == "consensuslab" or name.startswith("consensuslab."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in counted):
                    monkeypatch.setattr(module, attr, counting(value))
                    bindings += 1
    assert bindings >= len(counted)
    for gamma in np.linspace(0.02, 1.98, 100):
        verdict = check_mla_convergence(spec, gamma)
        if verdict.converges:
            assert rho_ess_mla(spec, gamma) == verdict.limiting_eigenvalue_modulus
            model_rate(spec, ModelParams.mla(gamma))
        rho_ess_accelerated(spec, gamma)
        model_rate(spec, ModelParams.accelerated(gamma / 2.0))
        model_rate(spec, ModelParams.degroot())
        rho_ess(spec)
        optimal_gamma(spec)
        optimal_beta(spec)
        consensus_value(A, spec, np.zeros(16))
    assert calls == {}
    # the counters see construction, so zero above is not a missed binding
    Spectrum(spec.eigenvalues)
    assert calls["rule"] == 1 and calls["bound"] >= 1


class TestModelRate:
    def test_each_model_reads_its_own_radius(self, corpus20):
        for _, spec in corpus20:
            rho = rho_ess(spec)
            assert model_rate(spec, ModelParams.degroot()) == rho
            for beta in (0.5, 1.2):
                want = rho_ess_accelerated(spec, beta)
                assert model_rate(spec, ModelParams.accelerated(beta)) == want
            for gamma in (0.5, 1.0, 1.3):
                if check_mla_convergence(spec, gamma).converges:
                    want = rho_ess_mla(spec, gamma)
                    assert model_rate(spec, ModelParams.mla(gamma)) == want

    def test_pure_ring(self, ring4):
        spec = eigendecompose_symmetric(ring4)
        assert model_rate(spec, ModelParams.mla(0.5)) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )
        for model in (
            ModelParams.degroot(),
            ModelParams.accelerated(0.5),
            ModelParams.accelerated(1.2),
            ModelParams.mla(1.0),
        ):
            with pytest.raises(NotConvergent):
                model_rate(spec, model)

    @pytest.mark.parametrize("n", [8, 16])
    def test_accelerated_radius_is_never_below_one_on_a_periodic_ring(self, n):
        # lam = -1 maps to the root -1 for every beta, but the computed
        # lam_n may round its modulus below 1: 0.9999999999999998 on the
        # pure ring 8 at beta = 1.2 before rho_ess's rule applied here too
        for A in relabelled_rings(n, 60, seed=n):
            spec = eigendecompose_symmetric(A)
            for beta in (0.5, 1.2, 1.9):
                radius = rho_ess_accelerated(spec, beta)
                assert radius >= 1.0
                with pytest.raises(NotConvergent, match=re.escape(repr(radius))):
                    model_rate(spec, ModelParams.accelerated(beta))

    def test_parameters_outside_the_convergent_range(self, ring4_loops_spectrum):
        # beta = 2.5 puts the root product 1.5 outside the unit disk
        for model in (ModelParams.accelerated(2.5), ModelParams.mla(2.0)):
            with pytest.raises(NotConvergent):
                model_rate(ring4_loops_spectrum, model)


class TestLambdaHatMax:
    def test_dominant_value(self):
        assert lambda_hat_max(1.0, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert lambda_hat_max(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_real_root_region_value(self):
        # roots of z^2 + 0.72 z + 0.08: {-0.582711..., -0.137289...}
        got = lambda_hat_max(-0.8, 0.9)
        ref = max(abs(z) for z in np.roots([1.0, 0.72, 0.08]))
        assert got == pytest.approx(ref, abs=1e-12)
        assert got == pytest.approx(0.5827105745132011, abs=1e-12)

    def test_critically_damped_point(self):
        assert lambda_hat_max(-0.8, GAMMA_STAR) == pytest.approx(
            RATE_STAR, abs=1e-9
        )

    def test_monotone_ordering_at_optimum(self):
        # positive eigenvalues: larger lam gives a larger plus-branch root
        lams = np.linspace(0.05, 1.0, 20)
        plus = [mla_pair(float(l), GAMMA_STAR)[0].real for l in lams]
        assert np.all(np.diff(plus) > 0)
        # negative eigenvalues in [lam_n, 0]: modulus grows with |lam|
        lams = np.linspace(-0.8, 0.0, 20)
        mods = [lambda_hat_max(float(l), GAMMA_STAR) for l in lams]
        assert np.all(np.diff(mods) < 0)

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_empty_input_gives_an_empty_field(self, shape):
        empty = np.empty(shape)
        for lam, gamma in ((empty, 0.5), (0.5, empty)):
            got = lambda_hat_max(lam, gamma)
            assert isinstance(got, np.ndarray) and got.shape == shape
        for lam, gamma in ((empty, np.nan), (np.nan, empty)):
            with pytest.raises(BadParameter):
                lambda_hat_max(lam, gamma)

    def test_sequences_read_as_arrays(self):
        lams, gams = [-1.0, 0.1, 0.2], [0.5, 1.5]
        want = lambda_hat_max(np.array(lams)[:, None], np.array(gams))
        got = lambda_hat_max([[lam] for lam in lams], gams)
        assert got.tobytes() == want.tobytes()
        assert lambda_hat_max(0.1, [0.5]).tobytes() == lambda_hat_max(
            0.1, np.array([0.5])
        ).tobytes()
        want = lambda_hat_max(np.arange(3.0), 0.5)
        assert lambda_hat_max(range(3), 0.5).tobytes() == want.tobytes()
        got = lambda_hat_max(np.array(0.5), np.array(1.5))
        assert type(got) is float and got == lambda_hat_max(0.5, 1.5)

    @pytest.mark.parametrize("lam", [[2**65], [0.5, 2**65]])
    def test_an_array_entry_reads_as_the_scalar_does(self, lam):
        # an int past int64 makes an object array, which converts as validate's
        got = lambda_hat_max(lam, 0.5)
        assert [x.hex() for x in got.tolist()] == [
            lambda_hat_max(x, 0.5).hex() for x in lam
        ]

    @pytest.mark.parametrize(
        "args, message",
        [
            ((float("nan"), 0.5), "lam=nan must be a finite real number"),
            ((0.5, -math.inf), "gamma=-inf must be a finite real number"),
            (([0.5, float("nan")], 0.5), "lam has a non-finite entry"),
            ((0.5, np.array([[0.5], [np.inf]])), "gamma has a non-finite entry"),
            (([0.5, None], 0.5), "lam has a non-finite entry"),
            (([[0.1], [0.2, 0.3]], 0.5), "lam must be an array of real numbers: "),
        ],
        ids=["nan", "inf", "nan-entry", "inf-entry", "none-entry", "ragged"],
    )
    def test_each_input_is_named_in_the_message(self, args, message):
        with pytest.raises(BadParameter, match=f"^{re.escape(message)}"):
            lambda_hat_max(*args)

    @pytest.mark.parametrize(
        "args",
        [(["x"], 0.5), (0.5, "x"), (None, 0.5), (0.5, 1j), (Fraction(1, 2), 0.5),
         (np.array([0.5j], dtype=object), 0.5), ([[0.1], [0.2, 0.3]], 0.5)],
    )
    def test_input_that_is_not_real(self, args):
        with pytest.raises(BadParameter):
            lambda_hat_max(*args)

    @pytest.mark.parametrize("shapes", [((0,), (2,)), ((2,), (3,))])
    def test_shapes_that_do_not_broadcast(self, shapes):
        lam, gamma = (np.full(shape, 0.5) for shape in shapes)
        for args in ((lam, gamma), (gamma, lam)):
            with pytest.raises(BadParameter, match="do not broadcast"):
                lambda_hat_max(*args)


class TestOptimalGamma:
    def test_ring_with_loops(self, ring4_loops_spectrum):
        gs = optimal_gamma(ring4_loops_spectrum)
        assert gs.gamma == pytest.approx(GAMMA_STAR, abs=1e-9)
        assert gs.rate == pytest.approx(RATE_STAR, abs=1e-9)
        assert gs.hypotheses_met
        # the closed-form rate is what the radius read off the spectrum gives
        assert gs.rate == pytest.approx(
            rho_ess_mla(ring4_loops_spectrum, gs.gamma), abs=1e-9
        )

    def test_discriminant_vanishes_at_optimum(self, ring4_loops_spectrum):
        lam_n = float(ring4_loops_spectrum.eigenvalues[-1])
        gs = optimal_gamma(ring4_loops_spectrum)
        D = gs.gamma**2 * lam_n**2 - 4.0 * (gs.gamma - 1.0) * lam_n
        assert abs(D) <= 1e-10
        assert lam_n == pytest.approx(4.0 * (gs.gamma - 1.0) / gs.gamma**2, abs=1e-10)

    def test_grid_search_oracle(self, ring4_loops_spectrum):
        gammas = np.arange(0.01, 1.0, 1e-4)
        vals = []
        for g in gammas:
            v = check_mla_convergence(ring4_loops_spectrum, float(g))
            vals.append(v.limiting_eigenvalue_modulus if v.converges else np.inf)
        best = int(np.argmin(vals))
        gs = optimal_gamma(ring4_loops_spectrum)
        assert abs(gammas[best] - gs.gamma) <= 1e-4
        assert vals[best] >= gs.rate - 1e-9

    def test_hypotheses_not_met_recomputes_rate(self):
        # 6-ring with self loops: lam_2 = 0.55 > |lam_n|/3 = 0.8/3
        spec = eigendecompose_symmetric(make_ring(6, 0.1))
        gs = optimal_gamma(spec)
        assert not gs.hypotheses_met
        assert gs.rate == pytest.approx(rho_ess_mla(spec, gs.gamma), abs=1e-12)
        assert gs.rate > math.sqrt(1.0 + 0.8) - 1.0

    def test_rejects_bad_spectra(self, ring4):
        with pytest.raises(BadSpectrum):
            optimal_gamma(synthetic_spectrum([1.0, 0.5, 0.2]))  # lam_n >= 0
        with pytest.raises(BadSpectrum):
            optimal_gamma(eigendecompose_symmetric(ring4))  # rho = 1
        with pytest.raises(BadSpectrum):
            optimal_gamma(synthetic_spectrum([1.0]))

    @pytest.mark.parametrize("n, met", [(64, False), (512, True)])
    def test_hypotheses_tolerance_scales_with_n(self, n, met):
        # lambda_2 sits 1.5e-12 above |lambda_n| / 3: beyond 1e-12, but
        # within the solve error certificate_bound(512) = 1.8e-12
        lam_2 = 0.3 + 1.5e-12
        spec = synthetic_spectrum([1.0, *np.linspace(lam_2, -0.9, n - 1)])
        gs = optimal_gamma(spec)
        assert gs.hypotheses_met is met
        if met:
            assert gs.rate == math.sqrt(1.9) - 1.0


class TestOptimalBeta:
    def test_ring_with_loops(self, ring4_loops_spectrum):
        bs = optimal_beta(ring4_loops_spectrum)
        assert bs.rate == pytest.approx(0.5, abs=1e-12)
        assert bs.beta == pytest.approx(1.25, abs=1e-6)
        achieved = rho_ess_accelerated(ring4_loops_spectrum, bs.beta)
        assert achieved == pytest.approx(bs.rate, abs=1e-6)

    def test_numeric_minimum_matches_closed_form(self, corpus20):
        for _, spec in corpus20[:6]:
            lam_n = float(spec.eigenvalues[-1])
            rho = rho_ess(spec)
            if not (0.0 < rho < 1.0):
                continue
            bs = optimal_beta(spec)
            achieved = rho_ess_accelerated(spec, bs.beta)
            # the closed form assumes the extreme eigenvalue rules; always
            # true for the symmetric spectra here
            assert achieved <= bs.rate + 1e-6
            assert achieved >= bs.rate - 1e-6 or lam_n > 0

    def test_rate_vanishes_with_the_radius(self):
        bs = optimal_beta(synthetic_spectrum([1.0, 1e-6, -1e-6]))
        assert 0.0 < bs.rate < 1e-5

    def test_rejects_degenerate_radius(self, ring4):
        with pytest.raises(BadSpectrum):
            optimal_beta(eigendecompose_symmetric(ring4))

    def test_rate_ordering_chain_example(self, ring4_loops_spectrum):
        gs = optimal_gamma(ring4_loops_spectrum)
        bs = optimal_beta(ring4_loops_spectrum)
        rho = rho_ess(ring4_loops_spectrum)
        assert gs.rate < bs.rate < rho


# every eigenvalue but the dominant 1 is 0, so rho_ess is rounding noise
COMPLETE_GRAPHS = [validate(np.full((n, n), 1.0 / n)) for n in (3, 4, 8, 16, 64)]


@pytest.mark.parametrize(
    "A",
    COMPLETE_GRAPHS + [make_ring(3, 1.0 / 3.0)],
    ids=[f"K{A.n}" for A in COMPLETE_GRAPHS] + ["ring3-third"],
)
def test_no_optima_on_a_complete_graph(A):
    spec = eigendecompose_symmetric(A)
    assert rho_ess(spec) <= consensuslab.spectral.certificate_bound(A.n)
    with pytest.raises(BadSpectrum):
        optimal_gamma(spec)
    with pytest.raises(BadSpectrum):
        optimal_beta(spec)
    assert improving_gamma_exists(spec) is None


class TestRateChainInequality:
    def test_holds_on_fine_grid(self):
        for rho in np.arange(0.01, 0.995, 0.01):
            mla = math.sqrt(1.0 + rho) - 1.0
            acc = rho / (1.0 + math.sqrt(1.0 - rho * rho))
            assert acc - mla > 1e-12
            assert rho - acc > 1e-12


class TestImprovingGamma:
    def test_ring_with_loops_improves_with_negative_delta(self, ring4_loops_spectrum):
        got = improving_gamma_exists(ring4_loops_spectrum)
        assert got is not None
        delta, rate = got
        assert delta < 0
        assert rate < rho_ess(ring4_loops_spectrum) - 1e-12
        assert rate == pytest.approx(
            rho_ess_mla(ring4_loops_spectrum, 1.0 + delta), abs=1e-15
        )

    def test_complete_graph_already_optimal(self):
        A = validate(np.full((3, 3), 1.0 / 3.0))
        assert improving_gamma_exists(eigendecompose_symmetric(A)) is None

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrum):
            improving_gamma_exists(synthetic_spectrum([1.0, 0.6, -0.6]))

    def test_positive_essential_eigenvalue_uses_positive_delta(self):
        got = improving_gamma_exists(synthetic_spectrum([1.0, 0.7, -0.2]))
        assert got is not None
        assert got[0] > 0


def test_public_surface():
    # every exported name resolves; the per-eigenvalue mappers are gone, as
    # the library reads its rates through the modulus kernels alone
    assert all(hasattr(consensuslab, name) for name in consensuslab.__all__)
    for name in ("map_eigenvalue", "map_eigenvalue_accelerated", "MappedPair"):
        assert not hasattr(consensuslab, name)
        assert not hasattr(analysis, name)


def test_improvement_search_skips_a_gamma_that_fails_the_criterion():
    # at gamma = 1.1 the criterion 2*gamma*lam_n - lam_n + 1 is -0.08, so
    # the search goes on to gamma = 1.01
    spec = Spectrum(np.array([1.0, 0.95, -0.9]))
    assert not check_mla_convergence(spec, 1.1).converges
    assert improving_gamma_exists(spec) == (0.01, 0.9494946779900757)


SUMMARY_NETWORKS = {
    "ring4-loops": make_ring(4, 0.1),
    "ring9": make_ring(9),
    "ring8": make_ring(8),
    "lazy-ring64": make_ring(64, 0.5),
    "k3": make_ring(3, 1.0 / 3.0),
    "k44-loops": bipartite_with_loops(8, 0.05, seed=8),
}


class TestSummary:
    """`summary` holds what rho_ess, the optima and the verdict return, each
    under its porcelain key, and None where a value does not exist."""

    @pytest.mark.parametrize("gamma", [None, 0.5, 1.0, 1.9, -0.2])
    @pytest.mark.parametrize("name", SUMMARY_NETWORKS)
    def test_fields_are_the_library_answers(self, name, gamma):
        spec = eigendecompose_symmetric(SUMMARY_NETWORKS[name])
        s = summary(spec, gamma)
        rho = rho_ess(spec)
        assert (s.n, s.spectrum) == (spec.eigenvalues.size, tuple(spec.eigenvalues))
        assert s.rho_ess == s.degroot_rate == rho
        try:
            bs = optimal_beta(spec)
        except BadSpectrum as e:
            bs, reason = None, str(e)
            assert s.no_optima == reason
            assert s.beta_star is s.accelerated_rate is None
        else:
            assert s.no_optima is None
            assert (s.beta_star, s.accelerated_rate) == (bs.beta, bs.rate)
        try:
            gs = optimal_gamma(spec)
        except BadSpectrum:
            gs = None
            assert s.gamma_star is s.mla_rate is s.mla_hypotheses_met is None
        else:
            assert (s.gamma_star, s.mla_rate) == (gs.gamma, gs.rate)
            assert s.mla_hypotheses_met is gs.hypotheses_met
        chain = gs is not None and bs is not None and gs.rate < bs.rate < rho
        assert s.rate_chain_ok is chain
        if gamma is None:
            assert s[s._fields.index("gamma") : -1] == (None,) * 6
            return
        v = check_mla_convergence(spec, gamma)
        assert s.gamma == gamma
        assert s.gamma_converges is v.converges
        assert s.gamma_in_range is v.gamma_in_range
        assert s.criterion_ii_value == v.criterion_ii_value
        assert s.limiting_modulus == v.limiting_eigenvalue_modulus
        rate = v.limiting_eigenvalue_modulus if v.converges else None
        assert s.mla_rate_at_gamma == rate

    def test_the_rate_chain_fails_on_the_pure_9_ring(self):
        s = summary(eigendecompose_symmetric(make_ring(9)))
        assert s.accelerated_rate < s.mla_rate < s.rho_ess
        assert s.rate_chain_ok is False and s.mla_hypotheses_met is False

    def test_errors_come_in_the_order_of_the_calls(self):
        # rho_ess rejects a reducible network before gamma is looked at
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = W[2, 3] = W[3, 2] = 1.0
        with pytest.raises(DominantNotSimple):
            summary(eigendecompose_symmetric(validate(W)), float("nan"))
        with pytest.raises(BadParameter, match="^gamma=nan must be a finite"):
            summary(eigendecompose_symmetric(make_ring(8)), float("nan"))
        with pytest.raises(BadParameter, match="^spectrum must be a Spectrum"):
            summary(make_ring(8))
