"""The root-mapping kernels against the scalar reference, bit for bit."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from consensuslab import (
    ModelParams,
    NotConvergent,
    analysis,
    check_mla_convergence,
    eigendecompose_symmetric,
    lambda_hat_max,
    make_ring,
    model_rate,
    optimal_beta,
    rho_ess,
    rho_ess_accelerated,
    rho_ess_mla,
    simulate_trajectory,
    summary,
)
from consensuslab.analysis import (
    _accelerated_coefficients,
    _larger_modulus,
    _max_root_modulus,
    _mla_coefficients,
    _root_pair,
)
from consensuslab.cli import main
from consensuslab.spectral import Spectrum, certificate_bound


def bits(x):
    """Exact identity of a float or complex, signed zeros included."""
    z = complex(x)
    return tuple((v.hex(), math.copysign(1.0, v)) for v in (z.real, z.imag))


def nudged(x, ulps):
    """x moved by a signed number of units in the last place."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, toward)
    return x


gammas = st.floats(min_value=0.05, max_value=2.5)
ulps = st.integers(min_value=-64, max_value=64)

# (b, c) pairs: the discriminant near zero, b = 0, c = 0, negative b
near_double = st.builds(
    lambda g, k: (g * nudged(4.0 * (g - 1.0) / (g * g), k),
                  (g - 1.0) * nudged(4.0 * (g - 1.0) / (g * g), k)),
    gammas, ulps,
)
anywhere = st.floats(min_value=-4.0, max_value=4.0)
zero = st.sampled_from([0.0, -0.0])
coefficients = st.one_of(
    near_double,
    st.tuples(zero, anywhere),
    st.tuples(anywhere, zero),
    st.tuples(st.floats(min_value=-4.0, max_value=-1e-300), anywhere),
    st.tuples(anywhere, anywhere),
)


@given(st.lists(coefficients, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_scalar_reference(pairs):
    b = np.array([p[0] for p in pairs])
    c = np.array([p[1] for p in pairs])
    got = _max_root_modulus(b, c)
    for i, (bi, ci) in enumerate(pairs):
        plus, minus, _ = ref.roots_sum_product(bi, ci)
        assert bits(got[i]) == bits(max(abs(plus), abs(minus)))
        assert bits(_larger_modulus(bi, ci)) == bits(got[i])


# the dominant eigenvalue a few ulps off 1, and parameters on the edges
# of the sign regions that decide which of its roots is the dropped 1
dominants = ulps.map(lambda k: nudged(1.0, k))
rests = st.lists(st.floats(min_value=-1.0, max_value=0.999), max_size=8)
params = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 2.5]), ulps.map(lambda k: nudged(2.0, k))
)


@given(dominants, rests, params)
@settings(max_examples=300, deadline=None)
def test_dominant_root_matches_scalar_reference(lam0, rest, param):
    w = np.array([lam0] + sorted(rest, reverse=True))
    spec = Spectrum(eigenvalues=w)
    mla = ref.non_dominant_moduli(spec, param, ref.map_eigenvalue).max()
    acc = ref.rho_ess_accelerated(spec, param)
    got = check_mla_convergence(spec, param).limiting_eigenvalue_modulus
    assert bits(got) == bits(mla)
    assert bits(rho_ess_accelerated(spec, param)) == bits(acc)


@given(g=gammas, k=ulps)
@settings(max_examples=300, deadline=None)
def test_scalar_wrappers_match_reference_near_double_root(g, k):
    lam = nudged(4.0 * (g - 1.0) / (g * g), k)
    for coefficients in (_mla_coefficients, _accelerated_coefficients):
        b, c = coefficients(lam, g)
        plus, minus = _root_pair(b, c)
        want_plus, want_minus, _ = ref.roots_sum_product(b, c)
        assert bits(plus) == bits(want_plus)
        assert bits(minus) == bits(want_minus)
    assert bits(lambda_hat_max(lam, g)) == bits(ref.lambda_hat_max(lam, g))


@pytest.mark.parametrize(
    "b, c, kind",
    [(1.5, 0.5, float), (-1.5, 0.5, float), (2.0, 1.0, float), (0.0, 0.0, float),
     (1.0, 1.0, complex)],
)
def test_root_pair_builds_complex_only_for_a_conjugate_pair(b, c, kind):
    assert all(type(z) is kind for z in _root_pair(b, c))


def test_contour_grid_matches_scalar_reference(tmp_path, capsys):
    assert main(["figure", "contour", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "contour_grid.csv").read_text().splitlines()
    lams = np.linspace(-1.0, 1.0, 201)
    gams = np.linspace(0.0, 2.0, 201)
    want = ["lambda,gamma,value"] + [
        f"{lam:.17g},{g:.17g},{ref.lambda_hat_max(lam, g):.17g}"
        for lam in lams
        for g in gams
    ]
    assert lines == want


def test_contour_peak_memory_stays_small(tmp_path, capsys):
    # the grid goes through the kernel in blocks of rows: one 201-by-201
    # call would peak at several MB of temporaries
    tracemalloc.start()
    try:
        assert main(["figure", "contour", "--out-dir", str(tmp_path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


PARAMS = np.linspace(-0.5, 2.5, 61)


def test_convergence_verdicts_match_reference(corpus100):
    for _, spec in corpus100:
        for g in PARAMS:
            got = check_mla_convergence(spec, float(g))
            want = ref.check_mla_convergence(spec, float(g))
            assert got.converges == want.converges
            assert got.gamma_in_range == want.gamma_in_range
            assert bits(got.criterion_ii_value) == bits(want.criterion_ii_value)
            assert bits(got.limiting_eigenvalue_modulus) == bits(
                want.limiting_eigenvalue_modulus
            )


def test_accelerated_radius_matches_reference(corpus100):
    for _, spec in corpus100:
        for beta in PARAMS:
            assert bits(rho_ess_accelerated(spec, float(beta))) == bits(
                ref.rho_ess_accelerated(spec, float(beta))
            )


def test_optimal_beta_matches_reference(corpus100, corpus_large):
    for _, spec in corpus100 + corpus_large:
        got = optimal_beta(spec)
        want = ref.optimal_beta(spec)
        rho = rho_ess(spec)
        assert bits(got.beta) == bits(2.0 / (1.0 + math.sqrt(1.0 - rho * rho)))
        assert bits(got.rate) == bits(want.rate)
        # the reference search brackets to 1e-10 around the same minimum
        assert abs(want.beta - got.beta) <= 1e-10


def test_optimal_beta_maps_no_eigenvalue(monkeypatch, reads):
    radius_calls = []
    monkeypatch.setattr(
        analysis, "rho_ess_accelerated", lambda *a: radius_calls.append(a)
    )
    for n in (16, 17, 64, 1024):
        optimal_beta(eigendecompose_symmetric(make_ring(n, 0.1)))
    assert radius_calls == [] and reads == {}


# every real parameter is read as the Python float it holds: numpy
# scalars of any precision, bools and ints alike
SCALAR_PARAMS = [
    t(p)
    for t in (np.float16, np.float32, np.longdouble, np.float64)
    for p in (0.3, 0.7, 1.2, 1.3, 1.9)
] + [np.int64(0), np.int64(1), np.int64(2), True, False]


def rate_bits(spec, model):
    """bits() of model_rate, or None where it raises NotConvergent."""
    with contextlib.suppress(NotConvergent):
        return bits(model_rate(spec, model))


@pytest.mark.parametrize("param", SCALAR_PARAMS, ids=lambda p: f"{type(p).__name__}({p})")
def test_numpy_scalar_parameters_match_reference(param, corpus20):
    p = float(param)
    networks = [A for A, _ in corpus20] + [
        make_ring(n, loop) for n in (16, 17, 64) for loop in (0.0, 0.1)
    ]
    for A in networks:
        spec = eigendecompose_symmetric(A)
        got = check_mla_convergence(spec, param)
        want = ref.check_mla_convergence(spec, p)
        assert type(got.converges) is bool and type(got.gamma_in_range) is bool
        assert type(got.criterion_ii_value) is float
        assert type(got.limiting_eigenvalue_modulus) is float
        assert got.converges == want.converges
        assert bits(got.criterion_ii_value) == bits(want.criterion_ii_value)
        assert bits(got.limiting_eigenvalue_modulus) == bits(
            want.limiting_eigenvalue_modulus
        )
        if got.converges:
            assert bits(rho_ess_mla(spec, param)) == bits(
                want.limiting_eigenvalue_modulus
            )
        acc = ref.rho_ess_accelerated(spec, p)
        assert bits(rho_ess_accelerated(spec, param)) == bits(acc)
        assert rate_bits(spec, ModelParams.mla(param)) == (
            bits(want.limiting_eigenvalue_modulus) if want.converges else None
        )
        assert rate_bits(spec, ModelParams.accelerated(param)) == (
            bits(acc) if rho_ess(spec) < 1.0 and acc < 1.0 else None
        )
        record = summary(spec, param)
        assert type(record.gamma) is float
        values = (record.n, *record.spectrum, *record[2:])
        assert all(v is None or type(v) in (bool, int, float, str) for v in values)
        assert all(type(v) is float for v in record.spectrum)
        assert record == summary(spec, p)
        x0 = np.linspace(-1.0, 1.0, A.n)
        for make in (ModelParams.mla, ModelParams.accelerated):
            got_states = simulate_trajectory(A, make(param), x0, 30)
            want_states = ref.simulate_trajectory(A, make(p), x0, 30)
            assert got_states.tobytes() == want_states.tobytes()
    model = ModelParams.mla(param)
    assert type(model.param) is float and bits(model.param) == bits(p)
    assert model == ModelParams.mla(p)
    lams = np.linspace(-1.0, 1.0, 21)
    for t in (np.float16, np.float32, np.int64):
        row = lams.astype(t)
        want_row = [ref.lambda_hat_max(float(lam), p) for lam in row]
        for gamma in (param, np.full(21, param)):
            got_row = lambda_hat_max(row, gamma)
            assert [bits(v) for v in got_row] == [bits(v) for v in want_row]


def test_kernels_read_python_floats_whatever_the_parameter(monkeypatch):
    # every parameter is read as its Python float before the walk, so the
    # scalar kernels only ever see Python floats
    seen = []

    def watch(kernel):
        def read(b, c):
            seen.append((type(b), type(c)))
            return kernel(b, c)

        return read

    monkeypatch.setattr(analysis, "_larger_modulus", watch(_larger_modulus))
    monkeypatch.setattr(analysis, "_root_pair", watch(_root_pair))
    spectra = [
        eigendecompose_symmetric(make_ring(n, loop))
        for n in (16, 17, 64)
        for loop in (0.0, 0.1)
    ]
    extra = [0.3, 1.0, 1.3, 2.0, 1]  # Python floats and an int
    for param in SCALAR_PARAMS + extra:
        for spec in spectra:
            check_mla_convergence(spec, param)
            with contextlib.suppress(NotConvergent):
                rho_ess_mla(spec, param)
            rho_ess_accelerated(spec, param)
    assert len(seen) > 3 * len(spectra) * (len(SCALAR_PARAMS) + len(extra))
    assert set(seen) == {(float, float)}


# Spectra where reading the rate off the ends is hardest: clusters of
# eigenvalues a few ulps apart (as rings give), magnitudes down to 1e-300,
# and parameters on the double root of lambda_2 or lambda_n, at +-0,
# subnormal, 1 and 2 +- 1 ulp, or outside (0, 2).
tiny = st.builds(
    lambda sign, e: sign * 10.0**e,
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=-300.0, max_value=-160.0),
)
centres = st.one_of(st.floats(min_value=-1.0, max_value=0.999), tiny)
special_params = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2e-310, 1.0, nudged(1.0, 1), nudged(1.0, -1),
     2.0, nudged(2.0, 1), nudged(2.0, -1)]
)


def double_root_params(lam):
    """Parameters placing an exact double root on lam, for each model:
    gamma^2 lam = 4 (gamma - 1) and beta^2 lam^2 = 4 (beta - 1)."""
    out = []
    for a in (lam, lam * lam):
        root = 1.0 - a
        if a != 0.0 and root >= 0.0:
            out += [2.0 * (1.0 - math.sqrt(root)) / a, 2.0 * (1.0 + math.sqrt(root)) / a]
    return out


@st.composite
def hard_spectra(draw):
    rest = []
    for c in draw(st.lists(centres, min_size=1, max_size=4)):
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            rest.append(nudged(c, draw(st.integers(min_value=-4, max_value=4))))
    w = np.array([nudged(1.0, draw(ulps))] + sorted(rest, reverse=True))
    kind = draw(st.sampled_from(["double", "special", "wide"]))
    if kind == "double":
        end = float(w[draw(st.sampled_from([1, -1]))])
        candidates = [p for p in double_root_params(end) if abs(p) <= 1e6]
        assume(candidates)
        param = nudged(draw(st.sampled_from(candidates)), draw(ulps))
    elif kind == "special":
        param = draw(special_params)
    else:
        param = draw(st.floats(min_value=-3.0, max_value=4.0))
    return w, param


@given(hard_spectra())
@settings(max_examples=400, deadline=None)
def test_radii_match_scalar_reference_on_hard_spectra(case):
    w, param = case
    spec = Spectrum(eigenvalues=w)
    rho = float(np.max(np.abs(w[1:])))
    periodic = rho >= 1.0 - certificate_bound(w.size)
    mla = ref.non_dominant_moduli(spec, param, ref.map_eigenvalue).max()
    acc = ref.non_dominant_moduli(spec, param, ref.map_eigenvalue_accelerated).max()
    # rho_ess reads 1 there, and the root -1 of lam = -1 bounds the radius
    acc = max(acc, 1.0) if periodic else acc
    verdict = check_mla_convergence(spec, param)
    assert bits(verdict.limiting_eigenvalue_modulus) == bits(mla)
    if verdict.converges:
        assert bits(rho_ess_mla(spec, param)) == bits(mla)
    else:
        with pytest.raises(NotConvergent):
            rho_ess_mla(spec, param)
    assert bits(rho_ess_accelerated(spec, param)) == bits(acc)
    assert bits(rho_ess(spec)) == bits(1.0 if periodic else rho)


@pytest.mark.parametrize("n", [1024, 1025])
def test_ring_verdicts_read_only_the_ends(n, reads):
    # primitive (odd) and periodic (even) rings of about a thousand agents
    spec = eigendecompose_symmetric(make_ring(n, 0.0))
    for g in (0.3, 0.7, 1.3):
        reads.clear()
        got = check_mla_convergence(spec, g)
        assert reads["array"] == 0 and reads["walk"] <= 4
        want = ref.check_mla_convergence(spec, g)
        assert bits(got.limiting_eigenvalue_modulus) == bits(
            want.limiting_eigenvalue_modulus
        )
        if got.converges:
            assert bits(rho_ess_mla(spec, g)) == bits(want.limiting_eigenvalue_modulus)


def test_flat_accelerated_radius_reads_each_eigenvalue_once(reads):
    # above beta* every eigenvalue maps to a conjugate pair of modulus
    # sqrt(beta - 1), so the ends cannot tell the maximum and the walk
    # reads the whole spectrum but the dominant eigenvalue, once each
    for n in (16, 17, 64):
        spec = eigendecompose_symmetric(make_ring(n, 0.1))
        beta_star = optimal_beta(spec).beta
        for beta in np.linspace(beta_star + 1e-3, 1.999, 40):
            want = ref.non_dominant_moduli(spec, beta, ref.map_eigenvalue_accelerated)
            reads.clear()
            assert bits(rho_ess_accelerated(spec, float(beta))) == bits(want.max())
            assert reads == {"walk": n - 1}


def test_walk_stop_rule_keeps_the_rounding_slack(reads):
    # a side stays open while its modulus may round up to best: within
    # 1e-6 relative (the kernels' error is below 1e-7) or 1e-150 absolute
    # (sqrt of a subnormal-level error is about 2e-162). At gamma = 1 each
    # eigenvalue maps to {lam, 0}, so the moduli are |lam| exactly. The
    # lambda_n side holds best and reads one zero of the middle before it
    # closes; a lambda_2 side left open beside it reads the other zero,
    # and a closed one reads nothing past lambda_2
    for lam_2, lam_n, stays_open in [
        (0.5 / (1.0 + 9e-7), -0.5, True),
        (0.5 / (1.0 + 2e-6), -0.5, False),
        (0.0, -5e-151, True),
        (1e-160, -(1e-160 + 9e-151), True),
        (0.0, -2e-150, False),
    ]:
        w = np.array([1.0, lam_2, 0.0, 0.0, lam_n])
        spec = Spectrum(eigenvalues=w)
        reads.clear()
        verdict = check_mla_convergence(spec, 1.0)
        assert verdict.limiting_eigenvalue_modulus == abs(lam_n)
        assert reads == {"walk": 3 + stays_open}, (lam_2, lam_n)
    # the side holding best reads on: one ulp inward of lambda_n the
    # computed modulus rounds above lambda_n's
    g, lam_n = 0.8876253084112719, -0.7658974138909644
    w = np.array([1.0, 0.1, math.nextafter(lam_n, 0.0), lam_n])
    spec = Spectrum(eigenvalues=w)
    want = ref.non_dominant_moduli(spec, g, ref.map_eigenvalue).max()
    assert want > _larger_modulus(*_mla_coefficients(lam_n, g))
    verdict = check_mla_convergence(spec, g)
    assert bits(verdict.limiting_eigenvalue_modulus) == bits(want)


def test_verdicts_read_each_eigenvalue_at_most_once(corpus100, reads):
    # n = 1 and n = 2 spectra built by hand: no read, and lambda_2 once
    spectra = [spec for _, spec in corpus100] + [
        Spectrum(eigenvalues=np.array(w))
        for w in ([1.0], [1.0, -0.5], [1.0, 0.5])
    ]
    for spec in spectra:
        n = spec.eigenvalues.size
        for p in map(float, PARAMS):
            for verdict in (
                lambda: check_mla_convergence(spec, p),
                lambda: rho_ess_accelerated(spec, p),
                lambda: model_rate(spec, ModelParams.mla(p)),
                lambda: model_rate(spec, ModelParams.accelerated(p)),
                lambda: model_rate(spec, ModelParams.degroot()),
            ):
                reads.clear()
                with contextlib.suppress(NotConvergent):
                    verdict()
                assert reads["array"] == 0 and reads["walk"] <= n - 1
