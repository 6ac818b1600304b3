"""The root-mapping kernels against the scalar reference, bit for bit."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from consensuslab import (
    check_mla_convergence,
    lambda_hat_max,
    map_eigenvalue,
    map_eigenvalue_accelerated,
    optimal_beta,
    rho_ess_accelerated,
)
from consensuslab.analysis import _max_root_modulus
from consensuslab.cli import main
from consensuslab.spectral import Spectrum


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
    spec = Spectrum(eigenvalues=w, eigenvectors=np.eye(w.size))
    mla = ref.non_dominant_moduli(spec, param, ref.map_eigenvalue).max()
    acc = ref.non_dominant_moduli(spec, param, ref.map_eigenvalue_accelerated).max()
    got = check_mla_convergence(spec, param).limiting_eigenvalue_modulus
    assert bits(got) == bits(mla)
    assert bits(rho_ess_accelerated(spec, param)) == bits(acc)


@given(g=gammas, k=ulps)
@settings(max_examples=300, deadline=None)
def test_scalar_wrappers_match_reference_near_double_root(g, k):
    lam = nudged(4.0 * (g - 1.0) / (g * g), k)
    for mapped, want in (
        (map_eigenvalue(lam, g), ref.map_eigenvalue(lam, g)),
        (map_eigenvalue_accelerated(lam, g), ref.map_eigenvalue_accelerated(lam, g)),
    ):
        assert bits(mapped.lambda_plus) == bits(want.lambda_plus)
        assert bits(mapped.lambda_minus) == bits(want.lambda_minus)
        assert bits(mapped.discriminant) == bits(want.discriminant)
    assert bits(lambda_hat_max(lam, g)) == bits(ref.lambda_hat_max(lam, g))


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


def test_optimal_beta_matches_reference(corpus100):
    for _, spec in corpus100:
        got = optimal_beta(spec)
        want = ref.optimal_beta(spec)
        assert (bits(got.beta), bits(got.rate)) == (bits(want.beta), bits(want.rate))
