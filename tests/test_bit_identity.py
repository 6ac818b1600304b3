"""A standing bit-identity check of the analysis library.

Each group runs one public function over a fixed call set and hashes
every result (floats by `float.hex`, so signed zeros count; an error by
its class and message) into one sha256, compared with the hex string
committed below. A failure names the group whose bits moved. A change
that moves bits on purpose updates the strings and says which groups
moved and why.

The inputs do not depend on BLAS: hand-built spectra, the closed-form
ring, complete, K_{m,m} and torus spectra of `test_large_networks.py`
(cosines from libm's `math.cos`), and seeded random sorted spectra in
[-1, 1] led by 1. The "inputs" group hashes them, so a libm that rounds a
cosine apart shows there first. The pinned platform is Linux x86-64 with
numpy >= 2.0: the conjugate-pair moduli go through `abs(complex)` and
`np.hypot`, whose last bit may follow the platform's libm.
"""

import hashlib
import math
import platform
import sys

import numpy as np
import pytest

from consensuslab import (
    ConsensusLabError,
    ModelParams,
    Spectrum,
    check_mla_convergence,
    improving_gamma_exists,
    lambda_hat_max,
    model_rate,
    optimal_beta,
    optimal_gamma,
    rho_ess,
    rho_ess_accelerated,
    rho_ess_mla,
    summary,
)

pytestmark = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and platform.machine() == "x86_64"),
    reason="the digests pin Linux x86-64 bits",
)


def ring(n, s=0.0):
    """make_ring(n, s): s + (1 - s) cos(2 pi k / n), descending."""
    return [s + (1.0 - s) * math.cos(2.0 * math.pi * ((k + 1) // 2) / n) for k in range(n)]


def bipartite(n, s):
    """K_{n/2,n/2} with self weight s: 1, s (n - 2 times), 2 s - 1."""
    return [1.0] + [s] * (n - 2) + [2.0 * s - 1.0]


def torus(m, s):
    """The m-by-m torus of make_ring(m, s): every (lam_i + lam_j) / 2."""
    r = ring(m, s)
    return sorted(((a + b) / 2.0 for a in r for b in r), reverse=True)


# hand-built spectra: one and two eigenvalues, a lambda_n just inside the
# -1 - 1e-8 guard, a dominant 1 off by an ulp, the walk's rounding case,
# tied middles, underflow-sized moduli, cancelling ends, a reducible one
HAND = [
    [1.0],
    [1.0, 0.5],
    [1.0, -0.5],
    [1.0, -1.0],
    [1.0, 0.0, 0.0],
    [1.0, 0.5, -0.5],
    [1.0, 0.5, -1.0],
    [1.0, 0.2, -1.0 - 5e-9],
    [math.nextafter(1.0, 2.0), 0.3, -0.6],
    [math.nextafter(1.0, 0.0), 0.3, -0.6],
    [1.0, 0.1, math.nextafter(-0.7658974138909644, 0.0), -0.7658974138909644],
    [1.0, 0.25, 0.25, 0.25, -0.75],
    [1.0, 1e-200, 0.0, -1e-300],
    [1.0, 1.0, 0.2],
]
CLOSED = [
    *(ring(n) for n in (8, 9, 16, 33, 64, 255)),
    *(ring(n, 0.1) for n in (16, 64, 256)),
    ring(32, 0.5),
    *(bipartite(n, s) for n in (8, 64) for s in (0.0, 0.1)),
    [1.0] + [0.0] * 7,
    torus(4, 0.1),
    torus(8, 0.1),
]
_rng = np.random.Generator(np.random.Philox(key=15))
RANDOM = [
    [1.0] + sorted(_rng.uniform(-1.0, 1.0, n - 1).tolist(), reverse=True)
    for n in (2, 3, 3, 4, 5, 5, 6, 8, 8, 10, 12, 16, 20, 30, 40, 64)
]
FAMILIES = {
    "forms": [Spectrum(np.array(w)) for w in HAND + CLOSED],
    "random": [Spectrum(np.array(w)) for w in RANDOM],
}
SPECTRA = FAMILIES["forms"] + FAMILIES["random"]
# gamma and beta alike: a grid over (-0.25, 2.25), the ends of (0, 2),
# 1 and its neighbours, and gamma* of make_ring(4, 0.1)
PARAMS = np.linspace(-0.25, 2.25, 21).tolist() + [
    0.0, 1.0, 2.0, math.nextafter(1.0, 0.0), math.nextafter(2.0, 0.0),
    0.8541019662496845,
]


def canon(x):
    """A text that tells apart every result: floats by their hex."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return repr(x)
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return canon(x.tolist())
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(map(canon, x)) + ")"
    raise TypeError(f"no canonical text for {type(x).__name__}")


def outcomes(f, calls):
    """canon of f(*args) for each args, or the error's class and message."""
    for args in calls:
        try:
            yield canon(f(*args))
        except ConsensusLabError as e:
            yield f"{type(e).__name__}: {e}"


def each(spectra, params=(None,)):
    return [(s,) if p is None else (s, p) for s in spectra for p in params]


def model(make):
    return lambda spec, p: model_rate(spec, make(p))


def lambda_hat_rows():
    lams = np.linspace(-1.0, 1.0, 41)
    gams = np.linspace(0.0, 2.0, 41)
    yield canon(lambda_hat_max(lams[:, None], gams))
    # a double root on lambda, and one ulp either side
    for g in gams[1:]:
        lam = 4.0 * (g - 1.0) / (g * g)
        if -1.0 <= lam <= 1.0:
            for x in (math.nextafter(lam, -2.0), lam, math.nextafter(lam, 2.0)):
                yield canon(lambda_hat_max(x, float(g)))


GROUPS = {
    "inputs": lambda: (canon(w) for w in HAND + CLOSED + RANDOM),
    "rho_ess": lambda: outcomes(rho_ess, each(SPECTRA)),
    "optimal_gamma": lambda: outcomes(optimal_gamma, each(SPECTRA)),
    "optimal_beta": lambda: outcomes(optimal_beta, each(SPECTRA)),
    "improving_gamma_exists": lambda: outcomes(improving_gamma_exists, each(SPECTRA)),
    "model_rate_degroot": lambda: outcomes(
        lambda spec: model_rate(spec, ModelParams.degroot()), each(SPECTRA)
    ),
    "summary": lambda: outcomes(summary, each(SPECTRA)),
    "summary_gamma": lambda: outcomes(summary, each(SPECTRA, PARAMS[::4])),
    "lambda_hat_max": lambda_hat_rows,
    **{
        f"{name}[{family}]": (
            lambda f=f, family=family: outcomes(f, each(FAMILIES[family], PARAMS))
        )
        for name, f in (
            ("check_mla_convergence", check_mla_convergence),
            ("rho_ess_mla", rho_ess_mla),
            ("rho_ess_accelerated", rho_ess_accelerated),
            ("model_rate_accelerated", model(ModelParams.accelerated)),
            ("model_rate_mla", model(ModelParams.mla)),
        )
        for family in FAMILIES
    },
}

DIGESTS = {
    "check_mla_convergence[forms]": (
        "e893fc4f3a8bc8694935eb4d6b002a2e79e79e4d7fd1d8004bc34cee8066973c"
    ),
    "check_mla_convergence[random]": (
        "b0eeb814a739d5cc71f7bd4b0bdd07466a92483022dd0682e143e39350deae23"
    ),
    "improving_gamma_exists": (
        "8caaf90dbb279e7f22cad9df6a382ed3ff9c366499e3cb6ea58a01a55d367902"
    ),
    "inputs": (
        "85b1c016269d2d34eb6bdb76ef181578304ee2b6d68d7be2f86d40470c5536b2"
    ),
    "lambda_hat_max": (
        "bc9e6ad7e45e2cb41ac82a5da67042c279812ed810c86b6849a2f17fd11d7a62"
    ),
    "model_rate_accelerated[forms]": (
        "e98433e52612be3caf7435012aa6d8172f05c8c1d66a7c7545e77fccb1b852a2"
    ),
    "model_rate_accelerated[random]": (
        "8d383719fd5c0fd50ff556d2182c8a98eefe6f7991ef99f6d6d8645cc7d39ba1"
    ),
    "model_rate_degroot": (
        "ba6dc702068d8ade499269510a0a1d895d258c883b0e457d9e794509eea3a376"
    ),
    "model_rate_mla[forms]": (
        "4e287b799518529c82e53b246d6f81f06efe79246a5ef6d333cca7ad99f9fdd9"
    ),
    "model_rate_mla[random]": (
        "a744c522dbf5b9d14e18c83ada121e09311bb4b7743d8af1066538683bd0dc81"
    ),
    "optimal_beta": (
        "8f71e66fdd56cc790653eacbc3141a9289383add864018f29de6ee4ce6ae510f"
    ),
    "optimal_gamma": (
        "f7ec97781aff390302b6b1f85ac808be1d67a9b4ba7cd9fa2d046b5e4aaee670"
    ),
    "rho_ess": (
        "8cfcf818dd71710258a330dc1da039eebb4ab2332a317a571228eaafebf838ba"
    ),
    "rho_ess_accelerated[forms]": (
        "f793ce2b62e8f9f94cc2f57587136e4b864ea4e084381584a93689cf1e6e69ec"
    ),
    "rho_ess_accelerated[random]": (
        "601978a6dfa136fd1ff24fe8cce6a32c990c05e844e84ea145f08bf2a1c6b02a"
    ),
    "rho_ess_mla[forms]": (
        "4e287b799518529c82e53b246d6f81f06efe79246a5ef6d333cca7ad99f9fdd9"
    ),
    "rho_ess_mla[random]": (
        "a744c522dbf5b9d14e18c83ada121e09311bb4b7743d8af1066538683bd0dc81"
    ),
    "summary": (
        "8b35a564369dea97af37350815e39f53c768eb625e5974ac26c21c94987f5fa0"
    ),
    "summary_gamma": (
        "89696b30ab7a7cd17157c0764f5231f23f3b3c09defbdc0a41cbee54720cdf28"
    ),
}


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_every_group_is_pinned():
    assert sorted(DIGESTS) == sorted(GROUPS)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_group_bits_are_unchanged(group):
    assert digest(GROUPS[group]()) == DIGESTS.get(group)
