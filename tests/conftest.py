import collections

import numpy as np
import pytest

from consensuslab import (
    analysis,
    eigendecompose_symmetric,
    make_ring,
    random_symmetric_stochastic,
    validate,
)
from consensuslab.analysis import _larger_modulus, _max_root_modulus

LARGE_SIZES = (32, 128, 256)


def build_corpus(count, base_seed=0, sizes=range(3, 9)):
    """Deterministic list of (network, spectrum) pairs for property tests."""
    sizes = list(sizes)
    out = []
    for i in range(count):
        A = random_symmetric_stochastic(sizes[i % len(sizes)], base_seed + i)
        out.append((A, eigendecompose_symmetric(A)))
    return out


def bridged_cliques(bridge=1e-11):
    """Two 3-cliques of weight 1/3 joined by one edge of weight `bridge`:
    a connected network whose second eigenvalue is about 1 - 2 * bridge / 3,
    so for a tiny bridge the distance to consensus barely decays."""
    W = np.kron(np.eye(2), np.full((3, 3), 1.0 / 3.0))
    W[2, 2] -= bridge
    W[3, 3] -= bridge
    W[2, 3] = W[3, 2] = bridge
    return validate(W)


def relabelled(W, rng):
    """W under a random node labelling drawn from rng."""
    perm = rng.permutation(W.shape[0])
    return validate(W[np.ix_(perm, perm)])


def relabelled_rings(n, count, seed):
    """Pure rings of n agents under seeded random node labellings."""
    rng = np.random.default_rng(seed)
    W = make_ring(n, 0.0).weights
    for _ in range(count):
        yield relabelled(W, rng)


def bipartite_with_loops(n, eps, seed):
    """Complete bipartite network K(n/2, n/2) with self weight eps, relabelled.

    The spectrum is exactly {1, eps (n - 2 times), 2 eps - 1}, so for
    eps < 1/7 the smallest eigenvalue carries the essential radius and
    the second is at most a third of it: the hypotheses of the
    closed-form gamma*. n = 4 is the paper's self-loop 4-ring.
    """
    half = n // 2
    W = np.zeros((n, n))
    W[:half, half:] = W[half:, :half] = (1.0 - eps) / half
    W[np.diag_indices(n)] = eps
    return relabelled(W, np.random.default_rng(seed))


@pytest.fixture(scope="session")
def ring4():
    return make_ring(4, 0.0)


@pytest.fixture(scope="session")
def ring4_loops():
    return make_ring(4, 0.1)


@pytest.fixture(scope="session")
def ring4_loops_spectrum(ring4_loops):
    return eigendecompose_symmetric(ring4_loops)


@pytest.fixture(scope="session")
def corpus100():
    return build_corpus(100)


@pytest.fixture(scope="session")
def corpus20():
    return build_corpus(20, base_seed=500)


@pytest.fixture(scope="session")
def corpus_large():
    """Random networks, self-loop rings and bipartite networks with self
    loops at n = 32, 128 and 256, with their spectra."""
    out = build_corpus(2 * len(LARGE_SIZES), base_seed=900, sizes=LARGE_SIZES)
    for n in LARGE_SIZES:
        for A in (make_ring(n, 0.1), bipartite_with_loops(n, 0.1, seed=n)):
            out.append((A, eigendecompose_symmetric(A)))
    return out


@pytest.fixture
def reads(monkeypatch):
    """Count the root-modulus reads the radii make: "walk" for each
    eigenvalue read through `_larger_modulus`, "array" for each call of
    `_max_root_modulus`, which only the contour grid needs."""
    counts = collections.Counter()

    def walk(b, c):
        counts["walk"] += 1
        return _larger_modulus(b, c)

    def array(b, c):
        counts["array"] += 1
        return _max_root_modulus(b, c)

    monkeypatch.setattr(analysis, "_larger_modulus", walk)
    monkeypatch.setattr(analysis, "_max_root_modulus", array)
    return counts
