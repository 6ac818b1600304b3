"""One rounding bound, `certificate_bound(n)` = 16 n eps, decides every
"is it exactly 1, -1 or 0?" question: the periodic snap of `rho_ess`, the
MLA criterion boundary, the gamma* hypotheses and the guards of the
improvement search. So DeGroot and MLA at gamma = 1, which are the same
iteration, always reach the same verdict. The reducibility test and the
cancellation guard add the row-sum and symmetry errors the network checks
allow, so a network reducible within them is never read as irreducible."""

import numpy as np
import pytest

from conftest import bipartite_with_loops
from consensuslab import (
    DegenerateSpectrum,
    DimensionMismatch,
    DominantNotSimple,
    ModelParams,
    NotConvergent,
    Spectrum,
    check_mla_convergence,
    consensus_value,
    eigendecompose_symmetric,
    improving_gamma_exists,
    make_ring,
    model_rate,
    rho_ess,
    validate,
    write_matrix,
)
from consensuslab.cli import main
from consensuslab.spectral import certificate_bound
from test_cli import porcelain


def cliques(bridge: float) -> np.ndarray:
    """Two 3-cliques of weight 1/3 joined by one edge of weight `bridge`."""
    W = np.zeros((6, 6))
    W[:3, :3] = W[3:, 3:] = 1.0 / 3.0
    W[2, 3] = W[3, 2] = bridge
    W[2, 2] = W[3, 3] = 1.0 / 3.0 - bridge
    return W


def test_bound_is_a_python_float():
    eps = float(np.finfo(float).eps)
    for n in (1, 4, 256, 1000):
        assert type(certificate_bound(n)) is float
        assert certificate_bound(n) == 16.0 * n * eps


@pytest.mark.parametrize("n", [4, 8, 56])
def test_degroot_and_mla_at_one_agree_near_bipartite(n):
    # lambda_n = -1 + 2e-13 lies beyond 16 n eps of -1 for these n
    spec = eigendecompose_symmetric(make_ring(n, 1e-13))
    rate = model_rate(spec, ModelParams.degroot())
    assert rate < 1.0
    assert model_rate(spec, ModelParams.mla(1.0)) == rate
    assert check_mla_convergence(spec, 1.0).converges
    assert improving_gamma_exists(spec) is not None


@pytest.mark.parametrize("n", [4, 8, 56])
def test_analyze_at_gamma_one_matches_degroot(n, capsys):
    args = ["analyze", "--ring", str(n), "--self-loop", "1e-13", "--porcelain"]
    assert main([*args, "--gamma", "1"]) == 0
    kv = porcelain(capsys.readouterr().out)
    assert kv["gamma_converges"] == "true"
    assert kv["mla_rate_at_gamma"] == kv["degroot_rate"] == kv["rho_ess"]


def test_both_models_fail_within_the_bound_of_minus_one():
    # lambda_n = -1 + 2e-12 is within certificate_bound(1000) = 3.6e-12 of -1
    w = np.array([1.0, *np.linspace(0.5, -1.0 + 2e-12, 999)])
    spec = Spectrum(w, np.eye(w.size))
    assert rho_ess(spec) == 1.0
    for model in (ModelParams.degroot(), ModelParams.mla(1.0)):
        with pytest.raises(NotConvergent):
            model_rate(spec, model)


def test_weak_bridge_is_irreducible(tmp_path, capsys):
    # the bridge leaves lambda_2 about 6.7e-12 below 1, beyond the 6.0e-12
    # that the solve and the input error allow at n = 6
    path = tmp_path / "bridge.txt"
    write_matrix(validate(cliques(1e-11)), path)
    assert main(["validate", "--input", str(path), "--porcelain"]) == 0
    kv = porcelain(capsys.readouterr().out)
    assert kv["irreducible"] == kv["primitive"] == "true"
    assert main(["analyze", "--input", str(path), "--porcelain"]) == 0
    assert float(porcelain(capsys.readouterr().out)["rho_ess"]) < 1.0


@pytest.mark.parametrize("W", [np.eye(4), cliques(0.0)], ids=["identity", "blocks"])
def test_reducible_networks_still_raise(W):
    with pytest.raises(DominantNotSimple):
        rho_ess(eigendecompose_symmetric(validate(W)))


def test_reducible_within_the_row_sum_error_raises(tmp_path, capsys):
    # rows of 13-digit thirds sum to 1 - 1e-13, which validate accepts; the
    # repeated eigenvalue 1 then sits 1e-13 below 1, beyond 16 n eps
    W = np.zeros((6, 6))
    W[:3, :3] = W[3:, 3:] = 0.3333333333333
    A = validate(W)
    spec = eigendecompose_symmetric(A)
    assert 1.0 - spec.eigenvalues[1] > certificate_bound(6)
    with pytest.raises(DominantNotSimple):
        rho_ess(spec)
    for model in (ModelParams.degroot(), ModelParams.mla(0.5)):
        with pytest.raises(DominantNotSimple):
            model_rate(spec, model)
    with pytest.raises(DominantNotSimple):
        consensus_value(A, spec, np.arange(6.0))
    path = tmp_path / "blocks.txt"
    write_matrix(A, path)
    assert main(["analyze", "--input", str(path)]) == 1
    assert "network is reducible" in capsys.readouterr().err


def skewed_clique(k: int, skew: float) -> np.ndarray:
    """A k-clique of weight about 1/k whose entries below the diagonal
    exceed those above by `skew`, with exact row sums."""
    W = np.full((k, k), 1.0 / k)
    W[np.tril_indices(k, -1)] += skew / 2.0
    W[np.triu_indices(k, 1)] -= skew / 2.0
    W[np.diag_indices(k)] = 0.0
    W[np.diag_indices(k)] = 1.0 - W.sum(axis=1)
    return W


def test_reducible_within_the_symmetry_error_raises():
    # eigh reads the lower triangle, whose rows of the first clique sum to
    # up to 1 - 99 * 5e-14; its eigenvalue sits about 2.5e-12 below 1,
    # while the solve certificate stays within 16 n eps
    k = 100
    W = np.zeros((2 * k, 2 * k))
    W[:k, :k] = skewed_clique(k, -5e-14)
    W[k:, k:] = skewed_clique(k, 0.0)
    spec = eigendecompose_symmetric(validate(W))
    assert 1.0 - spec.eigenvalues[1] > certificate_bound(2 * k) + 1e-12
    with pytest.raises(DominantNotSimple):
        rho_ess(spec)


def test_cancellation_allows_for_the_input_error():
    # lambda_2 + lambda_n = 1e-12 lies within the input error of 0, though
    # beyond 16 n eps
    spec = Spectrum(np.array([1.0, 0.5, 0.0, -0.5 + 1e-12]), np.eye(4))
    with pytest.raises(DegenerateSpectrum):
        improving_gamma_exists(spec)
    # beyond the input error the essential eigenvalue is read, and the near
    # tie leaves no tried gamma an improvement
    spec = Spectrum(np.array([1.0, 0.5, 0.0, -0.5 + 1e-10]), np.eye(4))
    assert improving_gamma_exists(spec) is None


@pytest.mark.parametrize("bridge", [1e-8, 1e-9, 1e-11])
def test_consensus_value_is_the_mean_on_weak_bridges(bridge):
    A = validate(cliques(bridge))
    x0 = np.array([0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    assert consensus_value(A, eigendecompose_symmetric(A), x0) == x0.mean()


def test_consensus_value_is_the_mean_on_large_networks(corpus_large):
    rng = np.random.Generator(np.random.Philox(key=44))
    for A, spec in corpus_large:
        x0 = rng.uniform(-1.0, 1.0, A.n)
        assert consensus_value(A, spec, x0) == x0.mean()


def test_consensus_value_needs_the_spectrum_of_the_network():
    A = bipartite_with_loops(4, 0.1, seed=1)
    for m in (3, 6):
        spec = eigendecompose_symmetric(make_ring(m, 0.1))
        with pytest.raises(DimensionMismatch):
            consensus_value(A, spec, np.arange(4.0))
