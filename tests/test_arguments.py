"""Arguments of the wrong type raise BadParameter, not a raw numpy or
Python error: integers are checked with operator.index (seeds may be
negative), parameters with numbers.Real, and models, spectra and
networks with isinstance."""

import os

import numpy as np
import pytest

from consensuslab import (
    BadParameter,
    ModelKind,
    ModelParams,
    SimConfig,
    analyze_structure,
    check_mla_convergence,
    consensus_value,
    eigendecompose_symmetric,
    fit_rate,
    improving_gamma_exists,
    make_ring,
    model_rate,
    optimal_beta,
    optimal_gamma,
    random_symmetric_stochastic,
    rho_ess,
    rho_ess_accelerated,
    run_batch,
    simulate_trajectory,
    write_matrix,
)


@pytest.fixture(scope="module")
def ring4_loops_spectrum():
    return eigendecompose_symmetric(make_ring(4, 0.1))


@pytest.mark.parametrize("seed", [1.5, "a", None])
def test_seed_must_be_an_integer(seed):
    with pytest.raises(BadParameter, match="seed must be an integer"):
        SimConfig(ModelParams.degroot(), steps=3, runs=2, seed=seed)
    with pytest.raises(BadParameter, match="seed must be an integer"):
        random_symmetric_stochastic(4, seed)


def test_numpy_and_negative_seeds_run():
    model = ModelParams.degroot()
    A = make_ring(4, 0.1)
    want = run_batch(A, SimConfig(model, steps=3, runs=2, seed=3))
    got = run_batch(A, SimConfig(model, steps=3, runs=2, seed=np.int64(3)))
    assert np.array_equal(want.env_max, got.env_max)
    want = run_batch(A, SimConfig(model, steps=3, runs=2, seed=-1))
    got = run_batch(A, SimConfig(model, steps=3, runs=2, seed=np.int64(-1)))
    assert np.array_equal(want.env_max, got.env_max)
    B = random_symmetric_stochastic(np.int64(4), np.int64(-7))
    assert np.array_equal(B.weights, random_symmetric_stochastic(4, -7).weights)


@pytest.mark.parametrize("n", [2.5, 4.0, "4"])
def test_sizes_must_be_integers(n):
    with pytest.raises(BadParameter, match="must be an integer"):
        random_symmetric_stochastic(n, 1)
    with pytest.raises(BadParameter, match="must be an integer"):
        make_ring(n)


@pytest.mark.parametrize("self_loop", ["0.1", None, 0.1j])
def test_self_loop_must_be_a_real_number(self_loop):
    with pytest.raises(BadParameter, match="self_loop"):
        make_ring(4, self_loop)


@pytest.mark.parametrize("param", ["abc", "0.5", None, 0.5 + 1j, [0.5]])
def test_parameters_must_be_real_numbers(ring4_loops_spectrum, param):
    with pytest.raises(BadParameter, match="real number"):
        check_mla_convergence(ring4_loops_spectrum, param)
    with pytest.raises(BadParameter, match="real number"):
        rho_ess_accelerated(ring4_loops_spectrum, param)
    with pytest.raises(BadParameter, match="real number"):
        ModelParams(ModelKind.MLA, param)


@pytest.mark.parametrize("x0", [["a"] * 4, [0.5 + 1j] * 4, [{}] * 4])
def test_states_must_be_real_numbers(x0):
    with pytest.raises(BadParameter, match="real numbers"):
        simulate_trajectory(make_ring(4, 0.1), ModelParams.mla(0.5), x0, 3)


@pytest.mark.parametrize("args", [("mla", 0.5), ("accelerated", 1.2), ("degroot",)])
def test_model_kind_must_be_a_model_kind(args):
    # the string value is rejected, not converted
    with pytest.raises(BadParameter, match="ModelKind"):
        ModelParams(*args)


A4 = make_ring(4, 0.1)
SPEC4 = eigendecompose_symmetric(A4)
X4 = np.arange(4.0)
MLA = ModelParams.mla(0.5)
W = np.array([1.0, 0.5])


@pytest.mark.parametrize(
    "f, args",
    [
        (SimConfig, ("mla", 3, 2, 0)),
        (simulate_trajectory, (A4, "mla", X4, 3)),
        (model_rate, (SPEC4, "mla")),
        (rho_ess, (W,)),
        (optimal_gamma, (W,)),
        (optimal_beta, (W,)),
        (improving_gamma_exists, (list(W),)),
        (check_mla_convergence, (W, 0.5)),
        (model_rate, (W, MLA)),
        (consensus_value, (A4, W, X4)),
        (run_batch, (np.eye(4), SimConfig(MLA, 3, 2, 0))),
        (simulate_trajectory, (np.eye(4), MLA, X4, 3)),
        (fit_rate, (np.eye(4), MLA, X4, 30)),
        (consensus_value, (np.eye(4), SPEC4, X4)),
        (eigendecompose_symmetric, (np.eye(4),)),
        (analyze_structure, (np.eye(4),)),
        (write_matrix, (np.eye(4), os.devnull)),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_objects_of_the_wrong_kind_raise_bad_parameter(f, args):
    with pytest.raises(BadParameter, match="must be a"):
        f(*args)
