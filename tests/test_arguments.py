"""Arguments of the wrong type raise BadParameter, not a raw numpy or
Python error: integers are checked with operator.index (seeds may be
negative), parameters with numbers.Real."""

import numpy as np
import pytest

from consensuslab import (
    BadParameter,
    ModelKind,
    ModelParams,
    SimConfig,
    check_mla_convergence,
    eigendecompose_symmetric,
    make_ring,
    random_symmetric_stochastic,
    rho_ess_accelerated,
    run_batch,
    simulate_trajectory,
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

