import numpy as np
import pytest

from consensuslab import DimensionMismatch, ModelParams, simulate_trajectory, validate
from scalar_reference import augmented_matrix, step_model

DEGROOT = ModelParams.degroot()


def degroot(A, x):
    # DeGroot ignores the previous state
    return step_model(A, DEGROOT, x, x)


class TestStepDegroot:
    def test_consensus_is_fixed(self, ring4):
        x = np.ones(4)
        assert np.array_equal(degroot(ring4, x), x)

    def test_impulse_spreads_to_neighbors(self, ring4):
        out = degroot(ring4, [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(out, [0.0, 0.5, 0.0, 0.5])

    def test_alternating_state_flips(self, ring4):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        assert np.array_equal(degroot(ring4, x), -x)

    def test_preserves_bounds(self, corpus20):
        rng = np.random.Generator(np.random.Philox(key=7))
        for A, _ in corpus20:
            x = rng.uniform(-5.0, 5.0, A.n)
            out = degroot(A, x)
            assert out.min() >= x.min() - 1e-12
            assert out.max() <= x.max() + 1e-12

    def test_ignores_previous_state(self, ring4_loops):
        rng = np.random.Generator(np.random.Philox(key=6))
        x, xp = rng.uniform(size=4), rng.uniform(size=4)
        assert np.array_equal(
            step_model(ring4_loops, DEGROOT, x, xp), degroot(ring4_loops, x)
        )

    def test_dimension_mismatch(self, ring4):
        with pytest.raises(DimensionMismatch):
            degroot(ring4, np.ones(3))
        with pytest.raises(DimensionMismatch):
            step_model(ring4, ModelParams.mla(0.5), np.ones(4), np.ones(3))


class TestStepAccelerated:
    def test_beta_one_reduces_to_degroot(self, ring4_loops):
        rng = np.random.Generator(np.random.Philox(key=8))
        x, xp = rng.uniform(size=4), rng.uniform(size=4)
        assert np.array_equal(
            step_model(ring4_loops, ModelParams.accelerated(1.0), x, xp),
            degroot(ring4_loops, x),
        )

    def test_hand_evaluated_update(self, ring4):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        out = step_model(ring4, ModelParams.accelerated(1.2), x, x)
        assert np.max(np.abs(out - np.array([-1.4, 1.4, -1.4, 1.4]))) <= 1e-15

    def test_consensus_fixed_for_any_beta(self, ring4_loops):
        x = np.full(4, 3.25)
        for beta in (-0.5, 0.0, 1.0, 1.2, 2.7):
            out = step_model(ring4_loops, ModelParams.accelerated(beta), x, x)
            assert np.max(np.abs(out - x)) <= 1e-14


class TestStepMla:
    def test_gamma_one_reduces_to_degroot(self, ring4_loops):
        rng = np.random.Generator(np.random.Philox(key=9))
        x, xp = rng.uniform(size=4), rng.uniform(size=4)
        assert np.array_equal(
            step_model(ring4_loops, ModelParams.mla(1.0), x, xp),
            degroot(ring4_loops, x),
        )

    def test_hand_evaluated_update(self, ring4):
        out = step_model(
            ring4, ModelParams.mla(0.5), [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]
        )
        assert np.max(np.abs(out - 0.25)) <= 1e-15

    def test_is_convex_mix_of_degroot_steps(self, corpus20):
        rng = np.random.Generator(np.random.Philox(key=10))
        for A, _ in corpus20[:8]:
            x, xp = rng.uniform(size=A.n), rng.uniform(size=A.n)
            for g in (-0.3, 0.5, 1.0, 1.7):
                direct = step_model(A, ModelParams.mla(g), x, xp)
                mix = g * degroot(A, x) + (1.0 - g) * degroot(A, xp)
                assert np.array_equal(direct, mix)

    def test_consensus_fixed_for_any_gamma(self, ring4_loops):
        x = np.full(4, -1.75)
        for g in (-0.5, 0.0, 0.5, 1.0, 1.9):
            out = step_model(ring4_loops, ModelParams.mla(g), x, x)
            assert np.max(np.abs(out - x)) <= 1e-14


class TestAugmentedMatrix:
    def test_small_example_blocks(self):
        A = validate(np.full((2, 2), 0.5))
        M = augmented_matrix(A, 0.5)
        assert np.array_equal(M[:2, :], np.full((2, 4), 0.25))
        assert np.array_equal(M[2:, :2], np.eye(2))
        assert np.array_equal(M[2:, 2:], np.zeros((2, 2)))

    def test_rows_sum_to_one_for_any_gamma(self, ring4_loops):
        for g in (-0.5, 0.3, 1.0, 1.7):
            M = augmented_matrix(ring4_loops, g)
            assert np.max(np.abs(M.sum(axis=1) - 1.0)) <= 1e-12

    def test_gamma_one_zeroes_memory_block(self, ring4):
        M = augmented_matrix(ring4, 1.0)
        assert np.array_equal(M[:4, 4:], np.zeros((4, 4)))

    @pytest.mark.parametrize("gamma", [0.5, 0.9, 1.05])
    def test_matches_two_vector_iteration(self, ring4_loops, gamma):
        rng = np.random.Generator(np.random.Philox(key=11))
        x0 = rng.uniform(size=4)
        M = augmented_matrix(ring4_loops, gamma)
        model = ModelParams.mla(gamma)
        stacked = np.concatenate([x0, x0])
        current = previous = x0
        for _ in range(100):
            stacked = M @ stacked
            current, previous = (
                step_model(ring4_loops, model, current, previous),
                current,
            )
            assert np.max(np.abs(stacked[:4] - current)) <= 1e-12
            assert np.max(np.abs(stacked[4:] - previous)) <= 1e-12


class TestPeriodicRingBehaviors:
    """The alternating eigendirection of the pure 4-ring separates the models."""

    def test_degroot_has_exact_period_two(self, ring4):
        x0 = np.array([1.0, -1.0, 1.0, -1.0])
        x = x0
        for _ in range(10):
            a = degroot(ring4, x)
            b = degroot(ring4, a)
            assert np.array_equal(a, -x)
            assert np.array_equal(b, x)
            x = b

    def test_accelerated_never_decays(self, ring4):
        x0 = np.array([1.0, -1.0, 1.0, -1.0])
        model = ModelParams.accelerated(1.2)
        xc = xp = x0
        for _ in range(100):
            xc, xp = step_model(ring4, model, xc, xp), xc
        assert np.max(np.abs(xc)) >= 1.0

    def test_mla_decays_geometrically(self, ring4):
        x0 = np.array([1.0, -1.0, 1.0, -1.0])
        model = ModelParams.mla(0.5)
        xc = xp = x0
        for _ in range(60):
            xc, xp = step_model(ring4, model, xc, xp), xc
        assert np.max(np.abs(xc)) <= 1e-8

    def test_step_model_dispatch(self, ring4):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        Wx = ring4.weights @ x
        assert np.array_equal(degroot(ring4, x), Wx)
        assert np.array_equal(
            step_model(ring4, ModelParams.accelerated(1.2), x, x),
            1.2 * Wx + (1.0 - 1.2) * x,
        )
        assert np.array_equal(
            step_model(ring4, ModelParams.mla(0.5), x, x), 0.5 * Wx + 0.5 * Wx
        )

    def test_step_model_is_the_trajectory_step(self, ring4_loops):
        # a trajectory is a batch of one, stepped by the same kernel
        x0 = np.random.Generator(np.random.Philox(key=12)).uniform(size=4)
        for model in (DEGROOT, ModelParams.accelerated(1.2), ModelParams.mla(0.5)):
            traj = simulate_trajectory(ring4_loops, model, x0, 20)
            xc = xp = x0
            for k in range(1, 21):
                xc, xp = step_model(ring4_loops, model, xc, xp), xc
                assert np.array_equal(traj[k], xc)
