import re
import warnings

import numpy as np
import pytest

import scalar_reference as ref
from conftest import bridged_cliques
from consensuslab import (
    AssumptionViolated,
    BadParameter,
    DimensionMismatch,
    DominantNotSimple,
    InsufficientData,
    ModelParams,
    NormalizationFailed,
    NotConvergent,
    NotSymmetric,
    SimConfig,
    TraceSummary,
    analyze_structure,
    check_mla_convergence,
    consensus_value,
    eigendecompose_symmetric,
    fit_rate,
    make_ring,
    model_rate,
    optimal_beta,
    optimal_gamma,
    random_symmetric_stochastic,
    rho_ess,
    rho_ess_mla,
    run_batch,
    simulate_trajectory,
    validate,
)
from consensuslab import sim
from consensuslab.spectral import certificate_bound


class TestSimConfig:
    def test_rejects_bad_fields(self):
        m = ModelParams.mla(0.5)
        with pytest.raises(BadParameter):
            SimConfig(model=m, steps=0, runs=1, seed=0)
        with pytest.raises(BadParameter):
            SimConfig(model=m, steps=1, runs=0, seed=0)

    @pytest.mark.parametrize("field", ["steps", "runs"])
    @pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(3.0), "3", None])
    def test_rejects_non_integral_counts(self, field, bad):
        counts = {"steps": 3, "runs": 2, field: bad}
        with pytest.raises(BadParameter, match=field):
            SimConfig(model=ModelParams.mla(0.5), seed=0, **counts)

    def test_numpy_integer_counts_run(self, ring4_loops):
        m = ModelParams.mla(0.5)
        got = run_batch(ring4_loops, SimConfig(m, np.int64(5), np.int64(3), 1))
        want = run_batch(ring4_loops, SimConfig(m, 5, 3, 1))
        assert np.array_equal(got.env_max, want.env_max)
        assert np.array_equal(got.final_max_abs_deviation, want.final_max_abs_deviation)


class TestRunBatch:
    def test_deterministic_bit_identical(self, ring4_loops):
        cfg = SimConfig(model=ModelParams.mla(0.7), steps=40, runs=16, seed=99)
        a = run_batch(ring4_loops, cfg)
        b = run_batch(ring4_loops, cfg)
        assert np.array_equal(a.env_max, b.env_max)
        assert np.array_equal(a.env_min, b.env_min)
        assert np.array_equal(a.final_max_abs_deviation, b.final_max_abs_deviation)

    def test_envelope_straddles_zero(self, ring4_loops):
        cfg = SimConfig(model=ModelParams.degroot(), steps=50, runs=10, seed=1)
        ts = run_batch(ring4_loops, cfg)
        assert np.all(ts.env_max >= 0.0)
        assert np.all(ts.env_min <= 0.0)
        assert np.all(ts.env_max >= ts.env_min)

    def test_mla_envelope_collapses_on_pure_ring(self, ring4):
        cfg = SimConfig(model=ModelParams.mla(0.5), steps=100, runs=200, seed=7)
        ts = run_batch(ring4, cfg)
        assert ts.env_max[-1] - ts.env_min[-1] <= 1e-10
        assert np.max(ts.final_max_abs_deviation) <= 1e-10

    def test_degroot_envelope_persists_on_pure_ring(self, ring4):
        cfg = SimConfig(model=ModelParams.degroot(), steps=100, runs=200, seed=7)
        ts = run_batch(ring4, cfg)
        width0 = ts.env_max[0] - ts.env_min[0]
        assert ts.env_max[-1] - ts.env_min[-1] >= 0.1 * width0

    def test_consensus_start_stays_at_consensus(self, ring4_loops):
        # a consensus state has zero deviation at every subsequent step
        x0 = np.full(4, 0.75)
        for model in (
            ModelParams.degroot(),
            ModelParams.accelerated(1.2),
            ModelParams.mla(0.5),
        ):
            traj = simulate_trajectory(ring4_loops, model, x0, 30)
            dev = traj - traj.mean(axis=1, keepdims=True)
            assert np.max(np.abs(dev)) <= 1e-14

    def test_envelope_decay_matches_spectral_rate(self, ring4_loops):
        spec = eigendecompose_symmetric(ring4_loops)
        gamma = 0.5
        rho = rho_ess_mla(spec, gamma)
        cfg = SimConfig(model=ModelParams.mla(gamma), steps=60, runs=20, seed=3)
        ts = run_batch(ring4_loops, cfg)
        width = ts.env_max - ts.env_min
        ks = np.array(
            [k for k in range(61) if k >= 6 and width[k] >= 1e-13]
        )
        slope = np.polyfit(ks, np.log(width[ks]), 1)[0]
        assert slope <= np.log(rho) + 0.05

    def test_csv_round_trip(self, ring4_loops, tmp_path):
        cfg = SimConfig(model=ModelParams.mla(0.5), steps=12, runs=4, seed=5)
        ts = run_batch(ring4_loops, cfg)
        path = tmp_path / "trace.csv"
        ts.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,env_min,env_max"
        assert len(lines) == 14
        for k, line in enumerate(lines[1:]):
            sk, lo, hi = line.split(",")
            assert int(sk) == k
            assert float(lo) == ts.env_min[k]
            assert float(hi) == ts.env_max[k]

    def test_csv_matches_row_loop(self, tmp_path):
        ring = make_ring(8, 0.0)
        batches = [
            run_batch(ring, SimConfig(model=m, steps=40, runs=5, seed=3))
            for m in MODELS
        ]
        odd = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5e-320, 1 / 3])
        batches.append(TraceSummary(odd, -odd, odd))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        for ts in batches:
            ts.write_csv(got)
            ref.write_csv(ts, want)
            assert got.read_bytes() == want.read_bytes()


class TestDivergentBatch:
    """A batch that overflows raises instead of returning a truncated envelope."""

    def test_stops_at_the_first_nonfinite_step(self):
        A = make_ring(8, 0.0)
        cfg = SimConfig(model=ModelParams.mla(3.0), steps=3000, runs=20, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConvergent) as info:
                run_batch(A, cfg)
        m = re.fullmatch(r"the states overflow at step (\d+) of 3000", str(info.value))
        assert m is not None
        k = int(m[1])
        assert 1 < k < 3000
        # one step shorter, the batch is finite
        short = run_batch(A, SimConfig(model=cfg.model, steps=k - 1, runs=20, seed=3))
        assert short.env_max.size == short.env_min.size == k
        assert np.isfinite(short.env_max).all() and np.isfinite(short.env_min).all()
        assert np.isfinite(short.final_max_abs_deviation).all()

    def test_convergent_batch_has_no_nonfinite_step(self, ring4_loops):
        cfg = SimConfig(model=ModelParams.mla(0.5), steps=50, runs=5, seed=1)
        ts = run_batch(ring4_loops, cfg)
        assert ts.env_max.size == ts.env_min.size == 51
        assert np.isfinite(ts.env_max).all() and np.isfinite(ts.env_min).all()


class TestDivergentTrajectory:
    """A trajectory that overflows raises instead of returning NaN states."""

    ARGS = (make_ring(4, 0.1), ModelParams.mla(3.0), [0.1, 0.9, 0.3, 0.5])

    @pytest.fixture(scope="class")
    def first_nonfinite(self):
        with np.errstate(over="ignore", invalid="ignore"):
            traj = ref.simulate_trajectory(*self.ARGS, 3000)
        return int(np.argmin(np.isfinite(traj).all(axis=1)))

    @pytest.mark.parametrize("run", [simulate_trajectory, fit_rate])
    def test_raises_at_the_first_nonfinite_state(self, run, first_nonfinite):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConvergent) as info:
                run(*self.ARGS, 3000)
        assert str(info.value) == f"the states overflow at step {first_nonfinite}"

    def test_fit_raises_when_the_distance_overflows(self, first_nonfinite):
        # finite states above about 1e154 overflow the 2-norm of their distance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConvergent, match="distance to consensus overflows"):
                fit_rate(*self.ARGS, first_nonfinite - 1)


MODELS = (ModelParams.degroot(), ModelParams.accelerated(1.2), ModelParams.mla(0.5))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAgainstLoopReference:
    """The shared update kernel reproduces the per-model loops bit for bit."""

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_batch_and_trajectory(self, n):
        A = make_ring(n, 0.1)
        x0 = np.random.default_rng(n).uniform(size=n)
        for model in MODELS:
            cfg = SimConfig(model=model, steps=60, runs=25, seed=n)
            self.assert_same_summary(run_batch(A, cfg), ref.run_batch(A, cfg))
            assert same_bits(
                simulate_trajectory(A, model, x0, 60),
                ref.simulate_trajectory(A, model, x0, 60),
            )

    def test_random_networks(self):
        for seed in range(6):
            A = random_symmetric_stochastic(5 + 7 * seed, 40 + seed)
            x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, A.n)
            for model in MODELS + (ModelParams.accelerated(0.7), ModelParams.mla(1.3)):
                cfg = SimConfig(model=model, steps=40, runs=9, seed=seed)
                self.assert_same_summary(run_batch(A, cfg), ref.run_batch(A, cfg))
                assert same_bits(
                    simulate_trajectory(A, model, x0, 40),
                    ref.simulate_trajectory(A, model, x0, 40),
                )

    def test_divergent_batch(self):
        # both raise at the same step, and one step shorter agree bit for bit
        A = make_ring(8, 0.0)
        cfg = SimConfig(model=ModelParams.mla(3.0), steps=3000, runs=20, seed=3)
        with pytest.raises(NotConvergent) as want:
            ref.run_batch(A, cfg)
        with pytest.raises(NotConvergent) as got:
            run_batch(A, cfg)
        assert str(got.value) == str(want.value)
        k = int(re.search(r"step (\d+)", str(want.value))[1])
        short = SimConfig(model=cfg.model, steps=k - 1, runs=20, seed=3)
        self.assert_same_summary(run_batch(A, short), ref.run_batch(A, short))

    def test_one_product_per_step(self):
        # MLA reuses the previous step's product instead of taking a second
        class Counting(np.ndarray):
            products = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    Counting.products += 1
                inputs = [np.asarray(x) for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        # a checked network keeps its own array: the counting view is set
        # on it after construction
        A = make_ring(6, 0.1)
        object.__setattr__(A, "weights", A.weights.view(Counting))
        for model in MODELS:
            Counting.products = 0
            run_batch(A, SimConfig(model=model, steps=30, runs=4, seed=1))
            assert Counting.products == 30
            Counting.products = 0
            simulate_trajectory(A, model, np.arange(6.0), 30)
            assert Counting.products == 30

    @staticmethod
    def assert_same_summary(got, want):
        assert same_bits(got.env_max, want.env_max)
        assert same_bits(got.env_min, want.env_min)
        assert same_bits(got.final_max_abs_deviation, want.final_max_abs_deviation)


class TestSimulatedConsensus:
    def test_runs_settle_at_the_predicted_value(self):
        rng = np.random.Generator(np.random.Philox(key=77))
        for seed in range(8):
            A = random_symmetric_stochastic(3 + seed % 5, seed + 900)
            spec = eigendecompose_symmetric(A)
            gamma = 0.8
            if not check_mla_convergence(spec, gamma).converges:
                continue
            x0 = rng.uniform(-1.0, 1.0, A.n)
            want = consensus_value(A, spec, x0)
            traj = simulate_trajectory(A, ModelParams.mla(gamma), x0, 400)
            assert np.max(np.abs(traj[-1] - want)) <= 1e-8


class TestExactDistance:
    """The simulated distance to consensus against ||p_k(Lambda) V^T e(0)||,
    the exact sequence read off the solved spectrum."""

    @pytest.mark.parametrize(
        "A",
        [make_ring(16, 0.1), make_ring(8), random_symmetric_stochastic(64, 2)],
        ids=["ring16_loops", "ring8", "random64"],
    )
    def test_trajectory_follows_the_spectrum(self, A):
        spec = eigendecompose_symmetric(A)
        x0 = np.random.default_rng(A.n).uniform(0.0, 1.0, A.n)
        steps = 200
        # the solve's residual and each step's rounding are within
        # certificate_bound(n) of ||e(0)||; with no repeated root on the
        # unit circle they add up at most linearly in k
        k = np.arange(steps + 1)
        bound = certificate_bound(A.n) * (k + 1) * np.linalg.norm(x0 - x0.mean())
        for model in (
            ModelParams.degroot(),
            ModelParams.accelerated(1.3),
            ModelParams.mla(0.9),
        ):
            want = ref.distance_sequence(spec, model, x0, steps)
            traj = simulate_trajectory(A, model, x0, steps)
            got = np.linalg.norm(traj - x0.mean(), axis=1)
            assert np.all(np.abs(got - want) <= bound), model


class TestBatchEnvelopeBound:
    """Every run's deviation from its mean is at most g_k ||e_r(0)||, where
    g_k = max over i >= 2 of |p_k(lambda_i)| (`ref.error_gain`), plus the
    rounding of the solve and of k steps."""

    @pytest.mark.parametrize("steps, runs", [(2000, 100), (200, 2000)])
    @pytest.mark.parametrize(
        "A",
        [make_ring(8), make_ring(16, 0.1), random_symmetric_stochastic(16, 5)],
        ids=["ring8", "ring16_loops", "random16"],
    )
    def test_envelope_within_the_spectral_gain(self, A, steps, runs):
        spec = eigendecompose_symmetric(A)
        seed = 11
        E = max(
            np.linalg.norm(x - x.mean())
            for x in (sim._initial_state(seed, r, A.n) for r in range(runs))
        )
        k = np.arange(steps + 1)
        rounding = certificate_bound(A.n) * (k + 1) * E
        # the paper's periodic case is MLA on the pure even ring
        for model in (
            ModelParams.degroot(),
            ModelParams.accelerated(1.2),
            ModelParams.mla(0.5),
        ):
            summary = run_batch(A, SimConfig(model, steps, runs, seed))
            spread = np.maximum(summary.env_max, -summary.env_min)
            bound = ref.error_gain(spec, model, steps) * E + rounding
            assert np.all(spread <= bound), model


class TestFitRate:
    def test_mla_rate_at_optimum_within_five_percent(self, ring4_loops):
        spec = eigendecompose_symmetric(ring4_loops)
        gs = optimal_gamma(spec)
        x0 = np.random.Generator(np.random.Philox(key=12345)).uniform(0.0, 1.0, 4)
        fit = fit_rate(ring4_loops, ModelParams.mla(gs.gamma), x0, 180)
        assert abs(fit.fitted_rate - gs.rate) / gs.rate <= 0.05
        assert 0.0 < fit.fitted_rate <= 1.0
        assert 0.0 <= fit.r_squared <= 1.0

    def test_degroot_rate_within_five_percent(self, ring4_loops):
        spec = eigendecompose_symmetric(ring4_loops)
        rho = rho_ess(spec)
        x0 = np.random.Generator(np.random.Philox(key=12345)).uniform(0.0, 1.0, 4)
        fit = fit_rate(ring4_loops, ModelParams.degroot(), x0, 100)
        assert abs(fit.fitted_rate - rho) / rho <= 0.05
        assert fit.r_squared >= 0.999

    def test_consensus_start_has_no_data(self, ring4_loops):
        with pytest.raises(InsufficientData):
            fit_rate(ring4_loops, ModelParams.mla(0.5), np.ones(4), 100)

    def test_rejects_asymmetric_matrix(self):
        # row-stochastic but not doubly stochastic: the mean is not conserved,
        # so a fit towards it would report a rate near 1 with r^2 near 0
        A = validate([[0.2, 0.8, 0.0], [0.3, 0.4, 0.3], [0.0, 0.6, 0.4]])
        with pytest.raises(AssumptionViolated) as info:
            fit_rate(A, ModelParams.degroot(), [0.2, 0.7, 0.4], 100)
        # the one symmetry check, shared with the eigensolver
        assert isinstance(info.value, NotSymmetric)
        assert str(info.value) == "matrix is asymmetric by 5.000e-01"

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e10])
    def test_floor_scales_with_the_states(self, ring4_loops, scale):
        # an absolute floor kept rounding noise of large states in the window
        spec = eigendecompose_symmetric(ring4_loops)
        gs = optimal_gamma(spec)
        x0 = np.random.Generator(np.random.Philox(key=12345)).uniform(0.0, 1.0, 4)
        model = ModelParams.mla(gs.gamma)
        want = fit_rate(ring4_loops, model, x0, 180)
        got = fit_rate(ring4_loops, model, scale * x0, 180)
        assert got.window == want.window
        assert abs(got.fitted_rate - gs.rate) / gs.rate <= 0.05

    def test_offset_states_have_no_data(self, ring4_loops):
        # a spread of 1 around 1e6 sinks below its rounding floor at once
        gs = optimal_gamma(eigendecompose_symmetric(ring4_loops))
        x0 = np.random.Generator(np.random.Philox(key=12345)).uniform(0.0, 1.0, 4)
        with pytest.raises(InsufficientData):
            fit_rate(ring4_loops, ModelParams.mla(gs.gamma), 1e6 + x0, 180)

    def test_window_respects_skip_and_floor(self, ring4_loops):
        x0 = np.random.Generator(np.random.Philox(key=4)).uniform(0.0, 1.0, 4)
        fit = fit_rate(ring4_loops, ModelParams.degroot(), x0, 100)
        assert fit.window[0] >= 10
        assert fit.window[1] <= 100


class TestFitAboveThePlateau:
    """A random network's rows sum to 1 only within 1e-13, so its states
    settle about 1e-13 off the initial mean, just above the norm floor.
    The window stops above that plateau: a fit reads the decay, within 5%
    of the model's rate, or there are too few points to fit."""

    @pytest.mark.parametrize(
        "n, seed, model, usable",
        [
            (40, 0, ModelParams.degroot(), None),
            (128, 3, ModelParams.degroot(), 5),
            (256, 1, ModelParams.degroot(), 2),
            (256, 1, ModelParams.mla(0.9), 5),
            (40, 0, ModelParams.accelerated(1.2), None),
            (128, 0, ModelParams.accelerated(1.2), None),
        ],
    )
    def test_the_default_run(self, n, seed, model, usable):
        # the seed-0 start of `simulate`'s 100 steps; the plateau read
        # 0.9025, 0.9654, 0.9834 and 0.9665 for the first four rows
        A = random_symmetric_stochastic(n, seed)
        x0 = sim._initial_state(0, 0, n)
        rate = model_rate(eigendecompose_symmetric(A), model)
        if usable is None:
            fit = fit_rate(A, model, x0, 100)
            assert abs(fit.fitted_rate - rate) / rate <= 0.05
            assert fit.r_squared >= 0.999
        else:
            with pytest.raises(InsufficientData, match=f"^{usable} usable points"):
                fit_rate(A, model, x0, 100)

    def test_a_network_with_exact_row_sums_keeps_the_norm_floor(self):
        # the same network with its rows made to sum to 1 exactly decays
        # to rounding and fits down to 1e-13
        W = random_symmetric_stochastic(40, 0).weights.copy()
        W[np.diag_indices(40)] += 1.0 - W.sum(axis=1)
        A = validate(W)
        assert np.abs(A.weights.sum(axis=1) - 1.0).max() <= 2.3e-16
        fit = fit_rate(A, ModelParams.degroot(), sim._initial_state(0, 0, 40), 100)
        assert fit.window[1] >= 25

    @pytest.fixture(scope="class")
    def bridged_blocks(self):
        # two random 20-node blocks joined by a 0.002 bridge taken from the
        # self-loops of nodes 19 and 20: gap 2.0e-4, below the 0.01 the
        # row-sum floor covers
        W = np.zeros((40, 40))
        W[:20, :20] = random_symmetric_stochastic(20, 1).weights
        W[20:, 20:] = random_symmetric_stochastic(20, 2).weights
        W[19, 19] -= 0.002
        W[20, 20] -= 0.002
        W[19, 20] = W[20, 19] = 0.002
        return validate(W)

    @pytest.mark.parametrize("steps", [4000, 8000, 12000])
    def test_the_window_ends_at_the_least_distance(self, bridged_blocks, steps):
        # the distance settles at 7.7e-12, above the floor, and then drifts
        # up: a window to the last step read 0.99928 (r^2 0.65) at 8,000
        # steps and 1.00008 at 12,000, against beta*'s rate 0.98024
        beta = optimal_beta(eigendecompose_symmetric(bridged_blocks))
        x0 = sim._initial_state(0, 0, 40)
        fit = fit_rate(bridged_blocks, ModelParams.accelerated(beta.beta), x0, steps)
        assert abs(fit.fitted_rate - beta.rate) / beta.rate <= 2e-3
        assert fit.r_squared >= 0.99
        assert fit.window[1] < 1500  # the least distance, near step 1,285


class TestStateInputs:
    """A state of the wrong shape, a non-finite state or a negative horizon
    is rejected by name rather than by a raw numpy error."""

    @pytest.fixture(scope="class")
    def ring6(self):
        return make_ring(6, 0.1)

    @pytest.mark.parametrize("x0", [np.ones(5), np.ones(7), np.ones((6, 2)), 1.0])
    def test_wrong_shape(self, ring6, x0):
        model = ModelParams.mla(0.5)
        with pytest.raises(DimensionMismatch):
            simulate_trajectory(ring6, model, x0, 10)
        with pytest.raises(DimensionMismatch):
            fit_rate(ring6, model, x0, 100)
        with pytest.raises(DimensionMismatch):
            consensus_value(ring6, eigendecompose_symmetric(ring6), x0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state(self, ring6, bad):
        x0 = np.arange(6.0)
        x0[2] = bad
        with pytest.raises(BadParameter):
            simulate_trajectory(ring6, ModelParams.degroot(), x0, 10)
        with pytest.raises(BadParameter):
            fit_rate(ring6, ModelParams.degroot(), x0, 100)
        with pytest.raises(BadParameter):
            consensus_value(ring6, eigendecompose_symmetric(ring6), x0)

    def test_negative_steps(self, ring6):
        with pytest.raises(BadParameter):
            simulate_trajectory(ring6, ModelParams.degroot(), np.ones(6), -1)
        with pytest.raises(BadParameter):
            fit_rate(ring6, ModelParams.degroot(), np.arange(6.0), -1)

    @pytest.mark.parametrize("bad", [2.5, 50.0, np.float64(50.0)])
    def test_non_integral_steps(self, ring6, bad):
        with pytest.raises(BadParameter, match="steps"):
            simulate_trajectory(ring6, ModelParams.degroot(), np.ones(6), bad)

    @pytest.mark.parametrize("bad", [50.5, 50.0])
    def test_non_integral_fit_steps(self, ring6, bad):
        with pytest.raises(BadParameter, match="steps"):
            fit_rate(ring6, ModelParams.degroot(), np.arange(6.0), bad)

    def test_numpy_integer_steps(self, ring6):
        x0 = np.arange(6.0)
        got = simulate_trajectory(ring6, ModelParams.mla(0.5), x0, np.int64(12))
        want = simulate_trajectory(ring6, ModelParams.mla(0.5), x0, 12)
        assert np.array_equal(got, want)

    def test_zero_steps_is_the_initial_state(self, ring6):
        x0 = np.arange(6.0)
        traj = simulate_trajectory(ring6, ModelParams.mla(0.5), list(x0), 0)
        assert traj.shape == (1, 6) and np.array_equal(traj[0], x0)


class TestRandomNetworkGenerator:
    def test_valid_irreducible_and_deterministic(self):
        for seed in range(20):
            A = random_symmetric_stochastic(3 + seed % 6, seed)
            rep = analyze_structure(A)
            assert rep.symmetric and rep.irreducible
            B = random_symmetric_stochastic(A.n, seed)
            assert np.array_equal(A.weights, B.weights)

    def test_row_sums_within_validator_tolerance(self):
        for seed in range(20):
            A = random_symmetric_stochastic(5, seed + 100)
            assert np.max(np.abs(A.weights.sum(axis=1) - 1.0)) <= 1e-12

    def test_dominant_eigenvalue_is_one_across_seeds(self):
        for seed in range(100):
            spec = eigendecompose_symmetric(random_symmetric_stochastic(4, seed))
            assert abs(spec.eigenvalues[0] - 1.0) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 17, 33, 64])
    def test_bulk_draw_matches_the_loop(self, n):
        for seed in (0, 1, 2, 7, -1, 2**40):
            got = random_symmetric_stochastic(n, seed).weights
            want = ref.random_symmetric_stochastic(n, seed).weights
            assert got.tobytes() == want.tobytes()

    def test_rejects_tiny_n(self):
        with pytest.raises(BadParameter):
            random_symmetric_stochastic(1, 0)

    def test_a_stalled_scaling_raises_normalization_failed(self, monkeypatch):
        # one sweep leaves the drawn rows far from summing to 1
        monkeypatch.setattr(sim, "_SCALING_SWEEPS", 1)
        with pytest.raises(NormalizationFailed) as ei:
            random_symmetric_stochastic(8, 0)
        residual = ei.value.residual
        assert residual > sim._SCALING_TOL
        assert str(ei.value) == f"row-sum residual {residual:.3e} at iteration cap"


class TestFitWithoutDecay:
    @pytest.mark.parametrize(
        "model", [ModelParams.degroot(), ModelParams.accelerated(1.2), ModelParams.mla(0.5)]
    )
    def test_a_distance_that_barely_moves_has_no_rate(self, model):
        x0 = [0.1, 0.9, 0.3, 0.5, 0.7, 0.2]
        with pytest.raises(InsufficientData, match="no decay to fit$"):
            fit_rate(bridged_cliques(), model, x0, 60)

    def test_a_wider_bridge_decays_enough(self):
        # radius 0.9934: the distance falls by about 0.36 in log over the window
        A = bridged_cliques(0.01)
        fit = fit_rate(A, ModelParams.degroot(), [0.1, 0.9, 0.3, 0.5, 0.7, 0.2], 60)
        assert fit.window == (6, 60)
        assert fit.fitted_rate == pytest.approx(rho_ess(eigendecompose_symmetric(A)), rel=1e-9)


class TestFitReadsTheModelRate:
    """A fit asks `model_rate` once whether the run has a rate, after the
    trajectory's checks, and carries the rate it is compared with."""

    @pytest.mark.parametrize(
        "A, model",
        [
            # without the verdict these fit 0.99953 (r^2 0.171) and 0.99900
            # (r^2 0.161), rates of runs that never settle
            (make_ring(10, 0.0), ModelParams.degroot()),
            (make_ring(12, 0.0), ModelParams.accelerated(1.2)),
            (make_ring(8, 0.0), ModelParams.mla(1.5)),
        ],
        ids=["degroot-ring10", "accelerated-ring12", "mla-ring8"],
    )
    def test_a_run_that_never_settles_has_no_rate(self, A, model):
        with pytest.raises(NotConvergent) as want:
            model_rate(eigendecompose_symmetric(A), model)
        with pytest.raises(NotConvergent) as got:
            fit_rate(A, model, sim._initial_state(0, 0, A.n), 100)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("model", [ModelParams.degroot(), ModelParams.mla(0.5)])
    def test_a_reducible_network_has_no_rate(self, model):
        # two 3-cliques settle on two values, not one
        A = validate(np.kron(np.eye(2), np.full((3, 3), 1.0 / 3.0)))
        with pytest.raises(DominantNotSimple):
            fit_rate(A, model, sim._initial_state(0, 0, 6), 100)

    @pytest.mark.parametrize(
        "model",
        [ModelParams.degroot(), ModelParams.accelerated(1.2), ModelParams.mla(0.5)],
    )
    @pytest.mark.parametrize("A", [make_ring(4, 0.1), random_symmetric_stochastic(40, 0)])
    def test_the_fit_carries_the_model_rate(self, A, model):
        fit = fit_rate(A, model, sim._initial_state(0, 0, A.n), 100)
        want = model_rate(eigendecompose_symmetric(A), model)
        assert fit.model_rate.hex() == want.hex()

    def test_one_verdict_after_the_trajectory(self, monkeypatch, ring4_loops):
        calls = []

        def counted(*args):
            calls.append(args)
            return model_rate(*args)

        monkeypatch.setattr(sim, "model_rate", counted)
        fit_rate(ring4_loops, ModelParams.degroot(), np.arange(4.0), 100)
        assert len(calls) == 1
        with pytest.raises(DimensionMismatch):
            fit_rate(ring4_loops, ModelParams.degroot(), [0.5], 100)
        assert len(calls) == 1
