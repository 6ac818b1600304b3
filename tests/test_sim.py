import warnings

import numpy as np
import pytest

import scalar_reference as ref
from consensuslab import (
    AssumptionViolated,
    BadParameter,
    DimensionMismatch,
    InsufficientData,
    ModelParams,
    NotConvergent,
    NotSymmetric,
    SimConfig,
    TraceSummary,
    WeightedAdjacency,
    analyze_structure,
    check_mla_convergence,
    consensus_value,
    eigendecompose_symmetric,
    fit_rate,
    make_ring,
    optimal_gamma,
    random_symmetric_stochastic,
    rho_ess,
    rho_ess_mla,
    run_batch,
    simulate_trajectory,
    validate,
)


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
        # each model, then an overflowing MLA run, truncated before its
        # first non-finite step
        configs = [(m, 40) for m in MODELS] + [(ModelParams.mla(3.0), 3000)]
        batches = [
            run_batch(ring, SimConfig(model=m, steps=steps, runs=5, seed=3))
            for m, steps in configs
        ]
        assert batches[-1].first_nonfinite_step is not None
        odd = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5e-320, 1 / 3])
        batches.append(TraceSummary(odd, -odd, odd))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        for ts in batches:
            ts.write_csv(got)
            ref.write_csv(ts, want)
            assert got.read_bytes() == want.read_bytes()


class TestDivergentBatch:
    def test_stops_at_the_first_nonfinite_step(self):
        A = make_ring(8, 0.0)
        cfg = SimConfig(model=ModelParams.mla(3.0), steps=3000, runs=20, seed=3)
        ts = run_batch(A, cfg)
        k = ts.first_nonfinite_step
        assert k is not None and 1 < k < 3000
        assert ts.env_max.size == ts.env_min.size == k
        assert np.all(np.isfinite(ts.env_max)) and np.all(np.isfinite(ts.env_min))
        assert np.all(np.isfinite(ts.final_max_abs_deviation))
        # the finite prefix is exactly the batch run for k - 1 steps
        short = run_batch(A, SimConfig(model=cfg.model, steps=k - 1, runs=20, seed=3))
        assert short.first_nonfinite_step is None
        assert np.array_equal(short.env_max, ts.env_max)
        assert np.array_equal(short.env_min, ts.env_min)
        assert np.array_equal(
            short.final_max_abs_deviation, ts.final_max_abs_deviation
        )

    def test_convergent_batch_has_no_nonfinite_step(self, ring4_loops):
        cfg = SimConfig(model=ModelParams.mla(0.5), steps=50, runs=5, seed=1)
        assert run_batch(ring4_loops, cfg).first_nonfinite_step is None


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
        cfg = SimConfig(model=ModelParams.mla(3.0), steps=3000, runs=20, seed=3)
        A = make_ring(8, 0.0)
        got = run_batch(A, cfg)
        assert got.first_nonfinite_step is not None
        self.assert_same_summary(got, ref.run_batch(A, cfg))

    def test_one_product_per_step(self):
        # MLA reuses the previous step's product instead of taking a second
        class Counting(np.ndarray):
            products = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    Counting.products += 1
                inputs = [np.asarray(x) for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        W = make_ring(6, 0.1).weights
        A = WeightedAdjacency(n=6, weights=W.view(Counting))
        for model in MODELS:
            Counting.products = 0
            run_batch(A, SimConfig(model=model, steps=30, runs=4, seed=1))
            assert Counting.products == 30
            Counting.products = 0
            simulate_trajectory(A, model, np.arange(6.0), 30)
            assert Counting.products == 30

    @staticmethod
    def assert_same_summary(got, want):
        assert got.first_nonfinite_step == want.first_nonfinite_step
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
