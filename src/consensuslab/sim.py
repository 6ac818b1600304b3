"""Seeded batch simulation, envelope statistics, and empirical rate fitting.

Randomness comes exclusively from numpy's Philox generator (counter-based
Philox 4x64 with 10 rounds, fixed published constants), so every batch is
reproducible from its integer seed alone. Run i of a batch draws from its
own substream keyed by seed XOR i, which makes results independent of run
execution order.

The envelope of a batch is, per step, the maximum and minimum deviation of
any agent in any run from that run's instantaneous agent mean. The
instantaneous mean (not the final consensus value) is used on purpose: it
is well-defined even for models that oscillate forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelParams, _check_vector, _states
from .errors import BadParameter, InsufficientData, NormalizationFailed
from .net import WeightedAdjacency, require_symmetric, validate

_MASK64 = (1 << 64) - 1

# fit window: drop the leading transient and anything at the float floor
FIT_SKIP_FRACTION = 0.1
FIT_NORM_FLOOR = 1e-13
FIT_MIN_POINTS = 10


def _substream(seed: int, run: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed ^ run) & _MASK64))


def _initial_state(seed: int, run: int, n: int) -> np.ndarray:
    """Run `run`'s initial state: n draws uniform on [0, 1) from its substream."""
    return _substream(seed, run).uniform(0.0, 1.0, n)


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Batch description: model, horizon, run count, seed."""

    model: ModelParams
    steps: int
    runs: int
    seed: int

    def __post_init__(self):
        if self.steps < 1:
            raise BadParameter(f"steps must be >= 1, got {self.steps}")
        if self.runs < 1:
            raise BadParameter(f"runs must be >= 1, got {self.runs}")


@dataclass(frozen=True, eq=False)
class TraceSummary:
    """Per-step envelope over a batch plus each run's final spread.

    env_max[k] / env_min[k] bound the deviation from the per-run agent
    mean over all runs and agents at step k (k = 0 is the initial state).
    When the states overflow, first_nonfinite_step is the first step whose
    envelope is not finite; the arrays then stop just before it and the
    final spread is that of the last finite step.
    """

    env_max: np.ndarray
    env_min: np.ndarray
    final_max_abs_deviation: np.ndarray
    first_nonfinite_step: int | None = None

    def write_csv(self, path) -> None:
        """Write `k,env_min,env_max` rows, one per step including k = 0."""
        columns = (np.arange(self.env_max.size), self.env_min, self.env_max)
        with open(path, "w") as fh:
            fh.write("k,env_min,env_max\n")
            np.savetxt(fh, np.column_stack(columns), "%d,%.17g,%.17g")


@dataclass(frozen=True)
class RateFit:
    """Least-squares geometric decay rate over a trajectory window."""

    fitted_rate: float
    r_squared: float
    window: tuple[int, int]


def run_batch(A: WeightedAdjacency, cfg: SimConfig) -> TraceSummary:
    """Simulate cfg.runs seeded trajectories and aggregate their envelope.

    Deterministic: identical (A, cfg) always produce bit-identical
    summaries. Initial states are uniform on [0, 1); the memory models
    start from x(-1) = x(0). A divergent model stops at the first step
    whose envelope is not finite (see TraceSummary), without raising
    floating-point warnings.
    """
    X0 = np.array([_initial_state(cfg.seed, i, A.n) for i in range(cfg.runs)])

    env_max = np.empty(cfg.steps + 1)
    env_min = np.empty(cfg.steps + 1)

    def record(k: int, X: np.ndarray) -> bool:
        D = X - X.mean(axis=1, keepdims=True)
        env_max[k] = D.max()
        env_min[k] = D.min()
        return math.isfinite(env_max[k]) and math.isfinite(env_min[k])

    record(0, X0)
    X = X0
    first_nonfinite = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k, X_next in zip(range(1, cfg.steps + 1), _states(A, cfg.model, X0)):
            if not record(k, X_next):
                first_nonfinite = k
                env_max, env_min = env_max[:k], env_min[:k]
                break
            X = X_next

    D = X - X.mean(axis=1, keepdims=True)
    final_dev = np.abs(D).max(axis=1)
    for arr in (env_max, env_min, final_dev):
        arr.setflags(write=False)
    return TraceSummary(
        env_max=env_max,
        env_min=env_min,
        final_max_abs_deviation=final_dev,
        first_nonfinite_step=first_nonfinite,
    )


def simulate_trajectory(
    A: WeightedAdjacency, model: ModelParams, x0, steps: int
) -> np.ndarray:
    """States x(0..steps) as rows from x(-1) = x(0) = x0: a batch of one run.

    Raises DimensionMismatch unless x0 has n entries, BadParameter when
    one is not finite or steps is negative.
    """
    x0 = _check_vector(A, x0, "x0")
    if steps < 0:
        raise BadParameter(f"steps must be >= 0, got {steps}")
    out = np.empty((steps + 1, A.n))
    out[0] = x0
    for k, X in zip(range(1, steps + 1), _states(A, model, x0[None])):
        out[k] = X[0]
    return out


def fit_rate(
    A: WeightedAdjacency, model: ModelParams, x0, steps: int
) -> RateFit:
    """Fit the geometric decay rate of the distance to consensus.

    Runs one trajectory, takes the 2-norm distance to the consensus state
    (the initial mean, which a symmetric weight matrix conserves), and
    regresses its log against the step index. The window drops the first
    10% of steps and every step whose norm sits below 1e-13, where
    rounding noise dominates. Raises NotSymmetric on an asymmetric
    matrix, whose consensus value is not the initial mean, the
    `simulate_trajectory` errors on x0 and steps, and InsufficientData
    with fewer than 10 usable points, e.g. when started at consensus.
    """
    require_symmetric(A)
    traj = simulate_trajectory(A, model, x0, steps)
    x_inf = traj[0].mean()
    norms = np.linalg.norm(traj - x_inf, axis=1)
    k_start = int(np.ceil(FIT_SKIP_FRACTION * steps))
    usable = norms >= FIT_NORM_FLOOR
    usable[:k_start] = False
    ks = np.flatnonzero(usable)
    if ks.size < FIT_MIN_POINTS:
        raise InsufficientData(
            f"{ks.size} usable points in the fit window, need {FIT_MIN_POINTS}"
        )
    y = np.log(norms[ks])
    slope, intercept = np.polyfit(ks, y, 1)
    resid = y - (slope * ks + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(
        fitted_rate=float(np.exp(slope)),
        r_squared=r_squared,
        window=(int(ks[0]), int(ks[-1])),
    )


def random_symmetric_stochastic(n: int, seed: int) -> WeightedAdjacency:
    """Random symmetric row-stochastic irreducible test network.

    Draws a symmetric non-negative matrix with a strictly positive ring
    backbone (irreducibility) and a strictly positive diagonal (which
    guarantees the scaling below terminates), then rescales symmetrically
    until every row sums to 1. Deterministic per seed.
    """
    if n < 2:
        raise BadParameter(f"need n >= 2, got {n}")
    rng = _substream(seed, 0)
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < 0.6:
                v = rng.uniform(0.05, 1.0)
                M[i, j] = v
                M[j, i] = v
    M[np.diag_indices(n)] = rng.uniform(0.05, 0.6, n)
    for i in range(n):
        j = (i + 1) % n
        M[i, j] += 0.5
        M[j, i] += 0.5

    residual = np.inf
    for _ in range(10_000):
        r = M.sum(axis=1)
        residual = float(np.max(np.abs(r - 1.0)))
        if residual <= 1e-13:
            return validate(M)
        # dividing by the symmetric outer product keeps M exactly symmetric
        M = M / np.sqrt(np.outer(r, r))
    raise NormalizationFailed(residual)
