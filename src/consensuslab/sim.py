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

from dataclasses import dataclass

import numpy as np

from .dynamics import ModelKind, ModelParams
from .errors import BadParameter, InsufficientData, NormalizationFailed
from .net import WeightedAdjacency, require_symmetric, validate

_MASK64 = (1 << 64) - 1

# fit window: drop the leading transient and anything at the float floor
FIT_SKIP_FRACTION = 0.1
FIT_NORM_FLOOR = 1e-13
FIT_MIN_POINTS = 10


def _substream(seed: int, run: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed ^ run) & _MASK64))


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Batch description: model, horizon, run count, seed, initial range."""

    model: ModelParams
    steps: int
    runs: int
    seed: int
    init_low: float = 0.0
    init_high: float = 1.0

    def __post_init__(self):
        if self.steps < 1:
            raise BadParameter(f"steps must be >= 1, got {self.steps}")
        if self.runs < 1:
            raise BadParameter(f"runs must be >= 1, got {self.runs}")
        if not self.init_low < self.init_high:
            raise BadParameter(
                f"need init_low < init_high, got [{self.init_low}, {self.init_high}]"
            )


@dataclass(frozen=True, eq=False)
class TraceSummary:
    """Per-step envelope over a batch plus each run's final spread.

    env_max[k] / env_min[k] bound the deviation from the per-run agent
    mean over all runs and agents at step k (k = 0 is the initial state).
    """

    env_max: np.ndarray
    env_min: np.ndarray
    final_max_abs_deviation: np.ndarray

    def write_csv(self, path) -> None:
        """Write `k,env_min,env_max` rows, one per step including k = 0."""
        with open(path, "w") as fh:
            fh.write("k,env_min,env_max\n")
            for k in range(self.env_max.size):
                fh.write(
                    f"{k},{self.env_min[k]:.17g},{self.env_max[k]:.17g}\n"
                )


@dataclass(frozen=True)
class RateFit:
    """Least-squares geometric decay rate over a trajectory window."""

    fitted_rate: float
    r_squared: float
    window: tuple[int, int]


def run_batch(A: WeightedAdjacency, cfg: SimConfig) -> TraceSummary:
    """Simulate cfg.runs seeded trajectories and aggregate their envelope.

    Deterministic: identical (A, cfg) always produce bit-identical
    summaries. Initial states are uniform on [init_low, init_high); the
    memory models start from x(-1) = x(0).
    """
    n = A.n
    W = A.weights
    X0 = np.empty((cfg.runs, n))
    for i in range(cfg.runs):
        X0[i] = _substream(cfg.seed, i).uniform(cfg.init_low, cfg.init_high, n)

    env_max = np.empty(cfg.steps + 1)
    env_min = np.empty(cfg.steps + 1)

    def record(k: int, X: np.ndarray) -> None:
        D = X - X.mean(axis=1, keepdims=True)
        env_max[k] = D.max()
        env_min[k] = D.min()

    record(0, X0)
    kind, param = cfg.model.kind, cfg.model.param
    Xc = X0
    Xp = X0
    for k in range(1, cfg.steps + 1):
        if kind is ModelKind.DEGROOT:
            Xc = Xc @ W.T
        elif kind is ModelKind.ACCELERATED:
            Xc, Xp = param * (Xc @ W.T) + (1.0 - param) * Xp, Xc
        else:
            Xc, Xp = param * (Xc @ W.T) + (1.0 - param) * (Xp @ W.T), Xc
        record(k, Xc)

    D = Xc - Xc.mean(axis=1, keepdims=True)
    final_dev = np.abs(D).max(axis=1)
    for arr in (env_max, env_min, final_dev):
        arr.setflags(write=False)
    return TraceSummary(
        env_max=env_max, env_min=env_min, final_max_abs_deviation=final_dev
    )


def simulate_trajectory(
    A: WeightedAdjacency, model: ModelParams, x0, steps: int
) -> np.ndarray:
    """States x(0..steps) as rows, starting from x(-1) = x(0) = x0."""
    x0 = np.asarray(x0, dtype=float)
    W = A.weights
    out = np.empty((steps + 1, A.n))
    out[0] = x0
    kind, param = model.kind, model.param
    xc = x0
    xp = x0
    for k in range(1, steps + 1):
        if kind is ModelKind.DEGROOT:
            xc = W @ xc
        elif kind is ModelKind.ACCELERATED:
            xc, xp = param * (W @ xc) + (1.0 - param) * xp, xc
        else:
            xc, xp = param * (W @ xc) + (1.0 - param) * (W @ xp), xc
        out[k] = xc
    return out


def fit_rate(
    A: WeightedAdjacency, model: ModelParams, x0, steps: int
) -> RateFit:
    """Fit the geometric decay rate of the distance to consensus.

    Runs one trajectory, takes the 2-norm distance to the consensus state
    (the initial mean, which a symmetric weight matrix conserves), and
    regresses its log against the step index. The window drops the first
    10% of steps and every step whose norm sits below 1e-13, where
    rounding noise dominates. Raises AssumptionViolated on an asymmetric
    matrix, whose consensus value is not the initial mean, and
    InsufficientData with fewer than 10 usable points, e.g. when started
    at consensus.
    """
    require_symmetric(A, "rate fit")
    x0 = np.asarray(x0, dtype=float)
    traj = simulate_trajectory(A, model, x0, steps)
    x_inf = x0.mean()
    norms = np.linalg.norm(traj - x_inf, axis=1)
    k_start = int(np.ceil(FIT_SKIP_FRACTION * steps))
    ks = np.array(
        [k for k in range(steps + 1) if k >= k_start and norms[k] >= FIT_NORM_FLOOR]
    )
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
