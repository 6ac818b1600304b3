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
from itertools import islice

import numpy as np

from .analysis import model_rate
from .dynamics import ModelParams, _check_vector, _mean, _states
from .errors import InsufficientData, NormalizationFailed, NotConvergent
from .net import (
    ROW_SUM_TOL,
    WeightedAdjacency,
    _check_int,
    _check_type,
    _new_array,
    _open,
    validate,
)
from .spectral import eigendecompose_symmetric

_MASK64 = (1 << 64) - 1
# random_symmetric_stochastic scales until every row sums to 1 within a
# tenth of validate's ROW_SUM_TOL, so the result always passes it; the
# scaling converged within 516 sweeps on every network tried (30 seeds
# at each n of 2, 3, 4, 8, 16 and 64, 4 at n = 256), and the cap, about
# twenty times that, only turns a stall into NormalizationFailed
_SCALING_TOL = ROW_SUM_TOL / 10  # 1e-13
_SCALING_SWEEPS = 10_000

# fit window: drop the leading transient, anything at the float floor
# (the norm floor is scaled by max(1, max|x0|) in fit_rate) and the steps
# after the least distance
FIT_SKIP_FRACTION = 0.1
FIT_NORM_FLOOR = 1e-13
FIT_MIN_POINTS = 10
# a log distance at the norm floor may err by about eps / FIT_NORM_FLOOR =
# 2.2e-3, as the states round relative to max(1, max|x0|): a fitted line
# whose log distance moves less than that over the window may be rounding
# alone, and its slope no rate
_FIT_MIN_CHANGE = float(np.finfo(float).eps) / FIT_NORM_FLOOR
# rows summing to 1 only within e = A 1 - 1 move the limit off the initial
# mean by up to about |mean x0| ||e||_2 / (1 - lambda_2), where the states
# plateau: 100 ||e||_2 stays above that for a spectral gap over about 0.01
_FIT_ROW_SUM_FACTOR = 100.0


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
        _check_type(self.model, ModelParams, "model")
        _check_int(self.steps, "steps", 1)
        _check_int(self.runs, "runs", 1)
        # kept as a Python int: an np.int64 seed overflows the key's mask
        object.__setattr__(self, "seed", _check_int(self.seed, "seed"))


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
        columns = (np.arange(self.env_max.size), self.env_min, self.env_max)
        with _open(path, "w") as fh:
            fh.write("k,env_min,env_max\n")
            np.savetxt(fh, np.column_stack(columns), "%d,%.17g,%.17g")


@dataclass(frozen=True)
class RateFit:
    """Least-squares geometric decay rate over a window, and its `model_rate`."""

    fitted_rate: float
    r_squared: float
    window: tuple[int, int]
    model_rate: float


def run_batch(A: WeightedAdjacency, cfg: SimConfig) -> TraceSummary:
    """Simulate cfg.runs seeded trajectories and aggregate their envelope.

    Deterministic: identical (A, cfg) always produce bit-identical
    summaries. Initial states are uniform on [0, 1); the memory models
    start from x(-1) = x(0). Raises NotConvergent at the first step whose
    envelope is not finite, without floating-point warnings.
    """
    _check_type(A, WeightedAdjacency, "network")
    _check_type(cfg, SimConfig, "cfg")
    X0 = np.array([_initial_state(cfg.seed, i, A.n) for i in range(cfg.runs)])
    env_max, env_min = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, X in enumerate(islice(_states(A, cfg.model, X0), cfg.steps + 1)):
            D = X - X.mean(axis=1, keepdims=True)
            hi, lo = D.max(), D.min()
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise NotConvergent(f"the states overflow at step {k} of {cfg.steps}")
            env_max.append(hi)
            env_min.append(lo)

    arrays = np.array(env_max), np.array(env_min), np.abs(D).max(axis=1)
    for arr in arrays:
        arr.setflags(write=False)
    return TraceSummary(*arrays)


def simulate_trajectory(
    A: WeightedAdjacency, model: ModelParams, x0, steps: int
) -> np.ndarray:
    """States x(0..steps) as rows, stepped from x(-1) = x(0) = x0.

    Raises DimensionMismatch unless x0 has n entries, BadParameter when
    one is not finite or steps is not an integer >= 0, and NotConvergent
    at the first state that is not finite, without floating-point
    warnings.
    """
    _check_type(A, WeightedAdjacency, "network")
    _check_type(model, ModelParams, "model")
    x0 = _check_vector(A, x0, "x0")
    _check_int(steps, "steps", 0)
    out = _new_array(np.empty, (steps + 1, A.n), "steps", steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, X in enumerate(islice(_states(A, model, x0[None]), steps + 1)):
            out[k] = X[0]
    # one pass over all rows costs less than a check per step
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise NotConvergent(f"the states overflow at step {np.argmin(finite)}")
    return out


def fit_rate(
    A: WeightedAdjacency, model: ModelParams, x0, steps: int
) -> RateFit:
    """Fit the geometric decay rate of the distance to consensus.

    Runs one trajectory, takes the 2-norm distance to the consensus state
    (the initial mean, which a symmetric weight matrix conserves), and
    regresses its log against the step index. The window drops the first
    10% of steps and every step whose norm sits below 1e-13 times
    max(1, max|x0|), where rounding noise dominates: the states round
    relative to their size. The floor rises to 100 times the 2-norm of
    the row-sum error when that is larger, above the plateau where such a
    network's states settle off the initial mean. The window ends at the
    least distance after the skip, as a plateau may drift up over a long
    run. Raises the `simulate_trajectory` errors on x0 and steps and
    NotConvergent when the states or their distance to consensus
    overflow; then as `model_rate(eigendecompose_symmetric(A), model)`,
    the fit's `model_rate`, does: NotSymmetric, as an asymmetric matrix
    need not conserve the mean, and NotConvergent or DominantNotSimple
    where the run has no rate. Last, InsufficientData with fewer than 10
    usable points, e.g. when started at consensus, or when the fitted log
    distance moves by less than about 2.2e-3 over the window
    (`_FIT_MIN_CHANGE`), too little to tell a rate from 1.
    """
    traj = simulate_trajectory(A, model, x0, steps)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(traj - _mean(traj[0]), axis=1)
    if not np.isfinite(norms).all():
        k = np.argmin(np.isfinite(norms))
        raise NotConvergent(f"the distance to consensus overflows at step {k}")
    rate = model_rate(eigendecompose_symmetric(A), model)
    k_start = int(np.ceil(FIT_SKIP_FRACTION * steps))
    row_error = float(np.linalg.norm(A.weights.sum(axis=1) - 1.0))
    floor = max(FIT_NORM_FLOOR, _FIT_ROW_SUM_FACTOR * row_error)
    usable = norms >= floor * max(1.0, float(np.abs(traj[0]).max()))
    usable[:k_start] = False
    usable[k_start + int(np.argmin(norms[k_start:])) + 1 :] = False
    ks = np.flatnonzero(usable)
    if ks.size < FIT_MIN_POINTS:
        raise InsufficientData(
            f"{ks.size} usable points in the fit window, need {FIT_MIN_POINTS}"
        )
    y = np.log(norms[ks])
    slope, intercept = np.polyfit(ks, y, 1)
    window = (int(ks[0]), int(ks[-1]))
    if (change := abs(slope) * (window[1] - window[0])) < _FIT_MIN_CHANGE:
        raise InsufficientData(
            f"the fitted log distance moves by {change:.3g} over the window "
            f"{window[0]}..{window[1]}, below {_FIT_MIN_CHANGE:.2g}: no decay to fit"
        )
    resid = y - (slope * ks + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(float(np.exp(slope)), r_squared, window, rate)


def random_symmetric_stochastic(n: int, seed: int) -> WeightedAdjacency:
    """Random symmetric row-stochastic irreducible test network.

    Draws a symmetric non-negative matrix with a strictly positive ring
    backbone (irreducibility) and a strictly positive diagonal (which
    guarantees the scaling below terminates), then rescales symmetrically
    until every row sums to 1. Deterministic per seed.

    The stream is that of a loop over the pairs i < j in row order: a
    uniform u, then a weight on [0.05, 1) when u < 0.6, and after the
    pairs n diagonal weights on [0.05, 0.6). It is drawn in one call. A
    draw is a u unless the draw before it was a u below 0.6, so along a
    run of draws below 0.6 the roles alternate, starting with a u.
    """
    n = _check_int(n, "n", 2)
    rng = _substream(_check_int(seed, "seed"), 0)
    pairs = n * (n - 1) // 2
    d = _new_array(rng.random, 2 * pairs + n, "n", n)
    below = d < 0.6
    idx = np.arange(d.size)
    # the latest run start at or before each draw: index 0 and every draw
    # after one of 0.6 or more
    start = np.maximum.accumulate(np.where(np.r_[True, ~below[:-1]], idx, 0))
    u_at = np.flatnonzero((idx - start) % 2 == 0)[:pairs]
    kept = below[u_at]
    i, j = np.triu_indices(n, 1)
    M = np.zeros((n, n))
    # numpy's uniform(low, high) is low + (high - low) * random()
    M[i[kept], j[kept]] = 0.05 + (1.0 - 0.05) * d[u_at[kept] + 1]
    M = M + M.T
    diag = u_at[-1] + 1 + kept[-1]
    M[np.diag_indices(n)] = 0.05 + (0.6 - 0.05) * d[diag : diag + n]
    ring = np.arange(n)
    # two statements, so n = 2 adds 0.5 twice to each entry, as the loop did
    M[ring, (ring + 1) % n] += 0.5
    M[(ring + 1) % n, ring] += 0.5

    residual = np.inf
    for _ in range(_SCALING_SWEEPS):
        r = M.sum(axis=1)
        residual = float(np.max(np.abs(r - 1.0)))
        if residual <= _SCALING_TOL:
            return validate(M)
        # dividing by the symmetric outer product keeps M exactly symmetric
        M = M / np.sqrt(np.outer(r, r))
    raise NormalizationFailed(residual)
