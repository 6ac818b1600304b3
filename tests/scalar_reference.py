"""Reference formulations the library's shared kernels must match bit for bit.

The root mapping, one Python call per eigenvalue with both signed roots:
the formulation the modulus kernel `_max_root_modulus` and the scalar
`_root_pair` in `consensuslab.analysis` must reproduce. And the simulator
with each model's update rule written out in its own loop branch: the
formulation the single update kernel in `consensuslab.dynamics` replaced.
"""

from __future__ import annotations

import math

import numpy as np

from consensuslab.analysis import (
    CRITERION_BOUNDARY_TOL,
    BetaStar,
    ConvergenceVerdict,
    MappedPair,
    _golden_section_min,
)
from consensuslab.dynamics import ModelKind
from consensuslab.sim import TraceSummary, _substream
from consensuslab.spectral import rho_ess


def roots_sum_product(b: float, c: float) -> tuple[complex, complex, float]:
    """Roots of z^2 - b z + c = 0 as (plus, minus, discriminant)."""
    disc = b * b - 4.0 * c
    if abs(disc) <= 16.0 * np.finfo(float).eps * (b * b + abs(4.0 * c)):
        return complex(b / 2.0), complex(b / 2.0), disc
    if disc < 0.0:
        im = math.sqrt(-disc) / 2.0
        return complex(b / 2.0, im), complex(b / 2.0, -im), disc
    sq = math.sqrt(disc)
    if b >= 0.0:
        plus = (b + sq) / 2.0
        minus = c / plus if plus != 0.0 else 0.0
    else:
        minus = (b - sq) / 2.0
        plus = c / minus
    return complex(plus), complex(minus), disc


def map_eigenvalue(lam: float, gamma: float) -> MappedPair:
    return MappedPair(*roots_sum_product(gamma * lam, (gamma - 1.0) * lam))


def map_eigenvalue_accelerated(lam: float, beta: float) -> MappedPair:
    return MappedPair(*roots_sum_product(beta * lam, beta - 1.0))


def lambda_hat_max(lam: float, gamma: float) -> float:
    pair = map_eigenvalue(lam, gamma)
    return max(abs(pair.lambda_plus), abs(pair.lambda_minus))


def non_dominant_moduli(spec, param: float, mapper) -> np.ndarray:
    """Moduli of all mapped eigenvalues except the root closest to 1."""
    w = spec.eigenvalues
    mods = []
    first = mapper(float(w[0]), param)
    if abs(first.lambda_plus - 1.0) <= abs(first.lambda_minus - 1.0):
        mods.append(abs(first.lambda_minus))
    else:
        mods.append(abs(first.lambda_plus))
    for lam in w[1:]:
        pair = mapper(float(lam), param)
        mods.append(abs(pair.lambda_plus))
        mods.append(abs(pair.lambda_minus))
    return np.array(mods)


def check_mla_convergence(spec, gamma: float) -> ConvergenceVerdict:
    lam_n = float(spec.eigenvalues[-1])
    criterion = 2.0 * gamma * lam_n - lam_n + 1.0
    in_range = 0.0 < gamma < 2.0
    return ConvergenceVerdict(
        converges=in_range and criterion > CRITERION_BOUNDARY_TOL,
        gamma_in_range=in_range,
        criterion_ii_value=criterion,
        limiting_eigenvalue_modulus=float(
            np.max(non_dominant_moduli(spec, gamma, map_eigenvalue))
        ),
    )


def rho_ess_accelerated(spec, beta: float) -> float:
    return float(np.max(non_dominant_moduli(spec, beta, map_eigenvalue_accelerated)))


def optimal_beta(spec) -> BetaStar:
    rho = rho_ess(spec)
    rate = rho / (1.0 + math.sqrt(1.0 - rho * rho))
    beta, _ = _golden_section_min(
        lambda b: rho_ess_accelerated(spec, b), 0.0, 2.0, 1e-10
    )
    return BetaStar(beta=beta, rate=rate)


def run_batch(A, cfg) -> TraceSummary:
    """The batch simulator, stepping each model in its own branch."""
    n = A.n
    W = A.weights
    X0 = np.empty((cfg.runs, n))
    for i in range(cfg.runs):
        X0[i] = _substream(cfg.seed, i).uniform(cfg.init_low, cfg.init_high, n)

    env_max = np.empty(cfg.steps + 1)
    env_min = np.empty(cfg.steps + 1)

    def record(k, X):
        D = X - X.mean(axis=1, keepdims=True)
        env_max[k] = D.max()
        env_min[k] = D.min()
        return math.isfinite(env_max[k]) and math.isfinite(env_min[k])

    record(0, X0)
    kind, param = cfg.model.kind, cfg.model.param
    Xc = X0
    Xp = X0
    first_nonfinite = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.steps + 1):
            if kind is ModelKind.DEGROOT:
                Xn = Xc @ W.T
            elif kind is ModelKind.ACCELERATED:
                Xn = param * (Xc @ W.T) + (1.0 - param) * Xp
            else:
                Xn = param * (Xc @ W.T) + (1.0 - param) * (Xp @ W.T)
            if not record(k, Xn):
                first_nonfinite = k
                env_max, env_min = env_max[:k], env_min[:k]
                break
            Xc, Xp = Xn, Xc

    D = Xc - Xc.mean(axis=1, keepdims=True)
    return TraceSummary(
        env_max=env_max,
        env_min=env_min,
        final_max_abs_deviation=np.abs(D).max(axis=1),
        first_nonfinite_step=first_nonfinite,
    )


def simulate_trajectory(A, model, x0, steps: int) -> np.ndarray:
    """One trajectory with matrix-vector products, each model in its own branch."""
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
