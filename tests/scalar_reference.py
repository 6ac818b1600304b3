"""Scalar reference for the root mapping: one Python call per eigenvalue.

This is the per-eigenvalue formulation the array kernel in
`consensuslab.analysis` replaced. It stays here as the oracle the kernel
must match bit for bit.
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
