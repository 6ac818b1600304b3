"""Closed-form spectral analysis of the averaging models.

Each eigenvalue lam of the weight matrix induces two eigenvalues of the
stacked two-step iteration, the roots of a quadratic:

    MLA:          z^2 - gamma*lam*z + (gamma - 1)*lam = 0
    accelerated:  z^2 - beta*lam*z  + (beta - 1)      = 0

Everything else follows from those roots: convergence criteria, the
essential spectral radius of the stacked system, the rate-optimal
parameters, and the consensus value. `_root_pair` maps one eigenvalue to
its signed roots in Python floats; `_max_root_modulus` maps a whole
spectrum or contour row to the larger root modulus in array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import ModelKind, ModelParams, _check_vector
from .errors import (
    AssumptionViolated,
    BadParameter,
    BadSpectrum,
    DegenerateSpectrum,
    NotConvergent,
)
from .net import WeightedAdjacency, require_symmetric
from .spectral import Spectrum, _require_simple_dominant, rho_ess

# criterion values this close to zero count as the boundary and are
# classified non-convergent (the criteria are strict inequalities)
CRITERION_BOUNDARY_TOL = 1e-12

# eigenvalues and rates this close count as equal in the optima's
# hypotheses and the improvement search; it does not scale with n, so it
# exceeds the solve error (certificate_bound) only up to n = 281
_RATE_TOL = 1e-12
# lambda_2 + lambda_n this close to 0 leaves no unique essential eigenvalue
_CANCELLATION_TOL = 1e-10
# the beta* search brackets to 1e-10 and lands within 3.5e-11 of the closed
# form on networks up to n = 256; a larger gap means another minimum
_BETA_AGREEMENT_TOL = 1e-6


@dataclass(frozen=True)
class MappedPair:
    """Both roots induced by one eigenvalue, plus the discriminant.

    The roots are a complex-conjugate pair exactly when the discriminant
    is negative; their squared modulus then equals the root product.
    """

    lambda_plus: complex
    lambda_minus: complex
    discriminant: float


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of the MLA convergence test for one gamma.

    criterion_ii_value is 2*gamma*lam_n - lam_n + 1, which must be
    strictly positive; gamma itself must lie strictly inside (0, 2).
    limiting_eigenvalue_modulus is the brute-force cross-check: the max
    modulus over all mapped non-dominant eigenvalues.
    """

    converges: bool
    gamma_in_range: bool
    criterion_ii_value: float
    limiting_eigenvalue_modulus: float


class GammaStar(NamedTuple):
    gamma: float
    rate: float
    hypotheses_met: bool


class BetaStar(NamedTuple):
    beta: float
    rate: float


# a discriminant this small relative to the terms it was computed from is
# cancellation noise and makes an exact double root, not a spurious split
_CANCELLATION_FLOOR = 16.0 * float(np.finfo(float).eps)


def _root_pair(b: float, c: float) -> tuple[complex, complex, float]:
    """Roots (plus, minus) of z^2 - b z + c = 0 and its discriminant.

    The stable recipe: a real pair takes its larger-magnitude root from the
    formula, the other from the product c, and +0.0 imaginary parts.
    """
    b, c = float(b), float(c)
    bb = b * b
    c4 = 4.0 * c
    disc = bb - c4
    if abs(disc) <= _CANCELLATION_FLOOR * (bb + abs(c4)):
        return complex(b / 2.0), complex(b / 2.0), disc
    if disc < 0.0:
        im = math.sqrt(-disc) / 2.0
        return complex(b / 2.0, im), complex(b / 2.0, -im), disc
    # here sqrt(disc) > 0 and |big| >= sqrt(disc) / 2, so c / big is safe
    sq = math.sqrt(disc)
    if b >= 0.0:
        big = (b + sq) / 2.0
        return complex(big), complex(c / big), disc
    big = (b - sq) / 2.0
    return complex(c / big), complex(big), disc


def _max_root_modulus(b, c):
    """Larger root modulus of z^2 - b z + c = 0, elementwise over broadcast b, c.

    Bit for bit max(abs(plus), abs(minus)) of `_root_pair`, as a modulus
    ignores the sign branch taken at b = +-0, |c / big| = |c| / |big| and
    hypot(x, 0) = |x|. Branches np.where discards raise no warnings.
    """
    bb = b * b
    c4 = 4.0 * c
    disc = bb - c4
    abs_disc = np.abs(disc)
    sq = np.sqrt(abs_disc)
    abs_b = np.abs(b)
    big = (abs_b + sq) / 2.0
    real = np.maximum(big, np.abs(c) / np.where(big != 0.0, big, 1.0))
    half = abs_b / 2.0
    conjugate = np.hypot(half, sq / 2.0)
    double = abs_disc <= _CANCELLATION_FLOOR * (bb + np.abs(c4))
    return np.where(double, half, np.where(disc < 0.0, conjugate, real))


def _check_roots(coefficients, lam: float, param: float, name: str) -> None:
    """Raise BadParameter unless the kernels' b*b + |4c| stays finite at |lam|,
    which also rejects a non-finite lam or param. |b| and |c| grow with
    |lambda|, so the largest |lambda| of a spectrum or row decides for all."""
    lam, param = abs(float(lam)), float(param)
    b, c = coefficients(lam, param)
    if not math.isfinite(b * b + abs(4.0 * c)):
        raise BadParameter(
            f"{name}={param!r} at |lambda| = {lam!r} gives non-finite root coefficients"
        )


def _mla_coefficients(lam, gamma):
    """Root sum gamma*lam and root product (gamma - 1)*lam of the MLA pair."""
    return gamma * lam, (gamma - 1.0) * lam


def _accelerated_coefficients(lam, beta):
    """Root sum beta*lam and root product beta - 1 of the accelerated pair."""
    return beta * lam, beta - 1.0


def map_eigenvalue(lam: float, gamma: float) -> MappedPair:
    """Both MLA-induced eigenvalues for one eigenvalue of the weight matrix.

    Root sum is gamma*lam, root product (gamma - 1)*lam. At gamma = 1 the
    pair is exactly {lam, 0}, the DeGroot embedding.
    """
    _check_roots(_mla_coefficients, lam, gamma, "gamma")
    return MappedPair(*_root_pair(*_mla_coefficients(lam, gamma)))


def map_eigenvalue_accelerated(lam: float, beta: float) -> MappedPair:
    """Both accelerated-averaging eigenvalues for one eigenvalue.

    Root sum is beta*lam, root product beta - 1; lam = -1 always yields
    the pair {-1, 1 - beta}, which is why that model cannot settle on a
    periodic network.
    """
    _check_roots(_accelerated_coefficients, lam, beta, "beta")
    return MappedPair(*_root_pair(*_accelerated_coefficients(lam, beta)))


def lambda_hat_max(lam, gamma):
    """Larger modulus of the two MLA-induced eigenvalues (contour field).

    Elementwise over broadcast lam and gamma; a float for scalar input.
    """
    _check_roots(_mla_coefficients, np.abs(lam).max(), np.abs(gamma).max(), "gamma")
    out = _max_root_modulus(*_mla_coefficients(lam, gamma))
    return float(out) if out.ndim == 0 else out


def _limiting_modulus(spec: Spectrum, param: float, coefficients, name: str) -> float:
    """Max modulus over all mapped eigenvalues except the dominant root 1.

    The dominant eigenvalue maps to {1, other}; which branch carries the 1
    depends on the parameter sign region, so the signed root closer to 1
    is dropped. The rest of the spectrum needs moduli alone.
    """
    _require_simple_dominant(spec)
    w = spec.eigenvalues
    w0 = float(w[0])
    _check_roots(coefficients, max(abs(w0), abs(float(w[-1]))), param, name)
    plus, minus, _ = _root_pair(*coefficients(w0, param))
    kept = minus if abs(plus - 1.0) <= abs(minus - 1.0) else plus
    moduli = _max_root_modulus(*coefficients(w[1:], param))
    return float(moduli.max(initial=abs(kept)))


def check_mla_convergence(spec: Spectrum, gamma: float) -> ConvergenceVerdict:
    """Decide MLA convergence for one gamma on a connected symmetric network.

    Evaluates the two analytic criteria (gamma strictly inside (0, 2) and
    2*gamma*lam_n - lam_n + 1 strictly positive) and also reports the
    brute-force maximum modulus over all mapped non-dominant eigenvalues,
    so the two routes can be cross-checked. Criterion values within 1e-12
    of zero are classified non-convergent. Raises DominantNotSimple on a
    reducible network, whose components never reach a common value, and
    BadParameter on a gamma that is not finite or overflows the roots.
    """
    limiting = _limiting_modulus(spec, gamma, _mla_coefficients, "gamma")
    lam_n = float(spec.eigenvalues[-1])
    criterion = 2.0 * gamma * lam_n - lam_n + 1.0
    in_range = 0.0 < gamma < 2.0
    converges = in_range and criterion > CRITERION_BOUNDARY_TOL
    return ConvergenceVerdict(converges, in_range, criterion, limiting)


def rho_ess_mla(spec: Spectrum, gamma: float) -> float:
    """Essential spectral radius of the stacked MLA iteration at gamma.

    Exhaustive maximum over all 2n mapped roots minus the single dominant
    one. Raises NotConvergent when the convergence criteria fail, since a
    "rate" would be meaningless there.
    """
    verdict = check_mla_convergence(spec, gamma)
    if not verdict.converges:
        raise NotConvergent(
            f"gamma={float(gamma)!r} fails the convergence criteria "
            f"(in_range={verdict.gamma_in_range}, "
            f"criterion={float(verdict.criterion_ii_value)!r})"
        )
    return verdict.limiting_eigenvalue_modulus


def rho_ess_accelerated(spec: Spectrum, beta: float) -> float:
    """Max modulus over non-dominant accelerated-model eigenvalues at beta.

    Raises as `check_mla_convergence` does on the spectrum and beta.
    """
    return _limiting_modulus(spec, beta, _accelerated_coefficients, "beta")


def model_rate(spec: Spectrum, model: ModelParams) -> float:
    """Rate of the model on the network: its iteration's essential radius.

    Raises NotConvergent when the model never settles (MLA decided by
    `check_mla_convergence`; accelerated averaging whenever `rho_ess` is
    1, as lam = -1 maps to the root -1 for every beta) and
    DominantNotSimple on a reducible network, the identity included.
    """
    if model.kind is ModelKind.MLA:
        return rho_ess_mla(spec, model.param)
    rate = rho_ess(spec)
    if model.kind is ModelKind.ACCELERATED and rate < 1.0:
        rate = rho_ess_accelerated(spec, model.param)
    if not rate < 1.0:
        raise NotConvergent(
            f"{model.kind.value} averaging does not converge "
            f"(essential radius {rate!r})"
        )
    return rate


def consensus_value(A: WeightedAdjacency, spec: Spectrum, x0) -> float:
    """The common limit of all agents under a convergent MLA run.

    Equals w1 . x0 with w1 the dominant left eigenvector scaled to sum 1.
    For a symmetric weight matrix that is the arithmetic mean of the
    initial states. Requires the dominant eigenvalue to be simple and x0
    to be a finite vector of n states.
    """
    require_symmetric(A)
    _require_simple_dominant(spec)
    x0 = _check_vector(A, x0, "x0")
    v1 = spec.eigenvectors[:, 0]
    w1 = v1 / v1.sum()
    return float(w1 @ x0)


def optimal_gamma(spec: Spectrum) -> GammaStar:
    """Rate-optimal MLA parameter and the rate it achieves.

    gamma* places the discriminant zero exactly on the smallest
    eigenvalue, turning the slowest real pair into a critically damped
    one. The closed-form rate sqrt(1 + rho) - 1 is exact when the
    smallest eigenvalue carries the essential radius and the second
    eigenvalue is at most a third of its magnitude; outside those
    hypotheses the returned rate is recomputed honestly from the
    exhaustive mapping and hypotheses_met is False.
    """
    w = spec.eigenvalues
    lam_2 = float(w[1])
    lam_n = float(w[-1])
    rho = rho_ess(spec)
    if lam_n >= 0.0:
        raise BadSpectrum(f"smallest eigenvalue must be negative, got {lam_n!r}")
    if not 0.0 < rho < 1.0:
        raise BadSpectrum(f"essential spectral radius must lie in (0, 1), got {rho!r}")
    gamma_star = 2.0 / rho * (math.sqrt(1.0 + rho) - 1.0)
    hypotheses_met = (lam_2 <= abs(lam_n) / 3.0 + _RATE_TOL) and (
        abs(lam_n + rho) <= _RATE_TOL
    )
    if hypotheses_met:
        rate = math.sqrt(1.0 + rho) - 1.0
    else:
        rate = rho_ess_mla(spec, gamma_star)
    return GammaStar(gamma=gamma_star, rate=rate, hypotheses_met=hypotheses_met)


def _golden_section_min(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on (lo, hi) to bracket width tol."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    h = hi - lo
    c = hi - inv_phi * h
    d = lo + inv_phi * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            h = hi - lo
            c = hi - inv_phi * h
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            h = hi - lo
            d = lo + inv_phi * h
            fd = f(d)
    x = (lo + hi) / 2.0
    return x, f(x)


def optimal_beta(spec: Spectrum) -> BetaStar:
    """Rate-optimal accelerated-averaging parameter and its rate.

    The achievable rate has the closed form rho / (1 + sqrt(1 - rho^2));
    the parameter achieving it is located numerically by golden-section
    search of the mapped non-dominant modulus over (0, 2). The search
    must agree with the closed form 2 / (1 + sqrt(1 - rho^2)) to 1e-6,
    which doubles as the unimodality check; BadSpectrum otherwise.
    """
    rho = rho_ess(spec)
    if not 0.0 < rho < 1.0:
        raise BadSpectrum(f"essential spectral radius must lie in (0, 1), got {rho!r}")
    root = math.sqrt(1.0 - rho * rho)
    beta, _ = _golden_section_min(
        lambda b: rho_ess_accelerated(spec, b), 0.0, 2.0, 1e-10
    )
    closed = 2.0 / (1.0 + root)
    if not abs(beta - closed) <= _BETA_AGREEMENT_TOL:
        raise BadSpectrum(f"search beta {beta!r} misses closed form {closed!r}")
    return BetaStar(beta=beta, rate=rho / (1.0 + root))


def improving_gamma_exists(spec: Spectrum) -> Optional[tuple[float, float]]:
    """Search for a memory weight that beats the DeGroot rate.

    Tries gamma = 1 + delta for delta in +/-{0.1, 0.01, 0.001}, with the
    sign chosen by the sign of the essential eigenvalue (a positive
    essential eigenvalue is pushed down by delta > 0, a negative one by
    delta < 0). Returns the first (delta, improved_rate) found, or None
    when the rate is already 0 or no tried delta improves it. Raises
    DegenerateSpectrum when the two extreme eigenvalues cancel, because
    no unique essential eigenvalue exists then.
    """
    w = spec.eigenvalues
    rho = rho_ess(spec)
    if rho <= _RATE_TOL:
        return None
    if rho >= 1.0 - _RATE_TOL:
        raise AssumptionViolated(
            "improvement search needs a primitive network (essential radius < 1)"
        )
    lam_2 = float(w[1])
    lam_n = float(w[-1])
    if abs(lam_2 + lam_n) <= _CANCELLATION_TOL:
        raise DegenerateSpectrum(
            f"lambda_2 + lambda_n = {lam_2 + lam_n!r} is within {_CANCELLATION_TOL:g}"
        )
    lam_ess = lam_2 if abs(lam_2) > abs(lam_n) else lam_n
    sign = 1.0 if lam_ess > 0.0 else -1.0
    for mag in (1e-1, 1e-2, 1e-3):
        gamma = 1.0 + sign * mag
        verdict = check_mla_convergence(spec, gamma)
        if not verdict.converges:
            continue
        improved = verdict.limiting_eigenvalue_modulus
        if improved < rho - _RATE_TOL:
            return (sign * mag, improved)
    return None
