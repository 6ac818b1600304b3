"""Closed-form spectral analysis of the averaging models.

Each eigenvalue lam of the weight matrix induces two eigenvalues of the
stacked two-step iteration, the roots of a quadratic:

    MLA:          z^2 - gamma*lam*z + (gamma - 1)*lam = 0
    accelerated:  z^2 - beta*lam*z  + (beta - 1)      = 0

Everything else follows from those roots: convergence criteria, the
essential spectral radius of the stacked system, the rate-optimal
parameters, and the consensus value. Roots are evaluated with the stable
quadratic recipe (larger-magnitude root by formula, the other recovered
from the root product) because the interesting parameter region sits
exactly where the discriminant crosses zero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import ModelKind, ModelParams
from .errors import (
    AssumptionViolated,
    BadSpectrum,
    DegenerateSpectrum,
    NotConvergent,
)
from .net import WeightedAdjacency, require_symmetric
from .spectral import Spectrum, _require_simple_dominant, rho_ess

# criterion values this close to zero count as the boundary and are
# classified non-convergent (the criteria are strict inequalities)
CRITERION_BOUNDARY_TOL = 1e-12

# a leading eigenvalue this far from 1 is not from a row-stochastic matrix
# at all (a hand-built spectrum): an input guard, not a rounding bound
_DOMINANT_ONE_TOL = 1e-8
# eigenvalues and rates this close count as equal in the optima's
# hypotheses and the improvement search; it does not scale with n, so it
# exceeds the solve error (certificate_bound) only up to n = 281
_RATE_TOL = 1e-12
# lambda_2 + lambda_n this close to 0 leaves no unique essential eigenvalue
_CANCELLATION_TOL = 1e-10


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
# pure cancellation noise (see _roots)
_CANCELLATION_FLOOR = 16.0 * np.finfo(float).eps


def _roots(b, c):
    """Roots of z^2 - b z + c = 0, elementwise over broadcast b and c.

    Returns (plus_re, minus_re, im, disc): the roots are plus_re + i*im
    and minus_re - i*im, so im is zero for a real pair. For a real pair
    the larger-magnitude root comes from the formula and the other from
    the product c, avoiding cancellation near a double root. A
    discriminant smaller than the rounding floor of its own computation
    is pure cancellation noise; taking its square root would split the
    roots by a spurious O(sqrt(eps)), so such values collapse to an exact
    double root. Every branch is computed from sqrt(|disc|) and guarded
    divisions, so the branches np.where discards raise no warnings.
    """
    bb = b * b
    c4 = 4.0 * c
    disc = bb - c4
    double = np.abs(disc) <= _CANCELLATION_FLOOR * (bb + np.abs(c4))
    negative = disc < 0.0
    conjugate = negative & ~double
    real = ~(double | negative)
    sq = np.sqrt(np.abs(disc))
    up = b >= 0.0
    big = (b + np.where(up, sq, -sq)) / 2.0
    nonzero = big != 0.0
    other = np.where(nonzero, c / np.where(nonzero, big, 1.0), 0.0)
    half = b / 2.0
    plus_re = np.where(real, np.where(up, big, other), half)
    minus_re = np.where(real, np.where(up, other, big), half)
    im = np.where(conjugate, sq / 2.0, 0.0)
    return plus_re, minus_re, im, disc


def _mla_coefficients(lam, gamma):
    """Root sum gamma*lam and root product (gamma - 1)*lam of the MLA pair."""
    return gamma * lam, (gamma - 1.0) * lam


def _accelerated_coefficients(lam, beta):
    """Root sum beta*lam and root product beta - 1 of the accelerated pair."""
    return beta * lam, beta - 1.0


def _mapped_pair(b, c) -> MappedPair:
    """The kernel's answer for one (b, c); real roots get +0.0 imaginary parts."""
    plus_re, minus_re, im, disc = (float(v) for v in _roots(b, c))
    return MappedPair(
        complex(plus_re, im), complex(minus_re, -im if im else 0.0), disc
    )


def map_eigenvalue(lam: float, gamma: float) -> MappedPair:
    """Both MLA-induced eigenvalues for one eigenvalue of the weight matrix.

    Root sum is gamma*lam, root product (gamma - 1)*lam. At gamma = 1 the
    pair is exactly {lam, 0}, the DeGroot embedding.
    """
    return _mapped_pair(*_mla_coefficients(lam, gamma))


def map_eigenvalue_accelerated(lam: float, beta: float) -> MappedPair:
    """Both accelerated-averaging eigenvalues for one eigenvalue.

    Root sum is beta*lam, root product beta - 1; lam = -1 always yields
    the pair {-1, 1 - beta}, which is why that model cannot settle on a
    periodic network.
    """
    return _mapped_pair(*_accelerated_coefficients(lam, beta))


def lambda_hat_max(lam, gamma):
    """Larger modulus of the two MLA-induced eigenvalues (contour field).

    Elementwise over broadcast lam and gamma; a float for scalar input.
    """
    plus_re, minus_re, im, _ = _roots(*_mla_coefficients(lam, gamma))
    out = np.maximum(np.hypot(plus_re, im), np.hypot(minus_re, im))
    return float(out) if out.ndim == 0 else out


def _limiting_modulus(spec: Spectrum, param: float, coefficients) -> float:
    """Max modulus over all mapped eigenvalues except the dominant root 1.

    The dominant eigenvalue maps to {1, other}; which branch carries the 1
    depends on the parameter sign region, so the root closer to 1 is the
    one dropped. Moduli use np.hypot, which rounds exactly as abs() of a
    Python complex does.
    """
    plus_re, minus_re, im, _ = _roots(*coefficients(spec.eigenvalues, param))
    plus = np.hypot(plus_re, im)
    minus = np.hypot(minus_re, im)
    # the dropped root takes its partner's modulus, so the max ignores it
    if np.hypot(plus_re[0] - 1.0, im[0]) <= np.hypot(minus_re[0] - 1.0, im[0]):
        plus[0] = minus[0]
    else:
        minus[0] = plus[0]
    return float(np.maximum(plus.max(), minus.max()))


def check_mla_convergence(spec: Spectrum, gamma: float) -> ConvergenceVerdict:
    """Decide MLA convergence for one gamma on a connected symmetric network.

    Evaluates the two analytic criteria (gamma strictly inside (0, 2) and
    2*gamma*lam_n - lam_n + 1 strictly positive) and also reports the
    brute-force maximum modulus over all mapped non-dominant eigenvalues,
    so the two routes can be cross-checked. Criterion values within 1e-12
    of zero are classified non-convergent. Raises DominantNotSimple on a
    reducible network, whose components never reach a common value.
    """
    w = spec.eigenvalues
    if abs(w[0] - 1.0) > _DOMINANT_ONE_TOL:
        raise AssumptionViolated(
            f"dominant eigenvalue {w[0]!r} is not 1; input is not a valid "
            "row-stochastic network spectrum"
        )
    _require_simple_dominant(spec)
    lam_n = float(w[-1])
    criterion = 2.0 * gamma * lam_n - lam_n + 1.0
    in_range = 0.0 < gamma < 2.0
    converges = in_range and criterion > CRITERION_BOUNDARY_TOL
    limiting = _limiting_modulus(spec, gamma, _mla_coefficients)
    return ConvergenceVerdict(
        converges=converges,
        gamma_in_range=in_range,
        criterion_ii_value=criterion,
        limiting_eigenvalue_modulus=limiting,
    )


def rho_ess_mla(spec: Spectrum, gamma: float) -> float:
    """Essential spectral radius of the stacked MLA iteration at gamma.

    Exhaustive maximum over all 2n mapped roots minus the single dominant
    one. Raises NotConvergent when the convergence criteria fail, since a
    "rate" would be meaningless there.
    """
    verdict = check_mla_convergence(spec, gamma)
    if not verdict.converges:
        raise NotConvergent(
            f"gamma={gamma!r} fails the convergence criteria "
            f"(in_range={verdict.gamma_in_range}, "
            f"criterion={verdict.criterion_ii_value!r})"
        )
    return verdict.limiting_eigenvalue_modulus


def rho_ess_accelerated(spec: Spectrum, beta: float) -> float:
    """Max modulus over non-dominant accelerated-model eigenvalues at beta."""
    return _limiting_modulus(spec, beta, _accelerated_coefficients)


def model_rate(spec: Spectrum, model: ModelParams) -> float:
    """Rate of the model on the network: its iteration's essential radius.

    Raises NotConvergent when the model never settles (MLA decided by
    `check_mla_convergence`; accelerated averaging whenever `rho_ess` is
    1, as lam = -1 maps to the root -1 for every beta) and
    DominantNotSimple on a reducible network, the identity included.
    """
    _require_simple_dominant(spec)
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


def roots_in_unit_disk_via_halfplane(a: complex, b: complex) -> bool:
    """Whether both roots of z^2 + a z + b lie strictly inside the unit disk.

    Decided without computing the roots' moduli: the disk question is
    transformed to a half-plane question for the polynomial
    (1 + a + b) s^2 + 2 (1 - b) s + (b - a + 1), whose roots must both
    have strictly negative real part. A vanishing leading coefficient
    means z = 1 is a root of the original, which sits on the circle, so
    the answer is False. This op exists as an independent verification
    route for the modulus-based checks.
    """
    a = complex(a)
    b = complex(b)
    lead = 1.0 + a + b
    if lead == 0.0:
        return False
    mid = 2.0 * (1.0 - b)
    tail = b - a + 1.0
    sq = cmath.sqrt(mid * mid - 4.0 * lead * tail)
    s1 = (-mid + sq) / (2.0 * lead)
    s2 = (-mid - sq) / (2.0 * lead)
    return s1.real < 0.0 and s2.real < 0.0


def consensus_value(A: WeightedAdjacency, spec: Spectrum, x0) -> float:
    """The common limit of all agents under a convergent MLA run.

    Equals w1 . x0 with w1 the dominant left eigenvector scaled to sum 1.
    For a symmetric weight matrix that is the arithmetic mean of the
    initial states. Requires the dominant eigenvalue to be simple.
    """
    require_symmetric(A, "consensus value formula")
    _require_simple_dominant(spec)
    x0 = np.asarray(x0, dtype=float)
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
    search of the mapped non-dominant modulus over (0, 2). The numeric
    minimum agreeing with the closed form (to 1e-6) doubles as the
    unimodality check.
    """
    rho = rho_ess(spec)
    if not 0.0 < rho < 1.0:
        raise BadSpectrum(f"essential spectral radius must lie in (0, 1), got {rho!r}")
    rate = rho / (1.0 + math.sqrt(1.0 - rho * rho))
    beta, _ = _golden_section_min(
        lambda b: rho_ess_accelerated(spec, b), 0.0, 2.0, 1e-10
    )
    return BetaStar(beta=beta, rate=rate)


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
