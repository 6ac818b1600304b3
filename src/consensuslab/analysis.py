"""Closed-form spectral analysis of the averaging models.

Each eigenvalue lam of the weight matrix induces two eigenvalues of the
stacked two-step iteration, the roots of a quadratic:

    MLA:          z^2 - gamma*lam*z + (gamma - 1)*lam = 0
    accelerated:  z^2 - beta*lam*z  + (beta - 1)      = 0

Everything else follows from those roots: convergence criteria, the
essential spectral radius of the stacked system, the rate-optimal
parameters, and the consensus value. Only the dominant eigenvalue needs
its signed roots (`_root_pair`), as the root nearer 1 is dropped; the
rest need the larger root modulus alone, in Python floats from
`_larger_modulus` for verdicts and rates, or over an array from
`_max_root_modulus` for the contour grid.

Verdicts and rates read the largest modulus off the ends of the sorted
spectrum. The larger root modulus never decreases with |lam| on either
sign side, so a walk inward from lambda_2 and then from lambda_n, one
`_larger_modulus` per eigenvalue and none twice, stops on a side once its
modulus falls below the running maximum by more than the kernels'
rounding error; on the accelerated model's flat modulus sqrt(beta - 1)
over its conjugate region it reads the whole spectrum. Either way the
result is the whole-spectrum maximum, bit for bit. Both optima are
closed forms in the essential radius; only gamma*'s needs hypotheses.
Values within the solve error `certificate_bound(n)` count as equal; the
cancellation guard adds the input error the network checks allow.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import ModelKind, ModelParams, _check_model, _check_vector
from .errors import (
    AssumptionViolated,
    BadParameter,
    BadSpectrum,
    DegenerateSpectrum,
    DimensionMismatch,
    NotConvergent,
)
from .net import WeightedAdjacency, require_symmetric
from .spectral import (
    Spectrum,
    _contract_bound,
    _require_simple_dominant,
    certificate_bound,
    rho_ess,
)


class ConvergenceVerdict(NamedTuple):
    """Outcome of the MLA convergence test for one gamma.

    criterion_ii_value is 2*gamma*lam_n - lam_n + 1, which must be
    strictly positive; gamma itself must lie strictly inside (0, 2).
    limiting_eigenvalue_modulus is the largest modulus over the mapped
    roots but the dominant 1, whether or not the criteria hold.
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


def _root_pair(b: float, c: float) -> tuple[float | complex, float | complex]:
    """Roots (plus, minus) of z^2 - b z + c = 0.

    The stable recipe: a real pair takes its larger-magnitude root from the
    formula, the other from the product c. A real or double pair comes back
    as Python floats; only a conjugate pair builds complex numbers.
    """
    b, c = float(b), float(c)
    bb = b * b
    c4 = 4.0 * c
    disc = bb - c4
    if abs(disc) <= _CANCELLATION_FLOOR * (bb + abs(c4)):
        return b / 2.0, b / 2.0
    if disc < 0.0:
        im = math.sqrt(-disc) / 2.0
        return complex(b / 2.0, im), complex(b / 2.0, -im)
    # here sqrt(disc) > 0 and |big| >= sqrt(disc) / 2, so c / big is safe
    sq = math.sqrt(disc)
    if b >= 0.0:
        big = (b + sq) / 2.0
        return big, c / big
    big = (b - sq) / 2.0
    return c / big, big


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


def _larger_modulus(b: float, c: float) -> float:
    """Larger root modulus of z^2 - b z + c = 0 in Python floats: bit for bit
    `_root_pair`'s by the identities of `_max_root_modulus`. Only a conjugate
    pair builds a complex, as its abs() may round apart from math.hypot."""
    b, c = float(b), float(c)
    bb = b * b
    c4 = 4.0 * c
    disc = bb - c4
    if abs(disc) <= _CANCELLATION_FLOOR * (bb + abs(c4)):
        return abs(b) / 2.0
    if disc < 0.0:
        return abs(complex(b / 2.0, math.sqrt(-disc) / 2.0))
    # sqrt(disc) > 0 here, so big > 0
    big = (abs(b) + math.sqrt(disc)) / 2.0
    return max(big, abs(c) / big)


# Reading the rate off the spectrum's ends. For fixed parameters the exact
# larger root modulus never decreases with |lam| on either sign side: a
# conjugate pair has modulus sqrt(|c|), which grows with |lam| (MLA) or is
# flat (accelerated), and a real pair's larger root (|b| + sqrt(disc)) / 2
# has a nonnegative derivative in |lam| over the whole real region, for
# both models and every finite parameter. The kernels compute it within
# about 1e-7 relative of the exact value; the worst case is the
# cancellation floor, sqrt(32 eps) = 8.4e-8. So once the modulus v read at
# one end satisfies v * _WALK_SCALE + _WALK_FLOOR < best, no unread
# eigenvalue of that end's sign can round above best (the lambda_2 end
# covers those >= 0, the lambda_n end those < 0; a side that walks across
# zero has read every eigenvalue of its own sign, and the other side
# covers the rest). The margin 1e-6 is over ten times the relative error;
# the absolute floor covers underflow, where sqrt turns a subnormal-level
# error into about 2e-162.
_WALK_SCALE = 1.0 + 1e-6
_WALK_FLOOR = 1e-150


def _check_roots(coefficients, lam: float, param: float, name: str) -> None:
    """Raise BadParameter unless the kernels' b*b + |4c| stays finite at |lam|,
    which also rejects a non-finite lam or param and a param that is not a
    real number. |b| and |c| grow with |lambda|, so the largest |lambda|
    of a spectrum or row decides for all."""
    # the type test first: the ABC check alone costs up to about 1 us a call
    if type(param) is not float and not isinstance(param, numbers.Real):
        raise BadParameter(f"{name} must be a real number, got {param!r}")
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


def lambda_hat_max(lam, gamma):
    """Larger modulus of the two MLA-induced eigenvalues (contour field).

    Elementwise over broadcast lam and gamma, numbers or array-likes; a
    float for scalar input, an empty array when either is empty;
    BadParameter when either is not real or they do not broadcast.
    """
    # scalars stay as given, so a numpy scalar sets the roots' precision
    try:
        lam, gamma = (x if np.isscalar(x) else np.asarray(x) for x in (lam, gamma))
        if not {np.result_type(lam).kind, np.result_type(gamma).kind} <= set("biuf"):
            raise TypeError("complex or object values")
        lam_max, gamma_max = np.abs(lam).max(initial=0.0), np.abs(gamma).max(initial=0.0)
    except (TypeError, ValueError) as e:
        raise BadParameter(f"lam and gamma must be real numbers: {e}") from None
    try:
        np.broadcast_shapes(np.shape(lam), np.shape(gamma))
    except ValueError as e:
        raise BadParameter(f"lam and gamma do not broadcast: {e}") from None
    _check_roots(_mla_coefficients, lam_max, gamma_max, "gamma")
    out = _max_root_modulus(*_mla_coefficients(lam, gamma))
    return float(out) if out.ndim == 0 else out


def _limiting_modulus(spec: Spectrum, param: float, coefficients, name: str) -> float:
    """Max modulus over all mapped eigenvalues except the dominant root 1.

    The dominant eigenvalue maps to {1, other}; which branch carries the 1
    depends on the parameter sign region, so the signed root closer to 1
    is dropped. The rest of the spectrum needs moduli alone, and they are
    read off its ends, one `_larger_modulus` per eigenvalue and none
    twice: lambda_2 and lambda_n first, then a walk inward from the
    lambda_2 side while its last modulus may still round up to the
    running maximum (see _WALK_SCALE), then the same walk from the
    lambda_n side, never past where the first stopped. The result is the
    maximum over the whole spectrum, bit for bit. A numpy scalar
    parameter sets the precision of the root sums and products.
    """
    _require_simple_dominant(spec)
    w = spec._floats
    _check_roots(coefficients, max(abs(w[0]), abs(w[-1])), param, name)
    plus, minus = _root_pair(*coefficients(w[0], param))
    best = abs(minus if abs(plus - 1.0) <= abs(minus - 1.0) else plus)
    # lambda_2 and lambda_n once each: one read at n = 2, none at n = 1
    at_lo = at_hi = best
    if len(w) > 1:
        at_lo = at_hi = _larger_modulus(*coefficients(w[1], param))
    if len(w) > 2:
        at_hi = _larger_modulus(*coefficients(w[-1], param))
    best = max(best, at_lo, at_hi)
    lo, hi = 2, len(w) - 2
    while lo <= hi and at_lo * _WALK_SCALE + _WALK_FLOOR >= best:
        at_lo = _larger_modulus(*coefficients(w[lo], param))
        best = max(best, at_lo)
        lo += 1
    while lo <= hi and at_hi * _WALK_SCALE + _WALK_FLOOR >= best:
        at_hi = _larger_modulus(*coefficients(w[hi], param))
        best = max(best, at_hi)
        hi -= 1
    return best


def check_mla_convergence(spec: Spectrum, gamma: float) -> ConvergenceVerdict:
    """Decide MLA convergence for one gamma on a connected symmetric network.

    Evaluates the two analytic criteria (gamma strictly inside (0, 2) and
    2*gamma*lam_n - lam_n + 1 strictly positive) and reports the largest
    modulus over the mapped roots but the dominant 1 (`_limiting_modulus`).
    A criterion within `certificate_bound(n)` of zero fails, as `rho_ess`
    reads a lam_n that close to -1 as -1: at gamma = 1 the verdict is
    DeGroot's. Raises DominantNotSimple on a reducible network, whose
    components never reach a common value, and BadParameter on a gamma
    that is not a finite real number or overflows the roots.
    """
    limiting = _limiting_modulus(spec, gamma, _mla_coefficients, "gamma")
    lam_n = spec._floats[-1]
    criterion = 2.0 * gamma * lam_n - lam_n + 1.0
    in_range = 0.0 < gamma < 2.0
    converges = in_range and criterion > certificate_bound(len(spec._floats))
    return ConvergenceVerdict(converges, in_range, criterion, limiting)


def rho_ess_mla(spec: Spectrum, gamma: float) -> float:
    """Essential spectral radius of the stacked MLA iteration at gamma.

    The largest modulus over the 2n mapped roots but the dominant 1, as
    `check_mla_convergence` reports it. Raises NotConvergent when the
    convergence criteria fail, since a "rate" would be meaningless there.
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
    _check_model(model)
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

    A symmetric A, the only kind accepted, has a uniform dominant left
    eigenvector, so the limit is the mean of the initial states: a closed
    form, exact where a computed eigenvector errs as the gap closes.
    Requires spec to be A's (DimensionMismatch) with a simple dominant
    eigenvalue, and x0 a finite vector of n states.
    """
    require_symmetric(A)
    _require_simple_dominant(spec)
    if len(spec._floats) != A.n:
        raise DimensionMismatch(f"spectrum of {len(spec._floats)} for n = {A.n}")
    return float(_check_vector(A, x0, "x0").mean())


def optimal_gamma(spec: Spectrum) -> GammaStar:
    """Rate-optimal MLA parameter and the rate it achieves.

    gamma* places the discriminant zero exactly on the smallest
    eigenvalue, turning the slowest real pair into a critically damped
    one. The closed-form rate sqrt(1 + rho) - 1 is exact when the
    smallest eigenvalue carries the essential radius and the second
    eigenvalue is at most a third of its magnitude; outside those
    hypotheses the returned rate is recomputed by `rho_ess_mla` and
    hypotheses_met is False. Both hold within `certificate_bound(n)`.
    """
    rho = rho_ess(spec)
    w = spec._floats
    lam_n = w[-1]
    if lam_n >= 0.0:
        raise BadSpectrum(f"smallest eigenvalue must be negative, got {lam_n!r}")
    if not 0.0 < rho < 1.0:
        raise BadSpectrum(f"essential spectral radius must lie in (0, 1), got {rho!r}")
    lam_2 = w[1]
    tol = certificate_bound(len(w))
    gamma_star = 2.0 / rho * (math.sqrt(1.0 + rho) - 1.0)
    hypotheses_met = (lam_2 <= abs(lam_n) / 3.0 + tol) and (abs(lam_n + rho) <= tol)
    if hypotheses_met:
        rate = math.sqrt(1.0 + rho) - 1.0
    else:
        rate = rho_ess_mla(spec, gamma_star)
    return GammaStar(gamma=gamma_star, rate=rate, hypotheses_met=hypotheses_met)


def optimal_beta(spec: Spectrum) -> BetaStar:
    """Rate-optimal accelerated-averaging parameter and its rate, in closed
    form: beta* = 2 / (1 + sqrt(1 - rho^2)) maps every |lam| <= rho to a
    conjugate or double pair of modulus sqrt(beta* - 1) = rho / (1 +
    sqrt(1 - rho^2)); a smaller beta leaves a slower real pair at rho, a
    larger one raises sqrt(beta - 1). BadSpectrum unless 0 < rho < 1.
    """
    rho = rho_ess(spec)
    if not 0.0 < rho < 1.0:
        raise BadSpectrum(f"essential spectral radius must lie in (0, 1), got {rho!r}")
    root = math.sqrt(1.0 - rho * rho)
    return BetaStar(beta=2.0 / (1.0 + root), rate=rho / (1.0 + root))


def improving_gamma_exists(spec: Spectrum) -> Optional[tuple[float, float]]:
    """Search for a memory weight that beats the DeGroot rate.

    Tries gamma = 1 + delta for delta in +/-{0.1, 0.01, 0.001}, with the
    sign chosen by the sign of the essential eigenvalue (a positive
    essential eigenvalue is pushed down by delta > 0, a negative one by
    delta < 0). Returns the first (delta, improved_rate) found, or None
    when the rate is already 0 or no tried delta improves it, each within
    `certificate_bound(n)`. Raises DegenerateSpectrum when the two extreme
    eigenvalues cancel, as no unique essential eigenvalue exists then:
    within twice `_contract_bound(n)`, as each of the two may sit that far
    from an eigenvalue of a network the checks accept.
    """
    rho = rho_ess(spec)
    w = spec._floats
    tol = certificate_bound(len(w))
    if rho <= tol:
        return None
    if rho == 1.0:
        raise AssumptionViolated(
            "improvement search needs a primitive network (essential radius < 1)"
        )
    lam_2, lam_n = w[1], w[-1]
    if abs(lam_2 + lam_n) <= (cancel := 2.0 * _contract_bound(len(w))):
        raise DegenerateSpectrum(
            f"lambda_2 + lambda_n = {lam_2 + lam_n!r} is within {cancel:g}"
        )
    lam_ess = lam_2 if abs(lam_2) > abs(lam_n) else lam_n
    sign = 1.0 if lam_ess > 0.0 else -1.0
    for mag in (1e-1, 1e-2, 1e-3):
        gamma = 1.0 + sign * mag
        verdict = check_mla_convergence(spec, gamma)
        if not verdict.converges:
            continue
        improved = verdict.limiting_eigenvalue_modulus
        if improved < rho - tol:
            return (sign * mag, improved)
    return None
