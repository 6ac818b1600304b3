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
rounding error. So it reads every eigenvalue within that margin of the
maximum: each copy of a repeated end eigenvalue (the n - 1 zeros of the
complete graph at gamma = 1) and all of the accelerated model's flat
sqrt(beta - 1) over its conjugate region. Either way the result is the
whole-spectrum maximum, bit for bit. Both optima are closed forms in the
essential radius; only gamma*'s needs hypotheses. Values within the
solve error `certificate_bound(n)` count as equal; the cancellation
guard adds the input error the network checks allow.

A verdict or rate pays for its reads and little else: the `Spectrum`
settled its dominance rule, which bounds every modulus by `_MAX_MODULUS`
where the overflow check sits, and `certificate_bound(n)` when built.
"""

from __future__ import annotations

import math
from contextlib import suppress
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import ModelKind, ModelParams, _check_vector, _mean
from .errors import (
    AssumptionViolated,
    BadParameter,
    BadSpectrum,
    DegenerateSpectrum,
    DimensionMismatch,
    NotConvergent,
)
from .net import (
    WeightedAdjacency, _check_real, _check_type, _real_array, require_symmetric
)
from .spectral import (
    _MAX_MODULUS, Spectrum, _contract_bound, _require_simple_dominant, rho_ess
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


# the NamedTuple's own __new__ is generated Python that only packs its
# arguments, about twice the cost of tuple.__new__ per verdict
_new_verdict = tuple.__new__


# a discriminant this small relative to the terms it was computed from is
# cancellation noise and makes an exact double root, not a spurious split
_CANCELLATION_FLOOR = 16.0 * float(np.finfo(float).eps)


def _root_pair(b: float, c: float) -> tuple[float | complex, float | complex]:
    """Roots (plus, minus) of z^2 - b z + c = 0, for Python floats b and c.

    The stable recipe: a real pair takes its larger-magnitude root from the
    formula, the other from the product c. A real or double pair comes back
    as Python floats; only a conjugate pair builds complex numbers.
    """
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
    """Larger root modulus of z^2 - b z + c = 0 for Python floats b and c:
    bit for bit `_root_pair`'s by the identities of `_max_root_modulus`. Only a
    conjugate pair builds a complex, as its abs() may round apart from math.hypot."""
    bb = b * b
    c4 = 4.0 * c
    disc = bb - c4
    if abs(disc) <= _CANCELLATION_FLOOR * (bb + abs(c4)):
        return abs(b) / 2.0
    if disc < 0.0:
        return abs(complex(b / 2.0, math.sqrt(-disc) / 2.0))
    # sqrt(disc) > 0 here, so big > 0
    big = (abs(b) + math.sqrt(disc)) / 2.0
    small = abs(c) / big  # max()'s bits: neither is NaN, and a tie gives big
    return small if small > big else big


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
    """Raise BadParameter unless the Python float param is finite (worded
    by `_check_real`) and the kernels' b*b + |4c| at the Python float
    lam = |lambda| is finite; a float overflows to infinity without a
    warning. |b| and |c| grow with |lambda|, so the largest |lambda| of a
    spectrum (at most `_MAX_MODULUS`) or row decides for all."""
    b, c = coefficients(lam, param)
    if not math.isfinite(b * b + abs(4.0 * c)):
        _check_real(param, name)
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

    Elementwise over broadcast lam and gamma, each a number (`_check_real`)
    or a list, tuple, range or ndarray read as `validate` reads a matrix
    (`_real_array`), all finite: a float for a 0-d result, an empty array
    when either is empty. BadParameter otherwise, or if they do not broadcast.
    """
    args = []
    for x, name in ((lam, "lam"), (gamma, "gamma")):
        if not isinstance(x, (list, tuple, range, np.ndarray)):
            args.append(_check_real(x, name))
            continue
        a = _real_array(x, f"{name} must be an array")
        if not np.isfinite(a).all():
            raise BadParameter(f"{name} has a non-finite entry")
        args.append(a)
    try:
        np.broadcast_shapes(*map(np.shape, args))
    except ValueError as e:
        raise BadParameter(f"lam and gamma do not broadcast: {e}") from None
    tops = (float(np.max(np.abs(a), initial=0.0)) for a in args)
    _check_roots(_mla_coefficients, *tops, "gamma")
    out = _max_root_modulus(*_mla_coefficients(*args))
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
    maximum over the whole spectrum, bit for bit, for a Python float param.
    """
    _require_simple_dominant(spec)
    _check_roots(coefficients, _MAX_MODULUS, param, name)
    w = spec._floats
    n = len(w)
    b, c = coefficients(w[0], param)
    plus, minus = _root_pair(b, c)
    best = abs(minus if abs(plus - 1.0) <= abs(minus - 1.0) else plus)
    if n == 1:
        return best
    # lambda_2 and lambda_n once each: one read at n = 2
    b, c = coefficients(w[1], param)
    at_lo = at_hi = _larger_modulus(b, c)
    if n > 2:
        b, c = coefficients(w[-1], param)
        at_hi = _larger_modulus(b, c)
    # plain comparisons, not max(): the same bits, as no modulus is NaN or -0.0
    if at_lo > best:
        best = at_lo
    if at_hi > best:
        best = at_hi
    lo, hi = 2, n - 2
    while lo <= hi and at_lo * _WALK_SCALE + _WALK_FLOOR >= best:
        b, c = coefficients(w[lo], param)
        at_lo = _larger_modulus(b, c)
        if at_lo > best:
            best = at_lo
        lo += 1
    while lo <= hi and at_hi * _WALK_SCALE + _WALK_FLOOR >= best:
        b, c = coefficients(w[hi], param)
        at_hi = _larger_modulus(b, c)
        if at_hi > best:
            best = at_hi
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
    that is not a finite real number or overflows the roots. Any real
    gamma is read as the Python float it holds.
    """
    if type(gamma) is not float:
        gamma = _check_real(gamma, "gamma")
    limiting = _limiting_modulus(spec, gamma, _mla_coefficients, "gamma")
    lam_n = spec._floats[-1]
    criterion = 2.0 * gamma * lam_n - lam_n + 1.0
    in_range = 0.0 < gamma < 2.0
    converges = in_range and criterion > spec._bound
    return _new_verdict(ConvergenceVerdict, (converges, in_range, criterion, limiting))


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
    """Max modulus over non-dominant accelerated-model eigenvalues at beta,
    and at least 1 where `rho_ess` is 1, as lam = -1 maps to the root -1.

    Raises as `check_mla_convergence` does on the spectrum and beta.
    """
    if type(beta) is not float:
        beta = _check_real(beta, "beta")
    radius = _limiting_modulus(spec, beta, _accelerated_coefficients, "beta")
    return max(radius, 1.0) if rho_ess(spec) == 1.0 else radius


def model_rate(spec: Spectrum, model: ModelParams) -> float:
    """Rate of the model on the network: its iteration's essential radius,
    `rho_ess` (DeGroot), `rho_ess_accelerated` or `rho_ess_mla`.

    Raises NotConvergent when the model never settles (MLA decided by
    `check_mla_convergence`, the others by a radius of 1 or more, as on a
    periodic network) and DominantNotSimple on a reducible network.
    """
    _check_type(model, ModelParams, "model")
    if model.kind is ModelKind.MLA:
        return rho_ess_mla(spec, model.param)
    accelerated = model.kind is ModelKind.ACCELERATED
    rate = rho_ess_accelerated(spec, model.param) if accelerated else rho_ess(spec)
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
    return _mean(_check_vector(A, x0, "x0"))


def _optimum_radius(spec: Spectrum) -> float:
    """rho_ess, or BadSpectrum unless it lies in (certificate_bound(n), 1):
    as in `improving_gamma_exists`, a radius within the bound reads as 0
    (on a complete graph it is rounding noise) and neither optimum exists."""
    rho = rho_ess(spec)
    tol = spec._bound
    if not tol < rho < 1.0:
        raise BadSpectrum(f"essential radius {rho!r} is not inside ({tol:.3g}, 1)")
    return rho


def optimal_gamma(spec: Spectrum) -> GammaStar:
    """Rate-optimal MLA parameter and the rate it achieves.

    gamma* places the discriminant zero exactly on the smallest
    eigenvalue, turning the slowest real pair into a critically damped
    one. The closed-form rate sqrt(1 + rho) - 1 is exact when the
    smallest eigenvalue carries the essential radius and the second
    eigenvalue is at most a third of its magnitude; outside those
    hypotheses the returned rate is recomputed by `rho_ess_mla` and
    hypotheses_met is False. Both hold within `certificate_bound(n)`.
    BadSpectrum unless lam_n < 0 and `_optimum_radius` accepts rho.
    """
    rho = _optimum_radius(spec)
    w = spec._floats
    lam_n = w[-1]
    if lam_n >= 0.0:
        raise BadSpectrum(f"smallest eigenvalue must be negative, got {lam_n!r}")
    lam_2 = w[1]
    tol = spec._bound
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
    larger one raises sqrt(beta - 1). BadSpectrum unless `_optimum_radius`
    accepts rho.
    """
    rho = _optimum_radius(spec)
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
    tol = spec._bound
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


class AnalysisSummary(NamedTuple):
    """What `summary` knows: the `analyze` porcelain keys in order, then
    why neither optimum exists. A value that does not exist is None, and
    so is each field from gamma on when no gamma was given."""

    n: int
    spectrum: tuple[float, ...]
    rho_ess: float
    degroot_rate: float
    gamma_star: float | None
    mla_rate: float | None
    mla_hypotheses_met: bool | None
    beta_star: float | None
    accelerated_rate: float | None
    rate_chain_ok: bool
    gamma: float | None = None
    gamma_converges: bool | None = None
    gamma_in_range: bool | None = None
    criterion_ii_value: float | None = None
    limiting_modulus: float | None = None
    mla_rate_at_gamma: float | None = None
    no_optima: str | None = None


def summary(spec: Spectrum, gamma: float | None = None) -> AnalysisSummary:
    """Everything the `analyze` subcommand reports, in one record: rho_ess,
    which is the DeGroot rate, gamma* and beta* where `optimal_gamma` and
    `optimal_beta` find them, whether their rates order MLA < accelerated <
    DeGroot, and a given gamma's `check_mla_convergence` verdict with its
    MLA rate if it converges. Raises as `rho_ess`, then the optima but for
    BadSpectrum, then the verdict would, in that order.
    """
    rho = rho_ess(spec)
    gs = bs = no_optima = None
    with suppress(BadSpectrum):  # gamma* also needs lambda_n < 0; beta* says the rest
        gs = optimal_gamma(spec)
    try:
        bs = optimal_beta(spec)
    except BadSpectrum as e:
        no_optima = str(e)
    at_gamma = ()
    if gamma is not None:
        gamma = _check_real(gamma, "gamma")
        v = check_mla_convergence(spec, gamma)
        at_gamma = (gamma, *v, v.limiting_eigenvalue_modulus if v.converges else None)
    # GammaStar, BetaStar and the verdict fill their fields in their own order
    return AnalysisSummary(
        len(spec._floats), spec._floats, rho, rho,
        *(gs or (None,) * 3), *(bs or (None,) * 2),
        gs is not None and bs is not None and gs.rate < bs.rate < rho,
        *at_gamma, no_optima=no_optima,
    )
