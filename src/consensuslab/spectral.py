"""Eigendecomposition of symmetric weight matrices.

The solver is LAPACK's symmetric eigensolver behind `np.linalg.eigh`,
followed by a stable descending sort and a fixed eigenvector sign
convention. Every solve is certified: the returned `Spectrum` carries its
eigen-residual and orthogonality error, and a solve whose certificate
exceeds `certificate_bound(n)` raises instead of returning. Output is
bit-identical for a fixed numpy/BLAS build and BLAS thread count.

A `Spectrum` settles when it is built what every analysis call would
otherwise derive again: the simple-dominant rule (`_dominance_fault`),
which holds the spectrum to [-1, 1], and `certificate_bound(n)`.

Spectra of the 2n-by-2n stacked iteration matrix are never computed with a
general eigensolver. They come from the closed-form quadratic mapping in
`analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolated, BadSpectrum, DominantNotSimple
from .net import (
    ROW_SUM_TOL,
    SYMMETRY_TOL,
    WeightedAdjacency,
    _check_type,
    require_symmetric,
)


def certificate_bound(n: int) -> float:
    """Rounding bound of an n-by-n symmetric solve: 16 n eps.

    A backward-stable symmetric eigensolver returns the exact eigenpairs
    of W + E with ||E||_2 <= c n eps ||W||_2, orthonormal to c n eps, and
    ||W||_2 = 1 for a symmetric row-stochastic W. So c n eps bounds the
    residual and orthogonality error a solve may show and, by Weyl's
    inequality, how far each computed eigenvalue may sit from the exact
    one. c = 16 is twelve times the worst certificate measured on random
    networks and on pure, self-loop and relabelled rings with n <= 256
    (1.33 n eps). Every test whether a computed value is 1, -1 or 0 reads
    this bound; the two that decide a network's structure add the input
    error as well (`_contract_bound`).
    """
    return 16.0 * n * _EPS


def _contract_bound(n: int) -> float:
    """How far a computed eigenvalue may sit from an eigenvalue 1 of a
    network `validate` and `require_symmetric` accept: the solve error
    plus the row-sum error of the lower triangle that `eigh` reads.

    Those rows sum to 1 - d_i, |d_i| <= ROW_SUM_TOL + (n - 1) SYMMETRY_TOL,
    and to exactly 1 after adding diag(d), a symmetric change of 2-norm
    max|d_i| that keeps the pattern; so a reducible network's repeated 1
    moves by at most that much (Weyl).
    """
    return certificate_bound(n) + ROW_SUM_TOL + (n - 1) * SYMMETRY_TOL


_EPS = float(np.finfo(float).eps)
# a leading eigenvalue this far from 1, or a smallest this far below -1, is
# from no row-stochastic matrix (a hand-built spectrum): an input guard
_DOMINANT_ONE_TOL = 1e-8
_MAX_MODULUS = 1.0 + _DOMINANT_ONE_TOL  # rounded down: the largest modulus admitted
# each eigenvector's sign is set by its first entry above this: the solve
# error certificate_bound(n) stays below it up to n of about 2.8e6, so an
# entry that is zero but for rounding never sets the sign
_SIGN_CUTOFF = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues sorted descending, with the solver's eigenvectors.

    Column i of `eigenvectors` pairs with `eigenvalues[i]`; no library
    code reads them, so a hand-built spectrum may leave them None, and it
    meets the same checks and bounds as a solved one. The solve's
    certificate is `residual` = max|W V - V diag(w)| and `orth_error` =
    max|V^T V - I|, both NaN when built by hand. A valid symmetric
    row-stochastic irreducible input leads with 1, the rest in [-1, 1).

    Construction raises BadSpectrum unless the eigenvalues are a
    non-empty 1-D real finite array sorted descending and eigenvectors,
    if given, are n-by-n: `rho_ess` and the root mapping in `analysis`
    read the extremes of the spectrum at its two ends. The eigenvalues are
    kept read-only (a writable input is copied) beside what construction
    derives from them once, so none of it can go stale: `_floats`, the
    Python floats `analysis` reads; `_simple`, whether they meet the
    simple-dominant rule; and `_bound`, `certificate_bound(n)`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    residual: float = float("nan")
    orth_error: float = float("nan")
    _floats: tuple[float, ...] = field(init=False, repr=False)
    _simple: bool = field(init=False, repr=False)
    _bound: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w = self.eigenvalues
        if not (isinstance(w, np.ndarray) and w.ndim == 1 and w.size >= 1):
            raise BadSpectrum("eigenvalues must be a non-empty 1-D array")
        if w.flags.writeable:
            object.__setattr__(self, "eigenvalues", w := w.copy())
            w.setflags(write=False)
        if not (w.dtype.kind in "iuf" and np.isfinite(w).all()):
            raise BadSpectrum("eigenvalues must be real and finite")
        if (w[1:] > w[:-1]).any():
            raise BadSpectrum("eigenvalues must be sorted descending")
        if (v := self.eigenvectors) is not None:
            try:
                got = f"shape {np.shape(v)}"
            except ValueError:  # numpy refuses ragged rows
                got = "ragged rows"
            if got != f"shape {(w.size, w.size)}":
                raise BadSpectrum(
                    f"eigenvectors must be {w.size}-by-{w.size}, got {got}"
                )
        floats = tuple(w.astype(float, copy=False).tolist())
        object.__setattr__(self, "_floats", floats)
        object.__setattr__(self, "_simple", _dominance_fault(floats) is None)
        object.__setattr__(self, "_bound", certificate_bound(len(floats)))


def eigendecompose_symmetric(A: WeightedAdjacency) -> Spectrum:
    """Full eigendecomposition of a symmetric weight matrix.

    The input must be symmetric to 1e-12 entrywise (NotSymmetric
    otherwise). Eigenvalues come back sorted descending; eigenvectors are
    orthonormal columns with the first significant component of each made
    positive. Raises BadSpectrum when LAPACK fails or the residual or
    orthogonality error of the result exceeds `certificate_bound(n)`.
    """
    require_symmetric(A)
    W = A.weights
    try:
        vals, vecs = np.linalg.eigh(W)
    except np.linalg.LinAlgError as e:
        raise BadSpectrum(f"symmetric eigensolver failed: {e}") from e
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    significant = np.abs(vecs) > _SIGN_CUTOFF
    first = vecs[np.argmax(significant, axis=0), np.arange(A.n)]
    vecs[:, significant.any(axis=0) & (first < 0.0)] *= -1.0
    residual = float(np.max(np.abs(W @ vecs - vecs * vals)))
    orth_error = float(np.max(np.abs(vecs.T @ vecs - np.eye(A.n))))
    bound = certificate_bound(A.n)
    if not (residual <= bound and orth_error <= bound):
        raise BadSpectrum(
            f"eigensolver certificate failed: residual {residual:.3e}, "
            f"orthogonality error {orth_error:.3e}, bound {bound:.3e}"
        )
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return Spectrum(vals, vecs, residual, orth_error)


def rho_ess(spec: Spectrum) -> float:
    """Essential spectral radius: max modulus over non-dominant eigenvalues.

    Exactly 1 when a non-dominant eigenvalue lies within
    `certificate_bound(n)` of modulus 1: the computed spectrum cannot tell
    such an eigenvalue from the exact -1 of a periodic (bipartite)
    network. Zero for a single eigenvalue. Raises as
    `_require_simple_dominant` does.
    """
    _require_simple_dominant(spec)
    w = spec._floats
    if len(w) == 1:
        return 0.0
    # sorted descending, so the largest modulus sits at one of the ends
    rho = max(abs(w[1]), abs(w[-1]))
    return 1.0 if rho >= 1.0 - spec._bound else rho


def _dominance_fault(w: tuple[float, ...]) -> AssumptionViolated | None:
    """The error a spectrum w breaks the simple-dominant rule with, or None.

    AssumptionViolated when the leading eigenvalue is more than 1e-8 from
    1 or the smallest more than 1e-8 below -1, as in no row-stochastic
    spectrum; DominantNotSimple when the second is within
    `_contract_bound(n)` of 1, hand-built spectra included: a network that
    is reducible, or within the input error the network checks allow of
    one (a ring of self-loop 0.1 from n = 30,001, gap 1.97e-8 against
    3.01e-8; n = 25,000 passes, 2.84e-8 against 2.51e-8). Python floats:
    a float32 spectrum would round 1 minus the bound to 1.
    """
    if abs(w[0] - 1.0) > _DOMINANT_ONE_TOL:
        return AssumptionViolated(
            f"dominant eigenvalue {w[0]!r} is not 1; input is not a valid "
            "row-stochastic network spectrum"
        )
    if w[-1] + 1.0 < -_DOMINANT_ONE_TOL:
        return AssumptionViolated(
            f"smallest eigenvalue {w[-1]!r} is below -1; input is not a valid "
            "row-stochastic network spectrum"
        )
    if len(w) >= 2 and w[1] >= 1.0 - (bound := _contract_bound(len(w))):
        return DominantNotSimple(
            f"network is reducible: second eigenvalue {w[1]!r} "
            f"is within {bound:g} of 1"
        )
    return None


def _require_simple_dominant(spec: Spectrum) -> None:
    """Raise unless the spectrum leads with a simple eigenvalue 1.

    BadParameter when spec is not a Spectrum; otherwise the error of
    `_dominance_fault`, whose verdict the Spectrum settled when it was
    built, so a spectrum that meets the rule returns at once.
    """
    if not isinstance(spec, Spectrum):
        _check_type(spec, Spectrum, "spectrum")  # only to word the error
    if not spec._simple:
        raise _dominance_fault(spec._floats)
