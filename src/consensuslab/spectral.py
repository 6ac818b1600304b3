"""Eigendecomposition of symmetric weight matrices.

The solver is LAPACK's symmetric eigensolver behind `np.linalg.eigh`,
followed by a stable descending sort and a fixed eigenvector sign
convention. Every solve is certified: the returned `Spectrum` carries its
eigen-residual and orthogonality error, and a solve whose certificate
exceeds `certificate_bound(n)` raises instead of returning. Output is
bit-identical for a fixed numpy/BLAS build and BLAS thread count.

Spectra of the 2n-by-2n stacked iteration matrix are never computed with a
general eigensolver. They come from the closed-form quadratic mapping in
`analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolated, BadParameter, BadSpectrum, DominantNotSimple
from .net import ROW_SUM_TOL, SYMMETRY_TOL, WeightedAdjacency, require_symmetric


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
# a leading eigenvalue this far from 1 is not from a row-stochastic matrix
# at all (a hand-built spectrum): an input guard, not a rounding bound
_DOMINANT_ONE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues sorted descending with orthonormal eigenvectors.

    Column i of `eigenvectors` pairs with `eigenvalues[i]`. For a valid
    symmetric row-stochastic irreducible input the leading eigenvalue is 1
    and all others lie in [-1, 1). `residual` is max|W V - V diag(w)| and
    `orth_error` is max|V^T V - I|, the certificate of the solve; both are
    NaN on a spectrum built by hand rather than by the solver.

    Construction raises BadSpectrum unless the eigenvalues are a
    non-empty 1-D real finite array sorted descending and the eigenvectors
    are n-by-n: `rho_ess` and the root mapping in `analysis` read the
    extremes of the spectrum at its two ends. The eigenvalues are kept
    read-only (a writable input is copied) beside `_floats`, the Python
    floats `analysis` reads, so neither can go stale.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float = float("nan")
    orth_error: float = float("nan")
    _floats: tuple[float, ...] = field(init=False, repr=False)

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
        if np.shape(self.eigenvectors) != (w.size, w.size):
            raise BadSpectrum(
                f"eigenvectors must be {w.size}-by-{w.size}, "
                f"got shape {np.shape(self.eigenvectors)}"
            )
        object.__setattr__(self, "_floats", tuple(map(float, w)))


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
    significant = np.abs(vecs) > 1e-8
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
    return 1.0 if rho >= 1.0 - certificate_bound(len(w)) else rho


def _require_simple_dominant(spec: Spectrum) -> None:
    """Raise unless the spectrum leads with a simple eigenvalue 1.

    AssumptionViolated when the leading eigenvalue is more than 1e-8 from
    1, as no row-stochastic spectrum is; DominantNotSimple when the second
    is within `_contract_bound(n)` of 1: a network that is reducible, or
    within the input error the network checks allow of one, whose
    components settle apart. BadParameter when spec is not a Spectrum.
    """
    if not isinstance(spec, Spectrum):
        raise BadParameter(f"spectrum must be a Spectrum, got {type(spec).__name__}")
    # Python floats: a float32 spectrum would round 1 minus the bound to 1
    w = spec._floats
    if abs(w[0] - 1.0) > _DOMINANT_ONE_TOL:
        raise AssumptionViolated(
            f"dominant eigenvalue {w[0]!r} is not 1; input is not a valid "
            "row-stochastic network spectrum"
        )
    if len(w) >= 2 and w[1] >= 1.0 - (bound := _contract_bound(len(w))):
        raise DominantNotSimple(
            f"network is reducible: second eigenvalue {w[1]!r} "
            f"is within {bound:g} of 1"
        )
