"""Weighted adjacency matrices: validation, structure checks, generators, file I/O.

All models in this package run on non-negative row-stochastic weight
matrices: entry (i, j) is the weight agent i assigns to agent j's state.
Whether an update rule settles, and how fast, is decided by structural
properties of the weight pattern (symmetry, irreducibility, primitivity)
together with its spectrum, so those checks live here next to the
constructors.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameter,
    NegativeWeight,
    NonFiniteWeight,
    NotSquare,
    NotSymmetric,
    ParseError,
    RowSumViolation,
)

ROW_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightedAdjacency:
    """A validated n-by-n non-negative row-stochastic weight matrix."""

    n: int
    weights: np.ndarray


@dataclass(frozen=True)
class StructureReport:
    """Structural flags of a weight pattern.

    witness_k is the smallest power with an entrywise-positive pattern;
    it is present exactly when the matrix is primitive.
    """

    symmetric: bool
    irreducible: bool
    primitive: bool
    witness_k: int | None = None


def _check_int(value, name: str, least: int | None = None) -> int:
    """value as an int; BadParameter unless it is an integer (np.int64
    too, not a float) of at least `least`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise BadParameter(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise BadParameter(f"{name} must be >= {least}, got {value}")
    return value


def _check_network(A) -> None:
    """BadParameter unless A is a WeightedAdjacency, as `validate` returns."""
    if not isinstance(A, WeightedAdjacency):
        raise BadParameter(
            f"network must be a WeightedAdjacency, got {type(A).__name__}"
        )


def _real_array(x, what: str) -> np.ndarray:
    """A new float array of x; BadParameter("<what> of real numbers: ...")
    unless x is an array of real numbers.

    numpy infers the dtype once: a complex one, even from complex values
    inside a list, is rejected rather than cast with its imaginary parts
    dropped; numeric strings convert as float() reads them and None
    reads as NaN. A float input is copied once, then cast without a copy.
    """
    try:
        x = np.array(x)
        if x.dtype.kind == "c":
            raise TypeError("complex values")
        return x.astype(float, copy=False)
    except (TypeError, ValueError) as e:
        raise BadParameter(f"{what} of real numbers: {e}") from None


def validate(weights) -> WeightedAdjacency:
    """Wrap a raw matrix after checking non-negativity and row sums.

    Raises BadParameter on entries that are not real numbers (complex,
    non-numeric strings, ragged rows) or n < 2, NotSquare, NonFiniteWeight
    (NaN or infinite entry, None included), NegativeWeight, or
    RowSumViolation. Row sums must be 1 within 1e-12.
    """
    W = _real_array(weights, "weights must be a matrix")
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {W.shape}")
    n = W.shape[0]
    if n < 2:
        raise BadParameter(f"need at least 2 agents, got n={n}")
    nonfinite = np.argwhere(~np.isfinite(W))
    if nonfinite.size:
        i, j = map(int, nonfinite[0])
        raise NonFiniteWeight(i, j, float(W[i, j]))
    neg = np.argwhere(W < 0.0)
    if neg.size:
        i, j = map(int, neg[0])
        raise NegativeWeight(i, j, float(W[i, j]))
    sums = W.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
    if bad.size:
        i = int(bad[0])
        raise RowSumViolation(i, float(sums[i]))
    W.setflags(write=False)
    return WeightedAdjacency(n=n, weights=W)


def _asymmetry(W: np.ndarray) -> float:
    """max|W - W^T|, the one measure of symmetry in the package."""
    return float(np.max(np.abs(W - W.T)))


def require_symmetric(A: WeightedAdjacency) -> None:
    """Raise NotSymmetric unless A is symmetric.

    Symmetric means every entry matches its transpose within SYMMETRY_TOL;
    the eigensolver and the results that take the initial mean as the
    consensus value rely on it. BadParameter when A is not a network.
    """
    _check_network(A)
    asym = _asymmetry(A.weights)
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"matrix is asymmetric by {asym:.3e}")


def _bfs_levels(pattern: np.ndarray) -> np.ndarray:
    """BFS level of every node reached from node 0 along pattern edges, -1 if none."""
    level = np.full(pattern.shape[0], -1)
    level[0] = 0
    frontier = level == 0
    d = 0
    while frontier.any():
        d += 1
        frontier = pattern[frontier].any(axis=0) & (level < 0)
        level[frontier] = d
    return level


def _exponent(pattern: np.ndarray) -> int:
    """Smallest k with an all-positive pattern power, for a primitive pattern.

    Squares the 0/1 pattern until a power is all-positive, then lowers the
    exponent bit by bit with the stored squares. The search is monotone:
    for an irreducible pattern, P^k > 0 implies P^(k+1) > 0. Products of
    0/1 float matrices hold integers <= n, so they are exact under any
    BLAS summation order.
    """
    squares = [pattern.astype(np.float64)]
    while not squares[-1].all():
        squares.append((squares[-1] @ squares[-1] > 0.0).astype(np.float64))
    if len(squares) == 1:
        return 1
    # squares[-2] is not all-positive and squares[-1] is: grow the exponent
    # of squares[-2] by each lower square that keeps the product so
    k = 1 << (len(squares) - 2)
    power = squares[-2]
    for j in range(len(squares) - 3, -1, -1):
        candidate = (power @ squares[j] > 0.0).astype(np.float64)
        if not candidate.all():
            power = candidate
            k += 1 << j
    return k + 1


def analyze_structure(A: WeightedAdjacency) -> StructureReport:
    """Report symmetry, irreducibility, and primitivity of the weight pattern.

    Everything runs on the sparsity pattern (entry > 0), never on the
    floating values, in polynomial time:

    - irreducible: breadth-first search from node 0 reaches every node
      along the pattern and, if it is not symmetric, along its transpose;
      each frontier step is one vectorised row-any, diameter + 1 at most.
    - primitive: irreducible with period 1, where the period is the gcd
      of level[u] + 1 - level[v] over the edges (u, v) and level is the
      BFS depth from node 0 (Denardo, "Periods of connected networks and
      powers of nonnegative matrices", Math. Oper. Res. 2(1), 1977).
    - witness_k (primitive only): the smallest all-positive power, found
      by repeated squaring of the 0/1 pattern and a binary search back
      down, O(n^3 log n) against the sharp bound (n-1)^2 + 1.
    """
    _check_network(A)
    W = A.weights
    symmetric = _asymmetry(W) <= SYMMETRY_TOL

    pattern = W > 0.0
    level = _bfs_levels(pattern)
    irreducible = bool(
        (level >= 0).all()
        and (np.array_equal(pattern, pattern.T) or (_bfs_levels(pattern.T) >= 0).all())
    )

    witness_k = None
    if irreducible:
        u, v = np.nonzero(pattern)
        period = int(np.gcd.reduce(np.abs(level[u] + 1 - level[v])))
        if period == 1:
            witness_k = _exponent(pattern)
    return StructureReport(
        symmetric=symmetric,
        irreducible=irreducible,
        primitive=witness_k is not None,
        witness_k=witness_k,
    )


def make_ring(n: int, self_loop: float = 0.0) -> WeightedAdjacency:
    """Circulant ring of n agents, each listening to its two neighbors.

    Every agent keeps `self_loop` weight on itself and splits the rest
    evenly between the two ring neighbors. self_loop = 0 gives the pure
    periodic ring (bipartite for even n, hence never primitive there).
    """
    n = _check_int(n, "ring size n", 3)
    if not (isinstance(self_loop, numbers.Real) and 0.0 <= self_loop < 1.0):
        raise BadParameter(f"self_loop must lie in [0, 1), got {self_loop!r}")
    off = (1.0 - self_loop) / 2.0
    I = np.eye(n)
    W = off * (np.roll(I, 1, axis=1) + np.roll(I, -1, axis=1))
    np.fill_diagonal(W, self_loop)
    return validate(W)


def write_matrix(A: WeightedAdjacency, path) -> None:
    """Write the plain-text matrix format: first line n, then n rows.

    Values are printed with 17 significant digits so a read-back is
    value-exact.
    """
    _check_network(A)
    with open(path, "w") as fh:
        fh.write(f"{A.n}\n")
        np.savetxt(fh, A.weights, "%.17g")


def read_matrix(path) -> WeightedAdjacency:
    """Read the plain-text matrix format and validate the result.

    Raises OSError on an unreadable path, ParseError (with the 1-based
    file line) on malformed or non-UTF-8 input, then the validate() errors.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        # the bad byte's line, numbered as splitlines() numbers the text
        line = len((data[: e.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line, f"byte {e.start} is not UTF-8 text") from None
    # ignore trailing blank lines only; blank lines inside the body are errors
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError(1, "empty file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(1, f"expected the matrix size, got {lines[0]!r}") from None
    if n < 1:
        raise ParseError(1, f"matrix size must be positive, got {n}")
    if len(lines) - 1 != n:
        raise ParseError(
            len(lines), f"expected {n} rows, found {len(lines) - 1}"
        )
    # a row is converted once it holds n tokens: memory stays O(file size)
    rows = []
    for r, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != n:
            raise ParseError(r + 2, f"row {r} has {len(parts)} values, expected {n}")
        try:
            rows.append(np.array(parts, dtype=float))  # each str as float() reads it
        except ValueError:
            raise ParseError(r + 2, f"row {r} has a non-numeric value") from None
    return validate(rows)
