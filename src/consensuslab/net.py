"""Weighted adjacency matrices: validation, structure checks, generators, file I/O.

All models in this package run on non-negative row-stochastic weight
matrices: entry (i, j) is the weight agent i assigns to agent j's state.
Whether an update rule settles, and how fast, is decided by structural
properties of the weight pattern (symmetry, irreducibility, primitivity)
together with its spectrum, so those checks live here next to the
constructors. A `WeightedAdjacency` checks itself when it is built, so no
network exists unchecked and every function trusts one it is handed;
`validate` is the conversion of a raw matrix into one.
"""

from __future__ import annotations

import math
import operator
import os
import reprlib
from dataclasses import dataclass, field

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


_shown = reprlib.Repr()  # shows a value in a message, cut to about 80 chars
_shown.maxstring = _shown.maxother = 80
# an int past 128 bits (40 chars) shows by its bit count: str() refuses 4,301 digits
_shown.repr_int = lambda x, level: (
    repr(x) if x.bit_length() <= 128 else f"{'-' * (x < 0)}<{x.bit_length()}-bit int>"
)
_show = _shown.repr


def _check_type(value, types, name: str, kind: str | None = None) -> None:
    """BadParameter("<name> must be a <kind>, got <type of value>") unless
    value is an instance of types; kind defaults to the class name. The one
    wording of every argument of the wrong type."""
    if not isinstance(value, types):
        kind = kind or types.__name__
        raise BadParameter(f"{name} must be a {kind}, got {type(value).__name__}")


def _check_int(value, name: str, least: int | None = None) -> int:
    """value as an int; BadParameter unless it is an integer (np.int64
    too, not a float) of at least `least`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise BadParameter(f"{name} must be an integer, got {_show(value)}") from None
    if least is not None and value < least:
        raise BadParameter(f"{name} must be >= {least}, got {_show(value)}")
    return value


def _check_real(value, name: str) -> float:
    """float(value), the one arithmetic of every real parameter; BadParameter
    unless value is a bool, int or float, Python or numpy, that float() can
    hold and that is finite: NaN and infinity get the one message
    "<name>=<value> must be a finite real number"."""
    if not isinstance(value, (int, float, np.bool_, np.integer, np.floating)):
        raise BadParameter(f"{name} must be a real number, got {_show(value)}")
    try:  # float() reads a longdouble past its range as infinite
        x = float(value)
        if math.isinf(x) and np.isfinite(value):
            raise OverflowError
    except OverflowError:
        raise BadParameter(f"{name} lies beyond the float range") from None
    if not math.isfinite(x):
        raise BadParameter(f"{name}={x!r} must be a finite real number")
    return x


def _new_array(make, size, name: str, value) -> np.ndarray:
    """make(size); BadParameter naming `name`=value for a size numpy refuses."""
    try:
        return make(size)
    except ValueError:  # "array is too big", "Maximum allowed dimension exceeded"
        message = f"{name}={_show(value)} is too large for a numpy array"
        raise BadParameter(message) from None


def _open(path, mode: str):
    """open(path, mode) for a str, bytes or os.PathLike path (BadParameter
    otherwise). An OSError keeps its errno, and so its subclass and
    strerror, but names the path through `_show`: its own text would
    repeat a long path whole."""
    # open() would also take an int (a bool too) as a file descriptor, and
    # close it: the caller's descriptor, or the process's stdout for 1
    _check_type(path, (str, bytes, os.PathLike), "path", "str, bytes or os.PathLike")
    try:
        return open(path, mode)
    except OSError as e:
        raise OSError(e.errno, e.strerror, _show(path)) from None


def _real_array(x, what: str) -> np.ndarray:
    """A new float array of x; BadParameter("<what> of real numbers: ...")
    unless x is an array of real numbers.

    numpy infers the dtype once: a complex one, even from complex values
    inside a list, is rejected rather than cast with its imaginary parts
    dropped, and so are datetime64 and timedelta64, which would cast to
    integer counts; numeric strings convert as float() reads them and None
    reads as NaN. The first entry that does not convert, an int past the
    float range included, is named. A float input is copied once, then
    cast without a copy.
    """
    try:
        x = np.array(x)
        if x.dtype.kind in "cmM":
            raise TypeError(f"{x.dtype} values")
        return x.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as e:
        if isinstance(x, np.ndarray) and x.dtype.kind in "OSU":  # the cast failed
            # bisect for the first entry that fails, casting n entries in all
            flat, lo, hi = x.reshape(-1), 0, x.size
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    flat[lo:mid].astype(float)
                    lo = mid
                except (TypeError, ValueError, OverflowError):
                    hi = mid
            e = f"{_show(flat.item(lo))} does not convert"
        raise BadParameter(f"{what} of real numbers: {e}") from None


@dataclass(frozen=True, eq=False)
class WeightedAdjacency:
    """An n-by-n non-negative row-stochastic weight matrix, checked when built.

    Raises BadParameter on entries that are not real numbers (complex,
    non-numeric strings, ragged rows) or n < 2, NotSquare, NonFiniteWeight
    (NaN or infinite entry, None included), NegativeWeight, or
    RowSumViolation: row sums must be 1 within ROW_SUM_TOL. `weights` is
    converted once and kept read-only; `n` is read off its shape.
    """

    weights: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        W = _real_array(self.weights, "weights must be a matrix")
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise NotSquare(f"expected a square matrix, got shape {W.shape}")
        if (n := W.shape[0]) < 2:
            raise BadParameter(f"need at least 2 agents, got n={n}")
        if (nonfinite := np.argwhere(~np.isfinite(W))).size:
            i, j = map(int, nonfinite[0])
            raise NonFiniteWeight(i, j, float(W[i, j]))
        if (neg := np.argwhere(W < 0.0)).size:
            i, j = map(int, neg[0])
            raise NegativeWeight(i, j, float(W[i, j]))
        sums = W.sum(axis=1)
        if (bad := np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)).size:
            raise RowSumViolation(int(bad[0]), float(sums[bad[0]]))
        W.setflags(write=False)
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "n", n)


def validate(weights) -> WeightedAdjacency:
    """A raw matrix as a network: `WeightedAdjacency(weights)`, with its checks."""
    return WeightedAdjacency(weights)


def _asymmetry(W: np.ndarray) -> float:
    """max|W - W^T|, the one measure of symmetry in the package."""
    return float(np.max(np.abs(W - W.T)))


def require_symmetric(A: WeightedAdjacency) -> None:
    """Raise NotSymmetric unless A is symmetric.

    Symmetric means every entry matches its transpose within SYMMETRY_TOL;
    the eigensolver and the results that take the initial mean as the
    consensus value rely on it. BadParameter when A is not a network.
    """
    _check_type(A, WeightedAdjacency, "network")
    asym = _asymmetry(A.weights)
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"matrix is asymmetric by {asym:.3e}")


def _bfs_levels(pattern: np.ndarray) -> np.ndarray:
    """BFS level of every node reached from node 0 along pattern edges, -1 if none.

    A bitset search: row u of the pattern is packed once into a Python
    int whose bit v is the edge (u, v), and each reached node is
    expanded exactly once, by or-ing its row into the next frontier's
    reach. That is O(n) Python integer steps and O(n^2 / 64) machine
    words, however many levels the search has.
    """
    n = pattern.shape[0]
    packed = np.packbits(pattern, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    rows = [
        int.from_bytes(data[i : i + width], "little")
        for i in range(0, n * width, width)
    ]
    level = [-1] * n
    seen = frontier = 1
    d = 0
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            v = low.bit_length() - 1
            level[v] = d
            reach |= rows[v]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
        d += 1
    return np.array(level)


def _exponent(pattern: np.ndarray) -> int:
    """Smallest k with an all-positive pattern power, for a primitive pattern.

    Squares the 0/1 pattern until a power is all-positive, then lowers the
    exponent bit by bit with the stored squares. The search is monotone:
    for an irreducible pattern, P^k > 0 implies P^(k+1) > 0. Each product
    is clipped back to 0/1 in place, so the next one sums at most n
    products of 0 and 1: its entries and every partial sum are integers
    <= n, which float32 holds exactly up to 2^24 (far beyond any pattern
    that fits in memory). So each all-positive test is exact under any
    BLAS summation order or thread count.
    """
    squares = [pattern.astype(np.float32)]
    while not squares[-1].all():
        s = squares[-1] @ squares[-1]
        squares.append(np.minimum(s, 1.0, out=s))
    if len(squares) == 1:
        return 1
    # squares[-2] is not all-positive and squares[-1] is: grow the exponent
    # of squares[-2] by each lower square that keeps the product so
    k = 1 << (len(squares) - 2)
    power = squares[-2]
    for j in range(len(squares) - 3, -1, -1):
        candidate = power @ squares[j]
        np.minimum(candidate, 1.0, out=candidate)
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
      a bitset search that expands each reached node once.
    - primitive: irreducible with period 1, where the period is the gcd
      of level[u] + 1 - level[v] over the edges (u, v) and level is the
      BFS depth from node 0 (Denardo, "Periods of connected networks and
      powers of nonnegative matrices", Math. Oper. Res. 2(1), 1977).
    - witness_k (primitive only): the smallest all-positive power, found
      by repeated squaring of the 0/1 pattern in float32 and a binary
      search back down, O(n^3 log n) against the sharp bound (n-1)^2 + 1.
    """
    _check_type(A, WeightedAdjacency, "network")
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
    self_loop = _check_real(self_loop, "self_loop")
    if not 0.0 <= self_loop < 1.0:
        raise BadParameter(f"self_loop must lie in [0, 1), got {_show(self_loop)}")
    off = (1.0 - self_loop) / 2.0
    I = _new_array(np.eye, n, "ring size n", n)
    W = off * (np.roll(I, 1, axis=1) + np.roll(I, -1, axis=1))
    np.fill_diagonal(W, self_loop)
    return validate(W)


def write_matrix(A: WeightedAdjacency, path) -> None:
    """Write the plain-text matrix format: first line n, then n rows.

    Values are printed with 17 significant digits so a read-back is
    value-exact.
    """
    _check_type(A, WeightedAdjacency, "network")
    with _open(path, "w") as fh:
        fh.write(f"{A.n}\n")
        np.savetxt(fh, A.weights, "%.17g")


def read_matrix(path) -> WeightedAdjacency:
    """Read the plain-text matrix format and validate the result.

    Raises BadParameter unless path is a str, bytes or os.PathLike,
    OSError on an unreadable path, ParseError (with the 1-based file
    line) on malformed or non-UTF-8 input, then the validate() errors.
    """
    with _open(path, "rb") as fh:
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
        got = _show(lines[0])
        raise ParseError(1, f"expected the matrix size, got {got}") from None
    if n < 1:
        raise ParseError(1, f"matrix size must be positive, got {_show(n)}")
    if len(lines) - 1 != n:
        raise ParseError(
            len(lines), f"expected {_show(n)} rows, found {len(lines) - 1}"
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
