"""Exception types raised across the package.

Every error carries enough structure (indices, offending values) for a
caller to report the problem without re-deriving it.
"""


class ConsensusLabError(Exception):
    """Base class for all errors raised by consensuslab."""


# ---------------------------------------------------------------- networks


class NotSquare(ConsensusLabError):
    """Weight matrix is not a square 2-D array."""


class NonFiniteWeight(ConsensusLabError):
    """A weight entry is NaN or infinite."""

    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"weight ({i}, {j}) is not finite: {value!r}")


class NegativeWeight(ConsensusLabError):
    """A weight entry is negative."""

    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"weight ({i}, {j}) is negative: {value!r}")


class RowSumViolation(ConsensusLabError):
    """A row does not sum to 1 within tolerance."""

    def __init__(self, row: int, total: float):
        self.row, self.total = row, total
        super().__init__(f"row {row} sums to {total!r}, expected 1")


class BadParameter(ConsensusLabError):
    """An argument is outside its admissible range."""


class AssumptionViolated(ConsensusLabError):
    """Input does not satisfy a structural precondition."""


class NotSymmetric(AssumptionViolated):
    """Operation requires a symmetric matrix."""


class ParseError(ConsensusLabError):
    """A matrix file is malformed."""

    def __init__(self, line: int, reason: str):
        self.line, self.reason = line, reason
        super().__init__(f"line {line}: {reason}")


# ---------------------------------------------------------------- spectral


class DominantNotSimple(AssumptionViolated):
    """The dominant eigenvalue 1 is not simple (reducible input)."""


# ---------------------------------------------------------------- dynamics


class DimensionMismatch(ConsensusLabError):
    """State vector length does not match the network size."""


# ---------------------------------------------------------------- analysis


class NotConvergent(ConsensusLabError):
    """Requested a convergence rate for a non-convergent configuration."""


class BadSpectrum(ConsensusLabError):
    """Spectrum outside the admissible range for an optimality formula, or
    an eigendecomposition that failed its certificate."""


class DegenerateSpectrum(ConsensusLabError):
    """The two extreme non-dominant eigenvalues cancel; no unique
    essential eigenvalue exists."""


# ---------------------------------------------------------------- sim


class InsufficientData(ConsensusLabError):
    """Too few usable samples to fit a decay rate."""


class NormalizationFailed(ConsensusLabError):
    """Iterative row normalization hit its iteration cap."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"row-sum residual {residual:.3e} at iteration cap")
