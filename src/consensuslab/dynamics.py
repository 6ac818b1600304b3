"""The three averaging update rules.

DeGroot replaces each state with the weighted average of current neighbor
states. The accelerated variant mixes that average with the raw previous
states (weight beta). The memory-of-local-averages rule (MLA) averages
both the current and the previous states first and mixes the two averages
(weight gamma), so each agent only needs to remember its own previous
local average.

The three rules are written out once, in `_advance`, and `sim` iterates
them through `_states`, one product with the weight matrix per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadParameter, DimensionMismatch
from .net import WeightedAdjacency, _check_real, _check_type, _real_array


class ModelKind(Enum):
    DEGROOT = "degroot"
    ACCELERATED = "accelerated"
    MLA = "mla"


@dataclass(frozen=True)
class ModelParams:
    """A model choice plus its scalar parameter.

    The kind must be a ModelKind, not its string value (BadParameter).
    The parameter is beta for the accelerated model and gamma for MLA;
    DeGroot ignores it. It must be a finite real number (BadParameter, by
    `net._check_real`) and is kept as the Python float it holds. No range
    is enforced here: whether a parameter value converges is decided by
    the analysis operations.
    """

    kind: ModelKind
    param: float = 1.0

    def __post_init__(self):
        _check_type(self.kind, ModelKind, "model kind")
        object.__setattr__(self, "param", _check_real(self.param, "model parameter"))

    @classmethod
    def degroot(cls) -> "ModelParams":
        return cls(ModelKind.DEGROOT)

    @classmethod
    def accelerated(cls, beta: float) -> "ModelParams":
        return cls(ModelKind.ACCELERATED, beta)

    @classmethod
    def mla(cls, gamma: float) -> "ModelParams":
        return cls(ModelKind.MLA, gamma)


def _check_vector(A: WeightedAdjacency, x, name: str) -> np.ndarray:
    """x as a float array after checking that its entries are real numbers,
    its shape (n,) and its finiteness."""
    x = _real_array(x, f"{name} must be a vector")
    if x.shape != (A.n,):
        raise DimensionMismatch(f"{name} has shape {x.shape}, expected ({A.n},)")
    if not np.isfinite(x).all():
        raise BadParameter(f"{name} has a non-finite entry")
    return x


def _mean(x: np.ndarray) -> float:
    """x.mean() of a finite vector, or (x / n).sum() where its sum overflows."""
    with np.errstate(over="ignore"):
        mean = float(x.mean())
    return mean if np.isfinite(mean) else float((x / x.size).sum())


def _advance(model: ModelParams, AX, X_prev, AX_prev):
    """x(k+1) from A x(k), x(k-1) and A x(k-1); each row is one run.

    The caller takes the products (A x is X @ A^T in rows) and, stepping
    a trajectory, keeps the product of x(k-1) from the step before.
    """
    if model.kind is ModelKind.DEGROOT:
        return AX
    p = model.param
    if model.kind is ModelKind.ACCELERATED:
        return p * AX + (1.0 - p) * X_prev
    return p * AX + (1.0 - p) * AX_prev


def _states(A: WeightedAdjacency, model: ModelParams, X0: np.ndarray):
    """Yield x(0), x(1), ... for the runs in the rows of X0 = x(0) = x(-1).

    Takes one product with the weight matrix per step, when asked for it.
    """
    Wt = A.weights.T
    X_prev = X = X0
    yield X
    AX_prev = AX = X @ Wt
    while True:
        X, X_prev, AX_prev = _advance(model, AX, X_prev, AX_prev), X, AX
        yield X
        AX = X @ Wt
