"""Reference formulations and oracles the library is checked against.

The root mapping, one Python call per eigenvalue with both signed roots
as complex numbers, and its brute-force maximum over a spectrum: what
`_root_pair` (Python floats for a real or double pair, the same values)
and the modulus kernels of `consensuslab.analysis` must reproduce bit for
bit.
The simulator with each model's update rule written out in its own loop
branch: the formulation the single update kernel in
`consensuslab.dynamics` replaced. And the independent routes to the same
answers: one model step from the update kernel, the explicit 2n-by-2n
block matrix of the stacked MLA state with its eigenpair residual, and
the half-plane root test. And the file writers and ring generator with
one Python step per entry: the formulations the numpy text routines and
`np.roll` replaced, byte for byte. And the golden-section search for
beta* that its closed form replaced. And the random network generator
with one loop step per pair, which the bulk draw reproduces bit for bit.
And the breadth-first search with a queue and one edge test per pair,
whose levels the bitset search in `consensuslab.net` reproduces.
And the exact distance to consensus read off a solved spectrum, which a
simulated trajectory must follow to rounding, and the largest gain of
that error over the non-dominant eigenvalues, which bounds a batch's
envelope. And the simple-dominant rule checked afresh on every call,
which a `Spectrum` now settles once when it is built. And the `analyze`
and `validate` subcommands with every decision made inline and every
porcelain line printed by hand: the text that one analysis record and
one key=value writer must reproduce byte for byte.
"""

from __future__ import annotations

import cmath
import collections
import math
import sys
from typing import NamedTuple

import numpy as np

from consensuslab import analysis
from consensuslab.analysis import BetaStar, ConvergenceVerdict
from consensuslab.dynamics import ModelKind, _advance, _check_vector
from consensuslab.errors import (
    AssumptionViolated,
    BadParameter,
    BadSpectrum,
    ConsensusLabError,
    DominantNotSimple,
    NotConvergent,
    ParseError,
)
from consensuslab.net import analyze_structure, validate
from consensuslab.sim import TraceSummary, _substream
from consensuslab.spectral import (
    _contract_bound,
    certificate_bound,
    eigendecompose_symmetric,
    rho_ess,
)


class MappedPair(NamedTuple):
    lambda_plus: complex
    lambda_minus: complex
    discriminant: float


def roots_sum_product(b: float, c: float) -> tuple[complex, complex, float]:
    """Roots of z^2 - b z + c = 0 as (plus, minus, discriminant).

    b and c are read as Python floats, whatever type a numpy scalar
    parameter gave them.
    """
    b, c = float(b), float(c)
    disc = b * b - 4.0 * c
    if abs(disc) <= 16.0 * np.finfo(float).eps * (b * b + abs(4.0 * c)):
        return complex(b / 2.0), complex(b / 2.0), disc
    if disc < 0.0:
        im = math.sqrt(-disc) / 2.0
        return complex(b / 2.0, im), complex(b / 2.0, -im), disc
    sq = math.sqrt(disc)
    if b >= 0.0:
        plus = (b + sq) / 2.0
        minus = c / plus if plus != 0.0 else 0.0
    else:
        minus = (b - sq) / 2.0
        plus = c / minus
    return complex(plus), complex(minus), disc


def map_eigenvalue(lam: float, gamma: float) -> MappedPair:
    return MappedPair(*roots_sum_product(gamma * lam, (gamma - 1.0) * lam))


def map_eigenvalue_accelerated(lam: float, beta: float) -> MappedPair:
    return MappedPair(*roots_sum_product(beta * lam, beta - 1.0))


def lambda_hat_max(lam: float, gamma: float) -> float:
    pair = map_eigenvalue(lam, gamma)
    return max(abs(pair.lambda_plus), abs(pair.lambda_minus))


def non_dominant_moduli(spec, param: float, mapper) -> np.ndarray:
    """Moduli of all mapped eigenvalues except the root closest to 1."""
    w = spec.eigenvalues
    mods = []
    first = mapper(float(w[0]), param)
    if abs(first.lambda_plus - 1.0) <= abs(first.lambda_minus - 1.0):
        mods.append(abs(first.lambda_minus))
    else:
        mods.append(abs(first.lambda_plus))
    for lam in w[1:]:
        pair = mapper(float(lam), param)
        mods.append(abs(pair.lambda_plus))
        mods.append(abs(pair.lambda_minus))
    return np.array(mods)


def check_mla_convergence(spec, gamma: float) -> ConvergenceVerdict:
    lam_n = float(spec.eigenvalues[-1])
    criterion = 2.0 * gamma * lam_n - lam_n + 1.0
    in_range = 0.0 < gamma < 2.0
    return ConvergenceVerdict(
        converges=in_range and criterion > certificate_bound(spec.eigenvalues.size),
        gamma_in_range=in_range,
        criterion_ii_value=criterion,
        limiting_eigenvalue_modulus=float(
            np.max(non_dominant_moduli(spec, gamma, map_eigenvalue))
        ),
    )


def rho_ess_accelerated(spec, beta: float) -> float:
    """The largest non-dominant modulus, and at least 1 wherever an
    eigenvalue but the first lies within certificate_bound(n) of modulus 1:
    lam = -1 maps to the root -1 for every beta."""
    w = spec.eigenvalues
    radius = float(np.max(non_dominant_moduli(spec, beta, map_eigenvalue_accelerated)))
    periodic = np.max(np.abs(w[1:]), initial=0.0) >= 1.0 - certificate_bound(w.size)
    return max(radius, 1.0) if periodic else radius


def dominance_error(eigenvalues):
    """(class, message) of the error every analysis call raises on these
    eigenvalues for want of a simple dominant eigenvalue 1 with the rest
    in [-1, 1), or None. Both ends may miss by 1e-8, the input guard."""
    w = [float(x) for x in eigenvalues]
    if abs(w[0] - 1.0) > 1e-8:
        return AssumptionViolated, (
            f"dominant eigenvalue {w[0]!r} is not 1; input is not a valid "
            "row-stochastic network spectrum"
        )
    if w[-1] < -1.0 and abs(w[-1] + 1.0) > 1e-8:
        return AssumptionViolated, (
            f"smallest eigenvalue {w[-1]!r} is below -1; input is not a valid "
            "row-stochastic network spectrum"
        )
    bound = _contract_bound(len(w))
    if len(w) >= 2 and w[1] >= 1.0 - bound:
        return DominantNotSimple, (
            f"network is reducible: second eigenvalue {w[1]!r} is within {bound:g} of 1"
        )
    return None


def golden_section_min(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
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


def optimal_beta(spec) -> BetaStar:
    """beta* found numerically: golden-section search of the accelerated
    radius over (0, 2), bracketed to 1e-10."""
    rho = rho_ess(spec)
    rate = rho / (1.0 + math.sqrt(1.0 - rho * rho))
    beta, _ = golden_section_min(
        lambda b: rho_ess_accelerated(spec, b), 0.0, 2.0, 1e-10
    )
    return BetaStar(beta=beta, rate=rate)


def run_batch(A, cfg) -> TraceSummary:
    """The batch simulator, stepping each model in its own branch."""
    n = A.n
    W = A.weights
    X0 = np.empty((cfg.runs, n))
    for i in range(cfg.runs):
        X0[i] = _substream(cfg.seed, i).uniform(0.0, 1.0, n)

    env_max = np.empty(cfg.steps + 1)
    env_min = np.empty(cfg.steps + 1)

    def record(k, X):
        D = X - X.mean(axis=1, keepdims=True)
        env_max[k] = D.max()
        env_min[k] = D.min()
        if not (math.isfinite(env_max[k]) and math.isfinite(env_min[k])):
            raise NotConvergent(f"the states overflow at step {k} of {cfg.steps}")

    record(0, X0)
    kind, param = cfg.model.kind, cfg.model.param
    Xc = X0
    Xp = X0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.steps + 1):
            if kind is ModelKind.DEGROOT:
                Xn = Xc @ W.T
            elif kind is ModelKind.ACCELERATED:
                Xn = param * (Xc @ W.T) + (1.0 - param) * Xp
            else:
                Xn = param * (Xc @ W.T) + (1.0 - param) * (Xp @ W.T)
            record(k, Xn)
            Xc, Xp = Xn, Xc

    D = Xc - Xc.mean(axis=1, keepdims=True)
    return TraceSummary(
        env_max=env_max,
        env_min=env_min,
        final_max_abs_deviation=np.abs(D).max(axis=1),
    )


def simulate_trajectory(A, model, x0, steps: int) -> np.ndarray:
    """One trajectory with matrix-vector products, each model in its own branch."""
    x0 = np.asarray(x0, dtype=float)
    W = A.weights
    out = np.empty((steps + 1, A.n))
    out[0] = x0
    kind, param = model.kind, model.param
    xc = x0
    xp = x0
    for k in range(1, steps + 1):
        if kind is ModelKind.DEGROOT:
            xc = W @ xc
        elif kind is ModelKind.ACCELERATED:
            xc, xp = param * (W @ xc) + (1.0 - param) * xp, xc
        else:
            xc, xp = param * (W @ xc) + (1.0 - param) * (W @ xp), xc
        out[k] = xc
    return out


def step_model(A, model, x, x_prev) -> np.ndarray:
    """One update of the chosen model from x(k) = x and x(k-1) = x_prev."""
    x = _check_vector(A, x, "x")
    x_prev = _check_vector(A, x_prev, "x_prev")
    Wt = A.weights.T
    return _advance(model, x @ Wt, x_prev, x_prev @ Wt)


def augmented_matrix(A, gamma: float) -> np.ndarray:
    """The stacked MLA iteration [[gamma W, (1 - gamma) W], [I, 0]].

    Multiplying [x(k); x(k-1)] by it takes one MLA step and shifts x(k)
    into the memory slot.
    """
    W = A.weights
    return np.block([[gamma * W, (1.0 - gamma) * W], [np.eye(A.n), np.zeros_like(W)]])


def augmented_eigenvector(lam_hat: complex, v) -> np.ndarray:
    """[lam_hat * v; v]: the stacked eigenvector for a weight eigenvector v
    whose eigenvalue maps to lam_hat."""
    v = np.asarray(v, dtype=float)
    return np.concatenate([complex(lam_hat) * v, v.astype(complex)])


def verify_augmented_eigenpair(A, gamma: float, lam: float, lam_hat: complex, v) -> float:
    """Max-norm residual of [lam_hat * v; v] on the explicit block matrix,
    for the eigenpair (lam, v) of A; a residual <= 1e-9 verifies the pair."""
    vhat = augmented_eigenvector(lam_hat, v)
    resid = augmented_matrix(A, gamma) @ vhat - complex(lam_hat) * vhat
    return float(np.max(np.abs(resid)))


def roots_in_unit_disk_via_halfplane(a: complex, b: complex) -> bool:
    """Whether both roots of z^2 + a z + b lie strictly inside the unit disk,
    decided without their moduli.

    The map z = (s + 1) / (s - 1) takes the left half-plane to the disk, so
    both roots of (1 + a + b) s^2 + 2 (1 - b) s + (b - a + 1) must have a
    negative real part. A vanishing leading coefficient means z = 1 is a
    root, on the circle.
    """
    a, b = complex(a), complex(b)
    lead = 1.0 + a + b
    if lead == 0.0:
        return False
    mid = 2.0 * (1.0 - b)
    sq = cmath.sqrt(mid * mid - 4.0 * lead * (b - a + 1.0))
    s1, s2 = (-mid + sq) / (2.0 * lead), (-mid - sq) / (2.0 * lead)
    return s1.real < 0.0 and s2.real < 0.0


def polynomials(lam, model, steps: int):
    """Yield p_k(lam) for k = 0..steps, elementwise over the array lam.

    The scalar recurrence of each model starts at p_{-1} = p_0 = 1, as the
    simulators start from x(-1) = x(0): p_{k+1} = lam p_k (DeGroot), beta
    lam p_k + (1 - beta) p_{k-1} (accelerated), gamma lam p_k + (1 - gamma)
    lam p_{k-1} (MLA).
    """
    kind, param = model.kind, model.param
    p_prev = p = np.ones_like(lam)
    yield p
    for _ in range(steps):
        if kind is ModelKind.DEGROOT:
            p_next = lam * p
        elif kind is ModelKind.ACCELERATED:
            p_next = param * lam * p + (1.0 - param) * p_prev
        else:
            p_next = param * lam * p + (1.0 - param) * lam * p_prev
        p_prev, p = p, p_next
        yield p


def distance_sequence(spec, model, x0, steps: int) -> np.ndarray:
    """||e(k)|| for k = 0..steps from the spectrum alone, e(k) = x(k) - mean(x0).

    With eigenpairs (lam_i, v_i) of a symmetric W and c = V^T e(0), each
    model's error is e(k) = V p_k(Lambda) c, so ||e(k)|| = ||p_k(Lambda) c||
    with p_k from `polynomials`.
    """
    x0 = np.asarray(x0, dtype=float)
    c = spec.eigenvectors.T @ (x0 - x0.mean())
    pk = polynomials(spec.eigenvalues, model, steps)
    return np.array([np.linalg.norm(p * c) for p in pk])


def error_gain(spec, model, steps: int) -> np.ndarray:
    """g_k = max over i >= 2 of |p_k(lambda_i)| for k = 0..steps.

    e(0) of a symmetric W is orthogonal to the dominant eigenvector, so
    ||e(k)|| = ||p_k(Lambda) c|| <= g_k ||e(0)|| for every initial state.
    """
    pk = polynomials(spec.eigenvalues[1:], model, steps)
    return np.array([np.abs(p).max() for p in pk])


def make_ring(n: int, self_loop: float = 0.0):
    """The ring generator filling each row's three entries by index."""
    off = (1.0 - self_loop) / 2.0
    W = np.zeros((n, n))
    for i in range(n):
        W[i, i] = self_loop
        W[i, (i + 1) % n] += off
        W[i, (i - 1) % n] += off
    return validate(W)


def write_matrix(A, path) -> None:
    """The matrix writer formatting each entry in its own f-string."""
    with open(path, "w") as fh:
        fh.write(f"{A.n}\n")
        for row in A.weights:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def write_csv(summary, path) -> None:
    """The envelope writer formatting one `k,env_min,env_max` row per step."""
    with open(path, "w") as fh:
        fh.write("k,env_min,env_max\n")
        for k in range(summary.env_max.size):
            fh.write(f"{k},{summary.env_min[k]:.17g},{summary.env_max[k]:.17g}\n")


def random_symmetric_stochastic(n: int, seed: int):
    """The random network generator drawing one pair per loop step: a
    uniform u, then a weight when u < 0.6, then the diagonal and the ring
    backbone one entry at a time."""
    rng = _substream(seed, 0)
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < 0.6:
                v = rng.uniform(0.05, 1.0)
                M[i, j] = v
                M[j, i] = v
    M[np.diag_indices(n)] = rng.uniform(0.05, 0.6, n)
    for i in range(n):
        j = (i + 1) % n
        M[i, j] += 0.5
        M[j, i] += 0.5
    for _ in range(10_000):
        r = M.sum(axis=1)
        if np.max(np.abs(r - 1.0)) <= 1e-13:
            return validate(M)
        M = M / np.sqrt(np.outer(r, r))
    raise AssertionError("row scaling did not settle")


def bfs_levels(pattern) -> np.ndarray:
    """BFS level of every node reached from node 0 along pattern edges, -1
    if none: a queue of reached nodes, each testing every column of its row."""
    n = pattern.shape[0]
    level = [-1] * n
    level[0] = 0
    queue = collections.deque([0])
    while queue:
        u = queue.popleft()
        for v in range(n):
            if pattern[u, v] and level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    return np.array(level)


def _flag(v: bool) -> str:
    return "true" if v else "false"


def cli_validate(A, porcelain: bool) -> None:
    """Print what `consensuslab validate` prints for the network A."""
    rep = analyze_structure(A)
    if porcelain:
        print(f"n={A.n}")
        print("row_stochastic=true")
        print(f"symmetric={_flag(rep.symmetric)}")
        print(f"irreducible={_flag(rep.irreducible)}")
        print(f"primitive={_flag(rep.primitive)}")
        if rep.primitive:
            print(f"witness_k={rep.witness_k}")
    else:
        print(f"valid row-stochastic network with {A.n} agents")
        print(f"  symmetric:   {rep.symmetric}")
        print(f"  irreducible: {rep.irreducible}")
        extra = (
            f" (smallest all-positive power: {rep.witness_k})"
            if rep.primitive
            else ""
        )
        print(f"  primitive:   {rep.primitive}{extra}")


def cli_analyze(A, gamma, porcelain: bool) -> None:
    """Print what `consensuslab analyze [--gamma G]` prints for the network
    A, deciding which optima exist, the rate chain and the verdict inline."""
    spec = eigendecompose_symmetric(A)
    rho = rho_ess(spec)

    gs = bs = None
    try:
        gs = analysis.optimal_gamma(spec)
    except BadSpectrum:
        pass
    try:
        bs = analysis.optimal_beta(spec)
    except BadSpectrum as e:
        no_optima = e
    chain_ok = gs is not None and bs is not None and gs.rate < bs.rate < rho

    verdict = gamma_rate = None
    if gamma is not None:
        verdict = analysis.check_mla_convergence(spec, gamma)
        if verdict.converges:
            gamma_rate = verdict.limiting_eigenvalue_modulus

    if porcelain:
        f = "%.17g"
        print(f"n={A.n}")
        print("spectrum=" + ",".join(f % v for v in spec.eigenvalues))
        print(f"rho_ess={f % rho}")
        print(f"degroot_rate={f % rho}")
        print(f"gamma_star={f % gs.gamma if gs else 'nan'}")
        print(f"mla_rate={f % gs.rate if gs else 'nan'}")
        print(f"mla_hypotheses_met={_flag(gs.hypotheses_met) if gs else 'nan'}")
        print(f"beta_star={f % bs.beta if bs else 'nan'}")
        print(f"accelerated_rate={f % bs.rate if bs else 'nan'}")
        print(f"rate_chain_ok={_flag(chain_ok)}")
        if verdict is not None:
            print(f"gamma={f % gamma}")
            print(f"gamma_converges={_flag(verdict.converges)}")
            print(f"gamma_in_range={_flag(verdict.gamma_in_range)}")
            print(f"criterion_ii_value={f % verdict.criterion_ii_value}")
            print(f"limiting_modulus={f % verdict.limiting_eigenvalue_modulus}")
            print(
                "mla_rate_at_gamma="
                + (f % gamma_rate if gamma_rate is not None else "nan")
            )
    else:
        f = "%.12g"
        print(f"agents:      {A.n}")
        print("spectrum:    " + ", ".join(f % v for v in spec.eigenvalues))
        print(f"rho_ess(A):  {f % rho}   (DeGroot rate)")
        if gs is not None:
            valid = "closed form valid" if gs.hypotheses_met else "recomputed honestly"
            print(f"gamma* = {f % gs.gamma}   MLA rate {f % gs.rate}   ({valid})")
        elif bs is not None:
            print("gamma* unavailable: needs a negative smallest eigenvalue")
        if bs is None:
            print(f"optimal parameters unavailable: {no_optima}")
        else:
            print(f"beta*  = {f % bs.beta}   accelerated rate {f % bs.rate}")
        if gs is not None:
            print(f"rate ordering MLA < accelerated < DeGroot: {chain_ok}")
        if verdict is not None:
            if verdict.converges:
                print(f"gamma={f % gamma}: convergent, rate {f % gamma_rate}")
            else:
                print(
                    f"gamma={f % gamma}: NOT convergent "
                    f"(gamma in (0,2): {verdict.gamma_in_range}, "
                    f"criterion value: {f % verdict.criterion_ii_value})"
                )


def cli_exit_code(render, *args) -> int:
    """Run a renderer above as the CLI's main does: a library error prints
    "error: <message>" to stderr and exits 2 for a usage or parse error,
    1 for any other."""
    try:
        render(*args)
    except ConsensusLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, (ParseError, BadParameter)) else 1
    return 0
