"""Output oracles: each check raises Reject when a job's output is wrong.

The checks run outside the timed region and call nothing in consensuslab: the
expected values come from closed forms (ring spectra, root moduli of the
MLA and accelerated quadratics, gamma*, the accelerated rate), from
LAPACK (`numpy.linalg.eigvalsh` for random networks) or from the
benchmark's own boolean-power check. Every number the program prints or
writes must be finite; the token `nan` is accepted only where the CLI
documents it, for the optima of a network that has none.
"""

from __future__ import annotations

import math
import re

import numpy as np
from consensuslab.errors import AssumptionViolated, BadSpectrum, DegenerateSpectrum

EPS = float(np.finfo(float).eps)
CONTOUR_POINTS = 201
CONTOUR_CHUNK = 1 << 17  # bytes of grid rows parsed at a time
FIGURE_STEPS = 100

# The program's eigenvalues match the exact spectrum to about n*eps
# (measured: at most 1.3 n*eps up to n = 96); 16 n*eps bounds rounding
# without accepting a wrong eigenvalue.
EIG_TOL_PER_N = 16 * EPS
# Root moduli near a double root move like the square root of the
# eigenvalue error, sqrt(16 n eps) < 2e-6 at n = 96, and gamma* puts a
# double root exactly on the smallest eigenvalue.
MOD_TOL = 1e-5
# optimal_beta stops its golden-section search at a bracket of 1e-10 in
# beta; on the real-root side of the optimum the modulus moves like the
# square root of that offset.
BETA_TOL = 1e-4
# Closed-form scalars the program evaluates with the same formula.
FORMULA_RTOL = 1e-12
# A convergent batch must shrink its envelope at least this much, and a
# non-convergent one on a periodic ring must keep at least this share:
# the alternating mode of an even ring never decays.
SHRINK = 0.1
OPEN = 0.05

class Reject(Exception):
    """The job's output is wrong."""


def require(cond, msg: str) -> None:
    if not cond:
        raise Reject(msg)


def finite(x, what: str) -> float:
    try:
        v = float(x)
    except (TypeError, ValueError):
        raise Reject(f"{what}: not a number: {x!r}") from None
    require(math.isfinite(v), f"{what}: non-finite value {x!r}")
    return v


def close(got: float, want: float, tol: float, what: str) -> None:
    require(abs(got - want) <= tol, f"{what}: got {got!r}, expected {want!r} (tol {tol:g})")


# ---------------------------------------------------------------- theory


def ring_spectrum(n: int, self_loop: float) -> np.ndarray:
    """s + (1 - s) cos(2 pi k / n), sorted descending."""
    k = np.arange(n)
    vals = self_loop + (1.0 - self_loop) * np.cos(2.0 * np.pi * k / n)
    return np.sort(vals)[::-1].copy()


def _moduli(b, c) -> np.ndarray:
    """Moduli of both roots of z^2 - b z + c, per entry, as a (2, m) array."""
    b = np.asarray(b, dtype=float)
    sq = np.sqrt((b * b - 4.0 * np.asarray(c, dtype=float)).astype(complex))
    return np.abs(np.stack([(b + sq) / 2.0, (b - sq) / 2.0]))


def mla_moduli(lams, gamma: float) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    return _moduli(gamma * lams, (gamma - 1.0) * lams)


def accelerated_moduli(lams, beta: float) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    return _moduli(beta * lams, np.full_like(lams, beta - 1.0))


def rate(spectrum: np.ndarray, model: str, param: float | None) -> float:
    """Largest non-dominant root modulus of a model on an exact spectrum.

    spectrum[0] is the dominant eigenvalue 1; for both memory models it
    maps to the roots {1, param - 1}, of which 1 is dropped.
    """
    rest = spectrum[1:]
    if model == "degroot":
        return float(np.max(np.abs(rest)))
    moduli = mla_moduli if model == "mla" else accelerated_moduli
    return float(max(abs(param - 1.0), np.max(moduli(rest, param))))


def criterion(spectrum: np.ndarray, gamma: float) -> float:
    lam_n = float(spectrum[-1])
    return 2.0 * gamma * lam_n - lam_n + 1.0


def mla_converges(spectrum: np.ndarray, gamma: float) -> bool:
    return 0.0 < gamma < 2.0 and criterion(spectrum, gamma) > 0.0


def converges(spectrum: np.ndarray, model: str, param: float | None) -> bool:
    """Whether a model settles on a network with this exact spectrum.

    An eigenvalue of exactly -1 (a periodic network) is a root of modulus
    exactly 1 for DeGroot and accelerated averaging alike, since
    z^2 + beta z + beta - 1 = (z + 1)(z + beta - 1); it is decided here
    from the closed-form spectrum, not from a rounded root modulus.
    """
    if model == "mla":
        return mla_converges(spectrum, param)
    return essential_radius(spectrum) < 1.0 and rate(spectrum, model, param) < 1.0


def essential_radius(spectrum: np.ndarray) -> float:
    return float(max(abs(spectrum[1]), abs(spectrum[-1])))


def optima_exist(spectrum: np.ndarray) -> bool:
    """gamma* and beta* need lambda_n < 0 and an essential radius in (0, 1)."""
    return spectrum[-1] < 0.0 and 0.0 < essential_radius(spectrum) < 1.0


def gamma_star(rho: float) -> float:
    return 2.0 / rho * (math.sqrt(1.0 + rho) - 1.0)


def accelerated_rate(rho: float) -> float:
    return rho / (1.0 + math.sqrt(1.0 - rho * rho))


def structure(weights: np.ndarray) -> tuple[bool, int | None]:
    """(irreducible, smallest all-positive power) of the weight pattern.

    Breadth-first reachability from node 0 both ways decides
    irreducibility; the exponent comes from 0/1 float matmuls, which are
    exact at these sizes.
    """
    P = (np.asarray(weights) > 0.0).astype(float)
    n = P.shape[0]
    for M in (P, P.T):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = (M[frontier].sum(axis=0) > 0) & ~seen
            seen |= frontier
        if not seen.all():
            return False, None
    Q = P.copy()
    for k in range(1, (n - 1) ** 2 + 2):
        if (Q > 0).all():
            return True, k
        Q = ((Q @ P) > 0).astype(float)
    return True, None


def expected_structure(net) -> tuple[bool, int | None]:
    if net.family == "even-ring":
        return True, None
    if net.family == "odd-ring":
        return True, net.n - 1
    if net.family == "loop-ring":
        return True, net.n // 2
    return structure(net.adjacency.weights)


# ---------------------------------------------------------------- parsing


def expect_exit(res) -> None:
    require(res.rc == 0, f"exit code {res.rc}: {res.err.strip()}")


def porcelain(text: str) -> dict[str, str]:
    kv = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        require(sep and key not in kv, f"bad porcelain line {line!r}")
        kv[key] = value
    return kv


def field(kv: dict, key: str) -> str:
    require(key in kv, f"missing {key}=")
    return kv[key]


def flag(kv: dict, key: str) -> bool:
    v = field(kv, key)
    require(v in ("true", "false"), f"{key}={v!r} is not a flag")
    return v == "true"


def number(kv: dict, key: str) -> float:
    return finite(field(kv, key), key)


def read_csv(path: str, header: str, rows: int) -> list[list[str]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    require(lines and lines[0] == header, f"{path}: header {lines[:1]!r}")
    require(len(lines) - 1 == rows, f"{path}: {len(lines) - 1} rows, expected {rows}")
    return [line.split(",") for line in lines[1:]]


def envelope_widths(path: str, steps: int) -> np.ndarray:
    rows = read_csv(path, "k,env_min,env_max", steps + 1)
    require(all(len(r) == 3 for r in rows), f"{path}: ragged rows")
    require([r[0] for r in rows] == [str(k) for k in range(steps + 1)], f"{path}: step column")
    lo = np.array([finite(r[1], f"{path} env_min") for r in rows])
    hi = np.array([finite(r[2], f"{path} env_max") for r in rows])
    return hi - lo


def check_envelope(widths: np.ndarray, convergent: bool, what: str) -> None:
    if convergent:
        require(widths[-1] < SHRINK * widths[0], f"{what}: envelope did not shrink")
    else:
        require(widths[-1] > OPEN * widths[0], f"{what}: envelope closed on a periodic ring")


# ---------------------------------------------------------------- jobs


def check_validate(res, net) -> None:
    expect_exit(res)
    kv = porcelain(res.out)
    require(field(kv, "n") == str(net.n), f"n={kv['n']}, expected {net.n}")
    require(flag(kv, "row_stochastic"), "row_stochastic=false")
    require(flag(kv, "symmetric"), "symmetric=false on a symmetric network")
    irreducible, witness = expected_structure(net)
    require(flag(kv, "irreducible") == irreducible, f"irreducible, expected {irreducible}")
    primitive = flag(kv, "primitive")
    require(primitive == (witness is not None), f"primitive={primitive}, witness {witness}")
    if primitive:
        k = field(kv, "witness_k")
        require(k == str(witness), f"witness_k={k}, expected {witness}")
    else:
        require("witness_k" not in kv, "witness_k on a non-primitive network")


def _check_verdict(spectrum, gamma, converges_, in_range, crit, limiting, tol, what):
    require(in_range == (0.0 < gamma < 2.0), f"{what}: gamma_in_range")
    close(crit, criterion(spectrum, gamma), 4.0 * tol, f"{what}: criterion")
    require(converges_ == mla_converges(spectrum, gamma), f"{what}: verdict for gamma={gamma!r}")
    close(limiting, rate(spectrum, "mla", gamma), MOD_TOL, f"{what}: limiting modulus")
    # the paper's biconditional, on the program's own two routes
    if abs(limiting - 1.0) > MOD_TOL:
        require(converges_ == (limiting < 1.0), f"{what}: verdict disagrees with modulus")


def check_analyze(res, net, gamma: float) -> None:
    expect_exit(res)
    kv = porcelain(res.out)
    lam = net.spectrum
    tol = EIG_TOL_PER_N * net.n
    require(field(kv, "n") == str(net.n), "n")
    spec = [finite(v, "spectrum") for v in field(kv, "spectrum").split(",")]
    require(len(spec) == net.n, f"{len(spec)} eigenvalues, expected {net.n}")
    err = float(np.max(np.abs(np.array(spec) - lam)))
    require(err <= tol, f"spectrum off by {err:.3g} > {tol:.3g}")
    rho = number(kv, "rho_ess")
    close(rho, essential_radius(lam), tol, "rho_ess")
    require(field(kv, "degroot_rate") == kv["rho_ess"], "degroot_rate != rho_ess")

    optima = ("gamma_star", "mla_rate", "mla_hypotheses_met", "beta_star", "accelerated_rate")
    printed = field(kv, "gamma_star") != "nan"
    require(printed == optima_exist(lam), f"gamma_star={kv['gamma_star']}")
    if not printed:
        for key in optima:
            require(field(kv, key) == "nan", f"{key}={kv[key]} without gamma_star")
        require(not flag(kv, "rate_chain_ok"), "rate_chain_ok=true without optima")
    else:
        gs = number(kv, "gamma_star")
        close(gs, gamma_star(rho), FORMULA_RTOL * gs, "gamma_star")
        mla = number(kv, "mla_rate")
        hyp = flag(kv, "mla_hypotheses_met")
        if hyp:
            close(mla, math.sqrt(1.0 + rho) - 1.0, FORMULA_RTOL, "closed-form mla_rate")
        close(mla, rate(lam, "mla", gs), MOD_TOL, "mla_rate at gamma_star")
        bs = number(kv, "beta_star")
        acc = number(kv, "accelerated_rate")
        close(acc, accelerated_rate(rho), FORMULA_RTOL, "accelerated_rate")
        close(rate(lam, "accelerated", bs), acc, BETA_TOL, "accelerated modulus at beta_star")
        chain = flag(kv, "rate_chain_ok")
        require(chain == (mla < acc < rho), "rate_chain_ok disagrees with the printed rates")
        require(chain or not hyp, "rate chain broken where the closed form holds")

    require(number(kv, "gamma") == gamma, "gamma echo")
    conv = flag(kv, "gamma_converges")
    limiting = number(kv, "limiting_modulus")
    _check_verdict(
        lam, gamma, conv, flag(kv, "gamma_in_range"), number(kv, "criterion_ii_value"),
        limiting, tol, "analyze",
    )
    if conv:
        require(number(kv, "mla_rate_at_gamma") == limiting, "mla_rate_at_gamma != limiting")
    else:
        require(field(kv, "mla_rate_at_gamma") == "nan", "rate printed for a divergent gamma")


_FIT = re.compile(
    r"fitted decay rate: (\S+) \(theory (\S+), r\^2 (\S+), window (\d+)\.\.(\d+)\)$"
)


def check_simulate(res, net, model: str, param, steps: int, out: str) -> None:
    expect_exit(res)
    lines = res.out.splitlines()
    require(len(lines) == 4, f"{len(lines)} stdout lines, expected 4")
    require(lines[0] == f"wrote {out}", "wrote line")
    widths = envelope_widths(out, steps)
    for line, w in ((lines[1], widths[0]), (lines[2], widths[-1])):
        label, _, value = line.partition(":")
        require(label in ("initial envelope width", "final envelope width"), f"line {line!r}")
        close(finite(value, label), w, 1e-9 * max(w, 1e-300), label)
    convergent = converges(net.spectrum, model, param)
    check_envelope(widths, convergent, out)
    said = lines[3] != "model not convergent on this network; no rate fit"
    require(said == convergent, f"{model} on {net.family} n={net.n}: {lines[3]!r}")
    if said and not lines[3].startswith("rate fit skipped:"):
        m = _FIT.match(lines[3])
        require(m, f"fit line {lines[3]!r}")
        fitted, theory, r2 = (finite(m.group(i), "fit") for i in (1, 2, 3))
        close(theory, rate(net.spectrum, model, param), MOD_TOL, "theory rate")
        require(0.0 <= r2 <= 1.0 and fitted >= 0.0, "fit out of range")


def check_figure(res, name: str, files) -> None:
    expect_exit(res)
    require(res.out.splitlines() == [f"wrote {f}" for f in files], "wrote lines")
    if name == "fig2":  # pure 4-ring: only MLA settles
        lam, expect = ring_spectrum(4, 0.0), (False, False, True)
    else:  # 4-ring with self-loops at the optimal parameters: all settle
        lam, expect = ring_spectrum(4, 0.1), (True, True, True)
    for path, convergent in zip(files, expect):
        check_envelope(envelope_widths(path, FIGURE_STEPS), convergent, path)


def check_contour(res, files, cells) -> None:
    """The contour grid, read in chunks of rows so the check stays small."""
    expect_exit(res)
    require(res.out.splitlines() == [f"wrote {f}" for f in files], "wrote lines")
    points = CONTOUR_POINTS
    lams = np.repeat(np.linspace(-1.0, 1.0, points), points)
    gams = np.tile(np.linspace(0.0, 2.0, points), points)
    cells = np.sort(np.asarray(cells))
    path = files[0]
    with open(path) as fh:
        require(fh.readline() == "lambda,gamma,value\n", f"{path}: header")
        start = 0
        while lines := fh.readlines(CONTOUR_CHUNK):
            stop = start + len(lines)
            require(stop <= points**2, f"{path}: more than {points**2} rows")
            try:
                grid = np.array([line.split(",") for line in lines], dtype=float)
            except ValueError:
                raise Reject(f"{path}: unparsable or ragged row after row {start}") from None
            require(grid.shape == (len(lines), 3), f"{path}: ragged rows after row {start}")
            require(np.isfinite(grid).all(), f"{path}: non-finite value after row {start}")
            require(np.array_equal(grid[:, 0], lams[start:stop]), f"{path}: lambda column")
            require(np.array_equal(grid[:, 1], gams[start:stop]), f"{path}: gamma column")
            for c in cells[(cells >= start) & (cells < stop)]:
                lam, g, value = grid[c - start]
                close(value, float(np.max(mla_moduli([lam], g))), MOD_TOL, f"cell ({lam}, {g})")
            start = stop
    require(start == points**2, f"{path}: {start} rows, expected {points**2}")
    with open(files[1]) as fh:
        locus = fh.read().splitlines()
    require(locus and locus[0] == "branch,gamma,lambda", "locus header")
    for line in locus[1:]:
        branch, g, lam = line.split(",")
        require(branch in ("axis", "curve"), f"locus branch {branch!r}")
        finite(g, "locus gamma")
        finite(lam, "locus lambda")


def check_sweep(result: dict, net, gammas) -> None:
    """Library sweep over one spectrum (see workloads.sweep)."""
    lam = net.spectrum
    tol = EIG_TOL_PER_N * net.n
    verdicts = result["verdicts"]
    require(len(verdicts) == len(gammas), "verdict count")
    for g, (v, mla) in zip(gammas, verdicts):
        what = f"sweep gamma={g!r}"
        limiting = finite(v.limiting_eigenvalue_modulus, what)
        _check_verdict(
            lam, float(g), v.converges, v.gamma_in_range,
            finite(v.criterion_ii_value, what), limiting, tol, what,
        )
        if v.converges:
            require(finite(mla, what) == limiting, f"{what}: rho_ess_mla != limiting")

    gs, bs, imp = (result[k] for k in ("optimal_gamma", "optimal_beta", "improving_gamma_exists"))
    rho = essential_radius(lam)
    if isinstance(gs, BadSpectrum) and isinstance(bs, BadSpectrum):
        require(not optima_exist(lam), "optima raised BadSpectrum on a spectrum that has them")
    else:
        require(optima_exist(lam), f"optima {gs!r}, {bs!r} where none exist")
        require(not isinstance(gs, Exception), f"optimal_gamma raised {gs!r}")
        require(not isinstance(bs, Exception), f"optimal_beta raised {bs!r}")
        close(finite(gs.gamma, "gamma*"), gamma_star(rho), 1e-9, "gamma*")
        mla = finite(gs.rate, "mla rate")
        close(mla, rate(lam, "mla", gs.gamma), MOD_TOL, "mla rate at gamma*")
        acc = finite(bs.rate, "accelerated rate")
        close(acc, accelerated_rate(rho), 1e-9, "accelerated rate")
        beta = finite(bs.beta, "beta*")
        close(rate(lam, "accelerated", beta), acc, BETA_TOL, "modulus at beta*")
        if gs.hypotheses_met:
            require(gs.rate < bs.rate < rho, "rate chain broken where the closed form holds")

    if rho >= 1.0 - tol:
        require(isinstance(imp, AssumptionViolated), f"improving_gamma_exists gave {imp!r}")
    elif isinstance(imp, DegenerateSpectrum):
        require(abs(lam[1] + lam[-1]) <= 1e-10 + 2 * tol, f"spurious {imp!r}")
    elif imp is not None:
        require(not isinstance(imp, Exception), f"improving_gamma_exists raised {imp!r}")
        delta, improved = imp
        require(abs(delta) in (0.1, 0.01, 0.001), f"delta {delta!r}")
        improved = finite(improved, "improved rate")
        close(improved, rate(lam, "mla", 1.0 + delta), MOD_TOL, "improved rate")
        require(improved < rho, "improving gamma does not improve")
