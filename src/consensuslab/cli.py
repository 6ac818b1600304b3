"""Command-line front end.

Subcommands: validate, spectrum, analyze, simulate, figure. Networks come
either from a matrix file (--input) or from the ring generator (--ring N
[--self-loop EPS]). Exit codes: 0 success, 1 analysis or assumption
failure, 2 usage or parse error. All figure output is CSV data; plotting
is left to external tools.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import analysis, net, sim
from .dynamics import ModelKind, ModelParams
from .errors import (
    BadParameter,
    ConsensusLabError,
    DominantNotSimple,
    NotConvergent,
    ParseError,
)
from .spectral import eigendecompose_symmetric

_HUMAN = "%.12g"
_PORCELAIN = "%.17g"


def _add_input_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--input", metavar="PATH", help="matrix file to read")
    g.add_argument("--ring", type=int, metavar="N", help="generate an N-agent ring")
    p.add_argument(
        "--self-loop",
        type=float,
        default=None,
        metavar="EPS",
        help="self weight for --ring (default 0)",
    )


def _cannot(verb: str, path: str, e: OSError) -> str:
    """'cannot <verb> <path>: <reason>', the path's middle cut out past 200
    characters, as an OSError's own text would repeat it whole."""
    if len(path) > 200:
        path = f"{path[:98]}...{path[-99:]}"
    return f"cannot {verb} {path}: {e.strerror or e}"


def _load(args, parser: argparse.ArgumentParser) -> net.WeightedAdjacency:
    if args.ring is not None:
        return net.make_ring(args.ring, args.self_loop or 0.0)
    if args.self_loop is not None:
        parser.error("--self-loop only applies with --ring")
    try:
        return net.read_matrix(args.input)
    except OSError as e:
        raise BadParameter(_cannot("read", args.input, e)) from None


def _porcelain(pairs) -> None:
    """Print each (key, value) as the line key=value: a bool as true or
    false, None as nan, a tuple as its numbers comma-joined, and a number
    as %.17g, which prints an int as itself."""
    for key, value in pairs:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif value is None:
            value = "nan"
        elif isinstance(value, tuple):
            value = ",".join(_PORCELAIN % v for v in value)
        else:
            value = _PORCELAIN % value
        print(f"{key}={value}")


def cmd_validate(args, parser) -> int:
    A = _load(args, parser)
    rep = net.analyze_structure(A)
    if args.porcelain:
        # witness_k is None unless the network is primitive
        known = {k: v for k, v in vars(rep).items() if v is not None}
        _porcelain({"n": A.n, "row_stochastic": True, **known}.items())
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
    return 0


def cmd_spectrum(args, parser) -> int:
    A = _load(args, parser)
    spec = eigendecompose_symmetric(A)
    columns = (np.arange(1, A.n + 1), spec.eigenvalues)
    print("index,eigenvalue")
    np.savetxt(sys.stdout, np.column_stack(columns), "%d," + _PORCELAIN)
    return 0


def cmd_analyze(args, parser) -> int:
    A = _load(args, parser)
    r = analysis.summary(eigendecompose_symmetric(A), args.gamma)
    if args.porcelain:
        # the verdict's keys only follow a given gamma; no_optima is for humans
        last = r._fields.index("gamma" if r.gamma is None else "no_optima")
        _porcelain(zip(r._fields[:last], r))
    else:
        f = _HUMAN
        print(f"agents:      {r.n}")
        print("spectrum:    " + ", ".join(f % v for v in r.spectrum))
        print(f"rho_ess(A):  {f % r.rho_ess}   (DeGroot rate)")
        if r.gamma_star is not None:
            how = "closed form valid" if r.mla_hypotheses_met else "recomputed honestly"
            print(f"gamma* = {f % r.gamma_star}   MLA rate {f % r.mla_rate}   ({how})")
        elif r.beta_star is not None:
            print("gamma* unavailable: needs a negative smallest eigenvalue")
        if r.beta_star is None:
            print(f"optimal parameters unavailable: {r.no_optima}")
        else:
            rate = f % r.accelerated_rate
            print(f"beta*  = {f % r.beta_star}   accelerated rate {rate}")
        if r.gamma_star is not None:
            print(f"rate ordering MLA < accelerated < DeGroot: {r.rate_chain_ok}")
        if r.gamma is not None:
            if r.gamma_converges:
                rate = f % r.mla_rate_at_gamma
                print(f"gamma={f % r.gamma}: convergent, rate {rate}")
            else:
                print(
                    f"gamma={f % r.gamma}: NOT convergent "
                    f"(gamma in (0,2): {r.gamma_in_range}, "
                    f"criterion value: {f % r.criterion_ii_value})"
                )
    return 0


def _model_from_args(args, parser) -> ModelParams:
    if args.model == "degroot":
        return ModelParams.degroot()
    if args.param is None:
        parser.error(f"--param is required for --model {args.model}")
    return ModelParams(ModelKind(args.model), args.param)


def cmd_simulate(args, parser) -> int:
    A = _load(args, parser)
    model = _model_from_args(args, parser)
    cfg = sim.SimConfig(
        model=model, steps=args.steps, runs=args.runs, seed=args.seed
    )
    summary = sim.run_batch(A, cfg)
    try:
        summary.write_csv(args.out)
    except OSError as e:
        print(f"error: {_cannot('write', args.out, e)}", file=sys.stderr)
        return 1
    width0 = summary.env_max[0] - summary.env_min[0]
    width_end = summary.env_max[-1] - summary.env_min[-1]
    print(f"wrote {args.out}")
    print(f"initial envelope width: {_HUMAN % width0}")
    print(f"final envelope width:   {_HUMAN % width_end}")
    try:
        fit = sim.fit_rate(A, model, sim._initial_state(args.seed, 0, A.n), args.steps)
    except (NotConvergent, DominantNotSimple):
        # a reducible network never reaches one common value either
        print("model not convergent on this network; no rate fit")
    except ConsensusLabError as e:
        print(f"rate fit skipped: {e}")
    else:
        print(
            f"fitted decay rate: {_HUMAN % fit.fitted_rate} "
            f"(theory {_HUMAN % fit.model_rate}, r^2 {_HUMAN % fit.r_squared}, "
            f"window {fit.window[0]}..{fit.window[1]})"
        )
    return 0


def _figure_series(args):
    """The network of fig2 or fig6 and the (label, SimConfig) of each series."""
    if args.name == "fig2":
        A, beta, gamma = net.make_ring(4, 0.0), 1.2, 0.5
    else:
        A = net.make_ring(4, 0.1)
        r = analysis.summary(eigendecompose_symmetric(A))
        beta, gamma = r.beta_star, r.gamma_star
    models = (
        ModelParams.degroot(),
        ModelParams.accelerated(beta),
        ModelParams.mla(gamma),
    )
    return A, [
        (m.kind.value, sim.SimConfig(m, args.steps, args.runs, args.seed))
        for m in models
    ]


def cmd_figure(args, parser) -> int:
    out_dir = args.out_dir
    # the settings are checked before the output directory is made
    series = None if args.name == "contour" else _figure_series(args)
    try:
        os.makedirs(out_dir, exist_ok=True)
        written = []
        if series is not None:
            A, configs = series
            for label, cfg in configs:
                path = os.path.join(out_dir, f"{args.name}_{label}.csv")
                sim.run_batch(A, cfg).write_csv(path)
                written.append(path)
        else:
            grid_path = os.path.join(out_dir, "contour_grid.csv")
            lams = np.linspace(-1.0, 1.0, 201)
            gams = np.linspace(0.0, 2.0, 201)
            # one kernel call and one %-format per block of 16 lambda rows,
            # which keeps the kernel's temporaries well under 1 MB: a row's
            # template "lam,g0,%.17g\nlam,g1,%.17g\n..." is lam joined
            # between the per-gamma cells, which are formatted once
            cells = [f",{g:.17g},%.17g\n" for g in gams]
            with open(grid_path, "w") as fh:
                fh.write("lambda,gamma,value\n")
                for start in range(0, lams.size, 16):
                    block = lams[start : start + 16]
                    values = analysis.lambda_hat_max(block[:, None], gams)
                    rows = map("{:.17g}".format, block)
                    template = "".join(s + s.join(cells) for s in rows)
                    fh.write(template % tuple(values.ravel().tolist()))
            written.append(grid_path)
            locus_path = os.path.join(out_dir, "contour_disc_zero.csv")
            with open(locus_path, "w") as fh:
                fh.write("branch,gamma,lambda\n")
                for g in gams:
                    fh.write(f"axis,{g:.17g},0\n")
                    if g > 0.0:
                        lam = 4.0 * (g - 1.0) / (g * g)
                        if -1.0 <= lam <= 1.0:
                            fh.write(f"curve,{g:.17g},{lam:.17g}\n")
            written.append(locus_path)
    except OSError as e:
        print(f"error: {_cannot('write under', out_dir, e)}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by main."""
    parser = argparse.ArgumentParser(
        prog="consensuslab",
        description="Consensus-dynamics laboratory: validate networks, "
        "analyze convergence rates, and run seeded simulations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a network and report its structure")
    _add_input_args(p)
    p.add_argument("--porcelain", action="store_true", help="key=value output")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("spectrum", help="print the eigenvalues as CSV")
    _add_input_args(p)
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("analyze", help="rates, optimal parameters, verdicts")
    _add_input_args(p)
    p.add_argument("--gamma", type=float, default=None, help="test this memory weight")
    p.add_argument("--porcelain", action="store_true", help="key=value output")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("simulate", help="run a seeded batch, write envelope CSV")
    _add_input_args(p)
    p.add_argument(
        "--model", required=True, choices=["degroot", "accelerated", "mla"]
    )
    p.add_argument("--param", type=float, default=None, help="beta or gamma")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="PATH", help="envelope CSV path")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("figure", help="emit CSV data for the preset experiments")
    p.add_argument("name", choices=["fig2", "fig6", "contour"])
    p.add_argument("--out-dir", default=".", metavar="DIR")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ParseError, BadParameter) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConsensusLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
