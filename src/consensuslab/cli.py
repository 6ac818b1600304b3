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
    BadSpectrum,
    ConsensusLabError,
    DominantNotSimple,
    InsufficientData,
    NotConvergent,
    ParseError,
)
from .spectral import eigendecompose_symmetric, rho_ess

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


def _load(args, parser: argparse.ArgumentParser) -> net.WeightedAdjacency:
    if args.ring is not None:
        return net.make_ring(args.ring, args.self_loop or 0.0)
    if args.self_loop is not None:
        parser.error("--self-loop only applies with --ring")
    try:
        return net.read_matrix(args.input)
    except OSError as e:
        raise BadParameter(f"cannot read {args.input}: {e.strerror or e}") from None


def _flag(v: bool) -> str:
    return "true" if v else "false"


def cmd_validate(args, parser) -> int:
    A = _load(args, parser)
    rep = net.analyze_structure(A)
    if args.porcelain:
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
    # the solve rejects asymmetric networks and rho_ess reducible ones; on one
    # that is not primitive rho_ess is exactly 1 and the optima raise BadSpectrum
    spec = eigendecompose_symmetric(A)
    rho = rho_ess(spec)

    gs = bs = None
    try:
        gs = analysis.optimal_gamma(spec)
        bs = analysis.optimal_beta(spec)
    except BadSpectrum:
        pass
    chain_ok = gs is not None and bs is not None and gs.rate < bs.rate < rho

    verdict = gamma_rate = None
    if args.gamma is not None:
        verdict = analysis.check_mla_convergence(spec, args.gamma)
        if verdict.converges:
            gamma_rate = verdict.limiting_eigenvalue_modulus

    if args.porcelain:
        f = _PORCELAIN
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
            print(f"gamma={f % args.gamma}")
            print(f"gamma_converges={_flag(verdict.converges)}")
            print(f"gamma_in_range={_flag(verdict.gamma_in_range)}")
            print(f"criterion_ii_value={f % verdict.criterion_ii_value}")
            print(f"limiting_modulus={f % verdict.limiting_eigenvalue_modulus}")
            print(
                "mla_rate_at_gamma="
                + (f % gamma_rate if gamma_rate is not None else "nan")
            )
    else:
        f = _HUMAN
        print(f"agents:      {A.n}")
        print("spectrum:    " + ", ".join(f % v for v in spec.eigenvalues))
        print(f"rho_ess(A):  {f % rho}   (DeGroot rate)")
        if gs is not None and bs is not None:
            valid = "closed form valid" if gs.hypotheses_met else "recomputed honestly"
            print(f"gamma* = {f % gs.gamma}   MLA rate {f % gs.rate}   ({valid})")
            print(f"beta*  = {f % bs.beta}   accelerated rate {f % bs.rate}")
            print(f"rate ordering MLA < accelerated < DeGroot: {chain_ok}")
        else:
            print(
                "optimal parameters unavailable: needs a primitive network "
                "with a negative smallest eigenvalue and essential radius "
                "inside (0, 1)"
            )
        if verdict is not None:
            if verdict.converges:
                print(f"gamma={f % args.gamma}: convergent, rate {f % gamma_rate}")
            else:
                print(
                    f"gamma={f % args.gamma}: NOT convergent "
                    f"(gamma in (0,2): {verdict.gamma_in_range}, "
                    f"criterion value: {f % verdict.criterion_ii_value})"
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
    if summary.first_nonfinite_step is not None:
        print(
            f"error: the states overflow at step {summary.first_nonfinite_step}"
            f" of {args.steps}; no envelope written",
            file=sys.stderr,
        )
        return 1
    try:
        summary.write_csv(args.out)
    except OSError as e:
        print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
        return 1
    width0 = summary.env_max[0] - summary.env_min[0]
    width_end = summary.env_max[-1] - summary.env_min[-1]
    print(f"wrote {args.out}")
    print(f"initial envelope width: {_HUMAN % width0}")
    print(f"final envelope width:   {_HUMAN % width_end}")
    try:
        rho = analysis.model_rate(eigendecompose_symmetric(A), model)
    except (NotConvergent, DominantNotSimple):
        # a reducible network never reaches one common value either
        print("model not convergent on this network; no rate fit")
        return 0
    except ConsensusLabError as e:
        print(f"rate fit skipped: {e}")
        return 0
    x0 = sim._initial_state(args.seed, 0, A.n)
    try:
        fit = sim.fit_rate(A, model, x0, args.steps)
    except InsufficientData as e:
        print(f"rate fit skipped: {e}")
    else:
        print(
            f"fitted decay rate: {_HUMAN % fit.fitted_rate} "
            f"(theory {_HUMAN % rho}, r^2 {_HUMAN % fit.r_squared}, "
            f"window {fit.window[0]}..{fit.window[1]})"
        )
    return 0


def _figure_series(args):
    if args.name == "fig2":
        A = net.make_ring(4, 0.0)
        return A, [
            ("degroot", ModelParams.degroot()),
            ("accelerated", ModelParams.accelerated(1.2)),
            ("mla", ModelParams.mla(0.5)),
        ]
    A = net.make_ring(4, 0.1)
    spec = eigendecompose_symmetric(A)
    gs = analysis.optimal_gamma(spec)
    bs = analysis.optimal_beta(spec)
    return A, [
        ("degroot", ModelParams.degroot()),
        ("accelerated", ModelParams.accelerated(bs.beta)),
        ("mla", ModelParams.mla(gs.gamma)),
    ]


def cmd_figure(args, parser) -> int:
    out_dir = args.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        written = []
        if args.name in ("fig2", "fig6"):
            A, series = _figure_series(args)
            for label, model in series:
                cfg = sim.SimConfig(
                    model=model, steps=args.steps, runs=args.runs, seed=args.seed
                )
                path = os.path.join(out_dir, f"{args.name}_{label}.csv")
                sim.run_batch(A, cfg).write_csv(path)
                written.append(path)
        else:
            grid_path = os.path.join(out_dir, "contour_grid.csv")
            lams = np.linspace(-1.0, 1.0, 201)
            gams = np.linspace(0.0, 2.0, 201)
            # one kernel call and one %-format per lambda row: the row
            # template "lam,g0,%.17g\nlam,g1,%.17g\n..." is lam joined
            # between the per-gamma cells, which are formatted once
            cells = [f",{g:.17g},%.17g\n" for g in gams]
            with open(grid_path, "w") as fh:
                fh.write("lambda,gamma,value\n")
                for lam in lams:
                    lam_str = f"{lam:.17g}"
                    row = analysis.lambda_hat_max(lam, gams).tolist()
                    fh.write((lam_str + lam_str.join(cells)) % tuple(row))
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
        print(f"error: cannot write under {out_dir}: {e}", file=sys.stderr)
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


if __name__ == "__main__":
    sys.exit(main())
