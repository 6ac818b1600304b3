"""Seeded inputs and one pass of jobs for each benchmark workload.

A job is one unit of closed-loop work: a CLI subcommand run in-process
through `consensuslab.cli.main(argv)` with stdout captured, or (on
`landscape`) one library sweep over a spectrum. `build()` is the set-up
the benchmark times as `setup_s`: it generates the seeded networks,
writes them with `write_matrix`, decomposes the `landscape` spectra, and
returns the job list of one pass.

The seed redraws everything random inside fixed size classes: the node
labelling of every ring (a relabelled ring is still a ring, so its
closed-form oracle holds), the random networks, the `--gamma` values and
the simulation seeds. Each mix below gives the number of copies of a job
per pass, and every copy is its own draw (a `landscape` sweep draws its
gammas; its spectrum is shared), so a class is not one lucky network. A
`simulate` copy draws SIM_DRAWS inputs and runs the next one each pass:
whether the program's verdict on a periodic ring is right depends on the
labelling (see oracles.converges), and over many draws a run reports the
rate at which it is wrong rather than the luck of one draw. The counts
place the median job and the tail percentile (see metrics.py) inside the
block of one job class, not on the edge between two classes of different
cost; every run prints the copy each one landed on.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import consensuslab as cl
from consensuslab import analysis, cli

import oracles

# (family, n, copies per pass); self-loop rings use weight LOOP
VALIDATE_MIX = (
    ("even-ring", 16, 1),
    ("even-ring", 24, 1),
    ("even-ring", 32, 1),
    ("even-ring", 40, 1),
    ("even-ring", 48, 3),
    ("odd-ring", 17, 1),
    ("odd-ring", 33, 20),
    ("odd-ring", 49, 1),
    ("loop-ring", 32, 1),
    ("loop-ring", 64, 1),
    ("loop-ring", 96, 1),
    ("random", 32, 1),
    ("random", 64, 1),
    ("random", 96, 1),
)

ANALYZE_MIX = (
    ("random", 16, 1),
    ("loop-ring", 16, 1),
    ("even-ring", 16, 1),
    ("random", 32, 1),
    ("loop-ring", 32, 1),
    ("even-ring", 32, 3),
    ("random", 64, 1),
    ("loop-ring", 64, 2),
    ("random", 96, 1),
    ("loop-ring", 96, 1),
)

# every (n, model, shape) on a pure ring, with the copies per pass given
# in SIM_COPIES where they are not 1; then the two figure presets
SIM_SIZES = (4, 8, 16)
SIM_MODELS = (("degroot", None), ("accelerated", 1.2), ("mla", 0.5))
SIM_SHAPES = ((2000, 100), (200, 2000))
SIM_COPIES = {(16, "mla", 200, 2000): 4, (8, "mla", 2000, 100): 6}
SIM_FIGURES = (("fig2", 4), ("fig6", 4))
SIM_DRAWS = 16

# (family, n, copies per pass) of the swept spectra, one decomposed at
# set-up per family and n; each copy sweeps its own gamma grid
LANDSCAPE_SPECTRA = (
    ("random", 16, 1),
    ("loop-ring", 16, 3),
    ("random", 64, 1),
    ("loop-ring", 64, 1),
    ("even-ring", 64, 8),
)
LANDSCAPE_CONTOURS = 2
SWEEP_GAMMAS = 101

LOOP = 0.1
# drawn parameters keep this distance from the MLA criterion boundary, so
# the expected verdict never depends on rounding
CRITERION_MARGIN = 1e-6


@dataclass
class Network:
    """A network written at set-up, with what its oracle needs."""

    family: str
    n: int
    self_loop: float
    adjacency: cl.WeightedAdjacency
    path: str
    _spectrum: np.ndarray | None = field(default=None, repr=False)

    @property
    def spectrum(self) -> np.ndarray:
        """Exact spectrum, descending: closed form for rings, LAPACK otherwise."""
        if self._spectrum is None:
            if self.family == "random":
                w = np.linalg.eigvalsh(self.adjacency.weights)
                self._spectrum = w[::-1].copy()
            else:
                self._spectrum = oracles.ring_spectrum(self.n, self.self_loop)
        return self._spectrum


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


@dataclass
class Job:
    """One unit of work: `run` is timed, `check` (the oracle) is not."""

    key: str
    n: int
    run: Callable[[], object]
    check: Callable[[object], str | None]
    argv: tuple[str, ...] = ()  # the command line of a CLI job
    # files the CLI writes itself rather than through a library call
    cli_files: tuple[str, ...] = ()


@dataclass
class Workload:
    jobs: list[Job]  # one pass, in run order
    warmup: list[Job]


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
    return CliResult(rc, out.getvalue(), err.getvalue())


def _cli_job(key, n, argv, check, cli_files=()) -> Job:
    return Job(key, n, lambda: run_cli(argv), check, tuple(argv), tuple(cli_files))


def _cycling_job(key, n, draws) -> Job:
    """A CLI job that runs the next of its drawn (argv, check) pairs each time."""
    at = [-1]

    def run():
        at[0] = (at[0] + 1) % len(draws)
        return run_cli(draws[at[0]][0])

    return Job(key, n, run, lambda r: draws[at[0]][1](r), tuple(draws[0][0]))


class _Inputs:
    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.written = 0

    def network(self, family: str, n: int) -> Network:
        """Draw, relabel and write one network of a family and size."""
        if family == "random":
            A = cl.random_symmetric_stochastic(n, int(self.rng.integers(2**31)))
            s = 0.0
        else:
            s = LOOP if family == "loop-ring" else 0.0
            W = cl.make_ring(n, s).weights
            p = self.rng.permutation(n)
            A = cl.validate(W[np.ix_(p, p)])
        self.written += 1
        path = self.path(f"{family}-{n}-{self.written}.txt")
        cl.write_matrix(A, path)
        return Network(family, n, s, A, path)

    def gammas(self, lam_n: float, size: int) -> np.ndarray:
        """Sorted memory weights in (0, 2), clear of the criterion boundary."""
        out = []
        while len(out) < size:
            g = float(self.rng.uniform(0.02, 1.98))
            if abs(2.0 * g * lam_n - lam_n + 1.0) > CRITERION_MARGIN:
                out.append(g)
        return np.sort(np.array(out))

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def order(self, jobs: list[Job]) -> list[Job]:
        """A seeded run order for one pass."""
        return [jobs[i] for i in self.rng.permutation(len(jobs))]


def _validate(b: _Inputs) -> tuple[list[Job], list[Job]]:
    jobs = []
    for family, n, copies in VALIDATE_MIX:
        for _ in range(copies):
            net = b.network(family, n)
            argv = ["validate", "--porcelain", "--input", net.path]
            check = lambda r, net=net: oracles.check_validate(r, net)
            jobs.append(_cli_job(f"validate {family} n={n}", n, argv, check))
    return b.order(jobs), [j for j in jobs if j.n <= 32]


def _analyze(b: _Inputs) -> tuple[list[Job], list[Job]]:
    jobs = []
    for family, n, copies in ANALYZE_MIX:
        for _ in range(copies):
            net = b.network(family, n)
            g = float(b.gammas(float(net.spectrum[-1]), 1)[0])
            argv = ["analyze", "--porcelain", "--gamma", repr(g), "--input", net.path]
            check = lambda r, net=net, g=g: oracles.check_analyze(r, net, g)
            jobs.append(_cli_job(f"analyze {family} n={n}", n, argv, check))
    return b.order(jobs), [j for j in jobs if j.n <= 16]


def _simulate(b: _Inputs) -> tuple[list[Job], list[Job]]:
    jobs = []
    for n in SIM_SIZES:
        for model, param in SIM_MODELS:
            for runs, steps in SIM_SHAPES:
                for _ in range(SIM_COPIES.get((n, model, runs, steps), 1)):
                    out = b.path(f"sim-{len(jobs)}.csv")
                    draws = []
                    for _ in range(SIM_DRAWS):
                        net = b.network("even-ring", n)
                        seed = str(int(b.rng.integers(2**31)))
                        argv = ["simulate", "--input", net.path, "--model", model]
                        if param is not None:
                            argv += ["--param", repr(param)]
                        argv += ["--runs", str(runs), "--steps", str(steps)]
                        argv += ["--seed", seed, "--out", out]
                        check = lambda r, net=net, m=model, p=param, k=steps, out=out: (
                            oracles.check_simulate(r, net, m, p, k, out)
                        )
                        draws.append((argv, check))
                    key = f"simulate {model} n={n} {runs}x{steps}"
                    jobs.append(_cycling_job(key, n, draws))
    for name, copies in SIM_FIGURES:
        for i in range(copies):
            out_dir = b.path(f"{name}-{i}")
            seed = str(int(b.rng.integers(2**31)))
            argv = ["figure", name, "--out-dir", out_dir, "--seed", seed]
            files = [os.path.join(out_dir, f"{name}_{m}.csv") for m, _ in SIM_MODELS]
            check = lambda r, name=name, files=files: oracles.check_figure(r, name, files)
            jobs.append(_cli_job(f"figure {name}", 4, argv, check))
    return b.order(jobs), [j for j in jobs if j.n <= 4]


def sweep(spec, gammas) -> dict:
    """Library job: MLA verdicts over a gamma grid, then the three optima."""
    verdicts = []
    for g in gammas:
        v = analysis.check_mla_convergence(spec, float(g))
        rate = analysis.rho_ess_mla(spec, float(g)) if v.converges else None
        verdicts.append((v, rate))
    out = {"verdicts": verdicts}
    for name in ("optimal_gamma", "optimal_beta", "improving_gamma_exists"):
        try:
            out[name] = getattr(analysis, name)(spec)
        except cl.ConsensusLabError as e:
            out[name] = e
    return out


def _landscape(b: _Inputs) -> tuple[list[Job], list[Job]]:
    jobs = []
    for family, n, copies in LANDSCAPE_SPECTRA:
        net = b.network(family, n)
        spec = cl.eigendecompose_symmetric(net.adjacency)
        for _ in range(copies):
            gammas = b.gammas(float(net.spectrum[-1]), SWEEP_GAMMAS)
            jobs.append(Job(
                f"sweep {family} n={n}",
                n,
                lambda spec=spec, gammas=gammas: sweep(spec, gammas),
                lambda r, net=net, gammas=gammas: oracles.check_sweep(r, net, gammas),
            ))
    for i in range(LANDSCAPE_CONTOURS):
        out_dir = b.path(f"contour-{i}")
        files = [os.path.join(out_dir, f) for f in ("contour_grid.csv", "contour_disc_zero.csv")]
        cells = b.rng.choice(oracles.CONTOUR_POINTS**2, size=64, replace=False)
        argv = ["figure", "contour", "--out-dir", out_dir]
        check = lambda r, files=files, cells=cells: oracles.check_contour(r, files, cells)
        jobs.append(_cli_job("figure contour", oracles.CONTOUR_POINTS, argv, check, files))
    return b.order(jobs), [j for j in jobs if j.n <= 16]


_MIXES = {
    "validate": _validate,
    "analyze": _analyze,
    "simulate": _simulate,
    "landscape": _landscape,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Set up one workload in workdir (which must exist) and return its pass."""
    return Workload(*_MIXES[name](_Inputs(seed, workdir)))
