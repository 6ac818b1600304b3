"""In-memory spans around the public functions of consensuslab's layers.

`Tracer.install()` wraps every public function (and public method of a
public class) defined in the traced modules, at every name that binds
it: the package re-exports, and the `from .x import y` bindings such as
`cli`'s `eigendecompose_symmetric` and `rho_ess`, `analysis`'s `rho_ess`
and `sim`'s `validate`. Each call records a span (name, start, end,
parent span, job id, whether a ConsensusLabError left it). The scalar
root mappers run tens of thousands of times per job, so they are counted
instead of spanned and their time stays in the caller's self time.
`uninstall()` restores the originals. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from consensuslab.errors import ConsensusLabError
from metrics import LAYERS

COUNTED = (
    "analysis.map_eigenvalue",
    "analysis.map_eigenvalue_accelerated",
    "analysis.lambda_hat_max",
)


def _eig_work(work, args):
    work["spectral.eig_work_n3"] += args[0].n ** 3


def _read_work(work, args):
    work["net.read_bytes"] += os.path.getsize(args[0])


def _batch_work(work, args):
    A, cfg = args[0], args[1]
    work["sim.agent_steps"] += cfg.runs * cfg.steps * A.n
    work["sim.substreams"] += cfg.runs


def _csv_work(work, args):
    work["sim.write_bytes"] += os.path.getsize(args[1])


# work counted from a call's arguments once the call has returned
WORK = {
    "spectral.eigendecompose_symmetric": _eig_work,
    "net.read_matrix": _read_work,
    "sim.run_batch": _batch_work,
    "sim.TraceSummary.write_csv": _csv_work,
}


def _public(module):
    """(owner, attribute, qualified name, function) for each public function."""
    layer = module.__name__.rsplit(".", 1)[1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{layer}.{attr}", obj
        elif inspect.isclass(obj):
            for mattr, meth in vars(obj).items():
                if inspect.isfunction(meth) and not mattr.startswith("_"):
                    yield obj, mattr, f"{layer}.{attr}.{mattr}", meth


class Tracer:
    def __init__(self):
        # one [name, start, end, parent, job, error] list per span
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.work: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name, f):
        spans, stack, after = self.spans, self._stack, WORK.get(name)

        def wrapper(*args, **kwargs):
            i = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, False]
            spans.append(rec)
            stack.append(i)
            rec[1] = perf_counter()
            try:
                result = f(*args, **kwargs)
            except ConsensusLabError:
                rec[5] = True
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self.work, args)
            return result

        return wrapper

    def _count(self, name, f):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        mods = [sys.modules[f"consensuslab.{layer}"] for layer in LAYERS]
        wrappers = {}
        for mod in mods:
            for owner, attr, name, f in _public(mod):
                wrap = self._count if name in COUNTED else self._span
                wrappers[f] = wrap(name, f)
                self._restore.append((owner, attr, f))
                setattr(owner, attr, wrappers[f])
        package = [m for k, m in sys.modules.items() if k.split(".")[0] == "consensuslab"]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                # functions are hashable; other module attributes may not be
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self, passes: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics per traced pass (see metrics.PER_LAYER)."""
        names = [s[0] for s in self.spans]
        start = np.array([s[1] for s in self.spans], dtype=float)
        end = np.array([s[2] for s in self.spans], dtype=float)
        parent = np.array([s[3] for s in self.spans], dtype=int)
        error = np.array([s[5] for s in self.spans], dtype=bool)
        layer = np.array([n.split(".", 1)[0] for n in names])
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_s = dur - child
        crossed = error & (~nested | (layer[np.maximum(parent, 0)] != layer))
        out = {}
        for L in LAYERS:
            mine = layer == L
            out[f"{L}.calls"] = int(mine.sum()) / passes
            out[f"{L}.self_s"] = float(self_s[mine].sum()) / passes
            out[f"{L}.share"] = float(self_s[mine].sum()) / wall_s
            out[f"{L}.errors"] = int((crossed & mine).sum()) / passes
        names = np.array(names)

        def inclusive(name):
            return float(dur[names == name].sum()) / passes

        def calls(name):
            return int((names == name).sum())

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        w = self.work
        eig_s = inclusive("spectral.eigendecompose_symmetric")
        batch_s = inclusive("sim.run_batch")
        fits = names == "sim.fit_rate"
        out.update({
            "spectral.eig_s": eig_s,
            "spectral.eig_calls": calls("spectral.eigendecompose_symmetric") / passes,
            "spectral.eig_work_n3": w["spectral.eig_work_n3"] / passes,
            "spectral.eig_ns_per_n3": per(eig_s * passes, w["spectral.eig_work_n3"], 1e9),
            "net.structure_s": inclusive("net.analyze_structure"),
            "net.read_s": inclusive("net.read_matrix"),
            "net.read_bytes": w["net.read_bytes"] / passes,
            "net.validate_s": inclusive("net.validate"),
            "analysis.map_calls": (
                self.counts["analysis.map_eigenvalue"]
                + self.counts["analysis.map_eigenvalue_accelerated"]
            ) / passes,
            "analysis.optimal_beta_s": inclusive("analysis.optimal_beta"),
            "analysis.convergence_s": inclusive("analysis.check_mla_convergence"),
            "sim.run_batch_s": batch_s,
            "sim.agent_steps": w["sim.agent_steps"] / passes,
            "sim.substreams": w["sim.substreams"] / passes,
            "sim.ns_per_agent_step": per(batch_s * passes, w["sim.agent_steps"], 1e9),
            "sim.fit_s": inclusive("sim.fit_rate"),
            "sim.fit_ok_ratio": per(int((fits & ~error).sum()), int(fits.sum())),
            "sim.write_csv_s": inclusive("sim.TraceSummary.write_csv"),
            "sim.write_bytes": w["sim.write_bytes"] / passes,
            "cli.write_bytes": w["cli.write_bytes"] / passes,
        })
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "job", "error"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "work": dict(self.work),
        }
