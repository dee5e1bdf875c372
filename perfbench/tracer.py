"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the package, at each module
attribute that a caller actually looks up at call time: the package
imports functions by name (``from .fit import fit_model``), so wrapping
``fit.fit_model`` alone would miss the call made through
``select.fit_model``. Each wrapper records one span (name, start, end,
parent) in flat arrays kept in memory; :meth:`Tracer.save` writes them
out when the run ends. Self time is a span's duration minus the time
covered by its direct children, which on one thread never overlap.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._installed = []
        self.fits = []  # FittedModel results, in call order
        self.flows_read = 0
        self.kernel_elems = 0

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, on_call=None, on_result=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a span name or a callable mapping the call's
        arguments to one. ``on_call(args)`` runs before the call and
        ``on_result(result)`` after it, both inside the span.
        """
        fixed = None if callable(name) else self._nid(name)
        name_of = name if callable(name) else None
        nid_of, clock = self._nid, time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed if name_of is None else nid_of(name_of(args)))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if on_call is not None:
                on_call(args)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, module, attr, name, **hooks):
        """Replace ``module.attr`` by a traced wrapper until :meth:`restore`."""
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, **hooks))

    def restore(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def arrays(self):
        """Copies of the span columns (a view would pin the buffers)."""
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def durations(self, first: int = 0) -> list:
        """Seconds of every span from index ``first`` on."""
        return [e - s for s, e in zip(self.start[first:], self.end[first:])]

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        calls = np.bincount(name_id, minlength=len(self.names))
        incl = np.bincount(name_id, weights=dur, minlength=len(self.names))
        excl = np.bincount(name_id, weights=self_s, minlength=len(self.names))
        for nid, name in enumerate(self.names):
            out[name] = {"calls": int(calls[nid]), "s": float(incl[nid]),
                         "self_s": float(excl[nid])}
        return out

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end)


def install_layer_spans(tracer: Tracer, tm) -> None:
    """Wrap every layer boundary the three workloads cross.

    ``tm`` is a namespace holding the imported tailmix modules.
    """
    def on_fit(model):
        tracer.fits.append(model)

    def on_read(times):
        tracer.flows_read += int(times.size)

    def on_kernel(args):
        # unique values x components: the kernel's operation count
        tracer.kernel_elems += args[0].shape[0] * (args[4].shape[0] + 1)

    def fit_name(args):
        return "fit.fit_model." + args[1].label

    def cli_name(args):
        argv = args[0] if args else None
        return "cli.main." + (argv[0] if argv else "?")

    install = tracer.install
    install(tm.cli, "main", cli_name)
    install(tm.cli, "read_flow_file", "ingest.read_flow_file", on_result=on_read)
    install(tm.cli, "read_uptime_file", "ingest.read_uptime_file")
    install(tm.cli, "bin_at_windows", "ingest.bin_at_windows")
    install(tm.ingest, "bin_flows", "ingest.bin_flows")
    install(tm.cli, "write_series_file", "ingest.write_series_file")
    install(tm.cli, "read_series_file", "ingest.read_series_file")
    install(tm.cli, "describe_input", "reporting.describe_input")
    install(tm.cli, "write_report", "reporting.write_report")
    for module in (tm.cli, tm.select):
        install(module, "select_nested", "select.select_nested")
    for module in (tm.select, tm.experiments, tm.fit):
        install(module, "fit_model", fit_name, on_result=on_fit)
    install(tm.kernels, "mix_loglik_grad", "kernels.mix_loglik_grad",
            on_call=on_kernel)
    install(tm.kernels, "zeta_pair", "kernels.zeta_pair")
    for module in (tm.cli, tm.mixture):
        install(module, "responsibilities", "mixture.responsibilities")
    install(tm.cli, "tail_threshold", "mixture.tail_threshold")
    install(tm.mixture, "sample_mixture", "mixture.sample_mixture")
    install(tm.dists, "sample_pareto", "dists.sample_pareto")
    install(tm.dists, "sample_exp", "dists.sample_exp")
    install(tm.experiments, "hill_estimate", "experiments.hill_estimate")


def _frac(num, den) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the spans and the fitted models' diagnostics."""
    t = tracer.totals()
    m = {}
    read = t["ingest.read_flow_file"]
    m["ingest.read_flow_file.s"] = read["s"]
    m["ingest.read_flow_file.rows_per_s"] = _frac(tracer.flows_read, read["s"])
    for name in ("ingest.bin_flows", "ingest.write_series_file",
                 "ingest.read_series_file", "reporting.describe_input",
                 "reporting.write_report"):
        m[name + ".s"] = t[name]["s"]
    m["cli.main.self_s"] = sum((v["self_s"] for k, v in t.items()
                                if k.startswith("cli.main.")), 0.0)
    m["select.select_nested.calls"] = t["select.select_nested"]["calls"]
    m["select.eep_fits"] = _eep_fits_under_select(tracer)
    for label in ("P", "EP", "EEP"):
        fm = t["fit.fit_model." + label]
        m[f"fit.fit_model.{label}.calls"] = fm["calls"]
        m[f"fit.fit_model.{label}.self_s"] = fm["self_s"]
    m.update(convergence_counts(tracer.fits))
    kern = t["kernels.mix_loglik_grad"]
    m["fit.kernel_evals_per_iter"] = _frac(kern["calls"], m["fit.bfgs_iters"])
    m["kernels.mix_loglik_grad.calls"] = kern["calls"]
    m["kernels.mix_loglik_grad.self_s"] = kern["self_s"]
    m["kernels.mix_loglik_grad.us_per_call"] = 1e6 * _frac(kern["self_s"], kern["calls"])
    m["kernels.mix_loglik_grad.elems"] = tracer.kernel_elems
    m["kernels.mix_loglik_grad.elems_per_s"] = _frac(tracer.kernel_elems, kern["self_s"])
    zeta = t["kernels.zeta_pair"]
    m["kernels.zeta_pair.calls"] = zeta["calls"]
    m["kernels.zeta_pair.self_s"] = zeta["self_s"]
    m["kernels.zeta_pair.us_per_call"] = 1e6 * _frac(zeta["self_s"], zeta["calls"])
    for name in ("mixture.sample_mixture", "dists.sample_pareto",
                 "experiments.hill_estimate", "mixture.tail_threshold",
                 "mixture.responsibilities"):
        m[name + ".s"] = t[name]["s"]
    return m


def _eep_fits_under_select(tracer: Tracer) -> int:
    name_id, parent, _, _ = tracer.arrays()
    ids = tracer._name_ids
    eep, sel = ids.get("fit.fit_model.EEP"), ids.get("select.select_nested")
    if eep is None or sel is None:
        return 0
    spans = np.nonzero(name_id == eep)[0]
    parents = parent[spans]
    return int((name_id[parents[parents >= 0]] == sel).sum())


def convergence_counts(fits) -> dict:
    """Optimizer health read from ``FittedModel.diagnostics``.

    A restart is at the best optimum when its log-likelihood is within
    1e-6 relative of the best restart of the same fit.
    """
    iters = at_best = restarts = failed = stalled = stages = 0
    for model in fits:
        diag = model.diagnostics
        best = max(diag["restart_logliks"])
        for ll, rep in zip(diag["restart_logliks"], diag["restarts"]):
            restarts += 1
            if "error" in rep:
                failed += 1
                continue
            iters += rep["iters"]
            stages += len(rep["stage_status"])
            stalled += sum(s == "stalled" for s in rep["stage_status"])
            if abs(ll - best) <= 1e-6 * abs(best):
                at_best += 1
    return {
        "fit.bfgs_iters": iters,
        "fit.restarts_at_best_frac": _frac(at_best, restarts),
        "fit.restarts_failed": failed,
        "fit.stage_stalled_frac": _frac(stalled, stages),
    }
