"""Run one tailmix benchmark workload and print its metrics.

    python3 perfbench/run.py --workload trace --seed 1 --seconds 30 --trace 0

Run it from the root of a tailmix checkout; it imports the package from
``src/``. Workloads are described in ``workloads.py``. With ``--trace 0``
the run is untraced and reports the end-to-end metrics; with
``--trace 1`` it runs the pool once untraced and once with spans at
every layer boundary, and reports the per-layer metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric by name with its unit, and the input properties.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from speed import HostSpeed
from tracer import Tracer, install_layer_spans, layer_metrics
from workloads import WORKLOADS, Failures, percentile_tail

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_LAUNCHES = 7
MIN_PASSES = 2

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pipeline_s": "s",
    "fit_p50_s": "s",
    "neg_loglik_sum": "nats",
}

PER_LAYER_UNITS = {
    "ingest.read_flow_file.s": "s",
    "ingest.read_flow_file.rows_per_s": "1/s",
    "ingest.bin_flows.s": "s",
    "ingest.write_series_file.s": "s",
    "ingest.read_series_file.s": "s",
    "reporting.describe_input.s": "s",
    "reporting.write_report.s": "s",
    "cli.main.self_s": "s",
    "select.select_nested.calls": "count",
    "select.eep_fits": "count",
    "fit.fit_model.P.calls": "count",
    "fit.fit_model.EP.calls": "count",
    "fit.fit_model.EEP.calls": "count",
    "fit.fit_model.P.self_s": "s",
    "fit.fit_model.EP.self_s": "s",
    "fit.fit_model.EEP.self_s": "s",
    "fit.bfgs_iters": "count",
    "fit.kernel_evals_per_iter": "ratio",
    "fit.restarts_at_best_frac": "fraction",
    "fit.restarts_failed": "count",
    "fit.stage_stalled_frac": "fraction",
    "kernels.mix_loglik_grad.calls": "count",
    "kernels.mix_loglik_grad.self_s": "s",
    "kernels.mix_loglik_grad.us_per_call": "us",
    "kernels.mix_loglik_grad.elems": "count",
    "kernels.mix_loglik_grad.elems_per_s": "1/s",
    "kernels.zeta_pair.calls": "count",
    "kernels.zeta_pair.self_s": "s",
    "kernels.zeta_pair.us_per_call": "us",
    "mixture.sample_mixture.s": "s",
    "dists.sample_pareto.s": "s",
    "experiments.hill_estimate.s": "s",
    "mixture.tail_threshold.s": "s",
    "mixture.responsibilities.s": "s",
    "trace_overhead_frac": "fraction",
}

# Every end-to-end figure printed for reading. Those that only one
# workload has, or that read 0 (failed_frac), or that spread too much
# across seeds on a shared host to be gated (fit_tail_s), are printed
# but not in E2E_UNITS.
READING_ORDER = (
    "setup_s", "peak_rss_mb", "failed_frac", "loglik_sum", "pipeline_s",
    "bin_s", "fit_select_s", "classify_s", "selections_per_s",
    "select_p50_s", "select_tail_s", "choice_rate", "fits_per_s",
    "fit_p50_s", "fit_tail_s", "alpha_rel_err_p50",
)
ONLY_ON = {
    "bin_s": "trace", "fit_select_s": "trace", "classify_s": "trace",
    "selections_per_s": "selection", "select_p50_s": "selection",
    "select_tail_s": "selection", "choice_rate": "selection",
    "fits_per_s": "recovery", "alpha_rel_err_p50": "recovery",
}


def load_tailmix():
    """Import the package from the checkout's ``src`` directory."""
    src = ROOT / "src"
    if not (src / "tailmix" / "__init__.py").is_file():
        raise FileNotFoundError(f"{src / 'tailmix'} not found: run from a tailmix checkout")
    sys.path.insert(0, str(src))
    from tailmix import (cli, dists, experiments, fit, ingest, kernels, mixture,
                         reporting, seeding, select)
    return SimpleNamespace(
        root=ROOT, cli=cli, dists=dists, experiments=experiments, fit=fit,
        ingest=ingest, kernels=kernels, mixture=mixture, reporting=reporting,
        seeding=seeding, select=select,
    )


def measure_setup() -> float:
    """Median wall time of a fresh ``python -m tailmix.cli --version``:
    interpreter start, package import and parser construction. The first
    launch only warms the file and bytecode caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for k in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-m", "tailmix.cli", "--version"],
                       cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True)
        if k:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(tm) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": tm.kernels.ACTIVE_BACKEND,
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_item(wl, index):
    """Run one work item; return its record (None if it raised) and its
    start and end on the ``perf_counter`` clock. A failing item must not
    end the run."""
    t0 = time.perf_counter()
    try:
        rec = wl.run_item(index)
    except Exception:  # noqa: BLE001 - counted as failed by the caller
        traceback.print_exc()
        rec = None
    return rec, t0, time.perf_counter()


def end_to_end(wl, tm, seconds):
    """Repeat passes over the pool until ``seconds`` are used, at least
    MIN_PASSES times. Every pass repeats the same work. Timings are means
    over the passes, per item and per ``fit_model`` call, divided by the
    run's mean host slowdown (see ``speed.py``), which is sampled before
    every item and every CLI command."""
    speed = HostSpeed()
    setup_s = measure_setup()
    fit_timer = Tracer()
    for module in (tm.select, tm.fit):
        fit_timer.install(module, "fit_model", "fit_model")
    cli_main = tm.cli.main
    tm.cli.main = speed.before_each_call(cli_main)
    records, errors, passes = [], 0, 0
    item_s, fit_s = defaultdict(list), defaultdict(list)
    t0 = time.perf_counter()
    try:
        while True:
            for index in range(len(wl.pool)):
                speed.sample()
                n0 = len(fit_timer.start)
                rec, start, end = run_item(wl, index)
                if rec is None:
                    errors += 1
                    continue
                item_s[index].append(end - start)
                for j, dur in enumerate(fit_timer.durations(n0)):
                    fit_s[index, j].append(dur)
                if passes:
                    rec.pop("sample", None)  # repeats are only checked for bytes
                records.append(rec)
            passes += 1
            if passes == 1:
                # later passes only raise the allocator's high-water mark
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - t0
            if passes >= MIN_PASSES and elapsed + 0.5 * elapsed / passes >= seconds:
                break
    finally:
        fit_timer.restore()
        tm.cli.main = cli_main
    if not records:
        raise RuntimeError("no work item completed")
    slowdown = speed.slowdown()
    fit_wall = [float(np.mean(v)) for v in fit_s.values()]
    wall_pipeline_s = sum(float(np.mean(v)) for v in item_s.values())
    q, fit_tail = percentile_tail(fit_wall)
    loglik_sum = float(sum(wl.logliks(records)))
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "pipeline_s": wall_pipeline_s / slowdown,
        "fit_p50_s": float(np.median(fit_wall)) / slowdown,
        "neg_loglik_sum": -loglik_sum,
    }
    props, extra = wl.summary(records, elapsed, slowdown)
    props.update(
        passes=passes, fit_calls_per_pass=len(fit_wall), host_slowdown=slowdown,
        wall_pipeline_s=wall_pipeline_s, wall_fit_p50_s=float(np.median(fit_wall)),
    )
    extra["fit_tail_s"] = (fit_tail / slowdown, f"s@p{q:.1f}/n={len(fit_wall)}")
    if hasattr(wl, "repeat_first"):
        records.append(wl.repeat_first())
    return records, errors, metrics, props, extra


def per_layer(wl, tm, workload, seed):
    """Run every pool item twice, untraced and traced, in alternating
    order, so that both runs see the same warm state."""
    tracer = Tracer()
    records, errors, wall = [], 0, {False: 0.0, True: 0.0}
    for k in range(len(wl.pool)):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                install_layer_spans(tracer, tm)
            try:
                rec, start, end = run_item(wl, k)
            finally:
                tracer.restore()
            if rec is None:
                errors += 1
            else:
                records.append(rec)
            wall[traced] += end - start
    metrics = layer_metrics(tracer)
    metrics["trace_overhead_frac"] = wall[True] / wall[False] - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload}-seed{seed}.npz")
    return records, errors, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("trace", "selection", "recovery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        tm = load_tailmix()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work_dir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](tm, args.seed, args.seconds, work_dir)
        if args.trace:
            records, errors, metrics = per_layer(wl, tm, args.workload, args.seed)
            units, props, extra = PER_LAYER_UNITS, {}, {}
        else:
            records, errors, metrics, props, extra = end_to_end(wl, tm, args.seconds)
            units = E2E_UNITS
        failures = Failures()
        if records:
            wl.check(records, failures)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = wl.steps_per_item * (len(records) + errors)
    failed = len(failures.items) + wl.steps_per_item * errors
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}")
    print("environment: " + json.dumps(environment(tm), sort_keys=True))
    if props:
        print("inputs: " + json.dumps(props, sort_keys=True))
    if args.trace:
        for name in units:
            print(f"  {name:<40} {metrics[name]:.6g} {units[name]}")
    else:
        shown = dict(extra)
        shown.update({k: (v, units[k]) for k, v in metrics.items() if k not in shown})
        shown["failed_frac"] = (failed / attempted if attempted else 0.0, "fraction")
        shown["loglik_sum"] = (-metrics["neg_loglik_sum"], "nats")
        for name in READING_ORDER:
            if name in shown:
                value, unit = shown[name]
                print(f"  {name:<20} {value:.6g} {unit}")
            else:
                print(f"  {name:<20} n/a (measured on the {ONLY_ON[name]} workload)")
        print(f"  {'neg_loglik_sum':<20} {metrics['neg_loglik_sum']:.6g} nats")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
