"""Record a baseline: one untraced and one traced run of every workload,
the environment, and two kernel micro-timings to cross-check the
traced per-call figures against.

    python3 perfbench/baseline.py --seed 1 --label <commit> --out perfbench/baseline.json

Run it from the root of a tailmix checkout on an otherwise idle host;
the runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import run

REPEATS = 2000


def micro_us(fn, *args, repeats=REPEATS) -> float:
    """Median over 5 batches of the mean microseconds per call."""
    fn(*args)
    batches = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn(*args)
        batches.append(1e6 * (time.perf_counter() - t0) / repeats)
    return sorted(batches)[2]


def crosscheck(tm) -> dict:
    """Per-call kernel cost on the sets the roadmap quotes: the EEP truth
    of the ``eep-truth-n9000`` selection row, and zeta at alpha 1.6."""
    import numpy as np

    row = next(r for r in tm.experiments.PRESETS["table2-desk"].rows
               if r.row_id == "eep-truth-n9000")
    spec = tm.mixture.ModelSpec(2)
    sample = tm.mixture.sample_mixture(spec, row.truth_params, row.n_samples,
                                       np.random.default_rng(1))
    values, mult = tm.mixture.aggregate_counts(sample, 1)
    m, lam = row.truth_params.as_arrays()
    alpha = row.truth_params.alpha
    z, dz = tm.kernels.zeta_pair(alpha, 1.0)
    args = (values, np.log(values), mult, m, lam, alpha, 1.0, z, dz, False)
    return {
        "mix_loglik_grad_us": micro_us(tm.kernels.mix_loglik_grad, *args),
        "mix_loglik_grad_n_unique": int(values.size),
        "zeta_pair_us_alpha_1.6": micro_us(tm.kernels.zeta_pair, 1.6, 1.0),
        "roadmap": {"mix_loglik_grad_us": 104.0, "n_unique": 201,
                    "zeta_pair_us_alpha_1.6": 12.0},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--label", required=True, help="commit or tree recorded")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {}
    for wl in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(run.__file__)), "--workload", wl["name"],
                   "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(trace)]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                                 check=True, timeout=900).stdout.splitlines()
            result = json.loads(out[-1])
            result["run_wall_s"] = time.perf_counter() - t0
            result["printed"] = out[:-1]
            runs[f"{wl['name']}.trace{trace}"] = result
            print(f"{wl['name']} trace={trace}: {result['run_wall_s']:.1f}s "
                  f"correct={result['correct']}", flush=True)
    tm = run.load_tailmix()
    record = {
        "label": args.label,
        "seed": args.seed,
        "run_seconds": bench["run_seconds"],
        "environment": run.environment(tm),
        "crosscheck": crosscheck(tm),
        "not_measured": {
            "infeasible_trial_share": "decided inside fit._make_objective; "
                                      "needs a counter in the program (roadmap item 5)",
            "barrier_stage_s": "stages run inside fit.fit_model; "
                               "needs a span in the program (roadmap item 5)",
        },
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
