"""The benchmark's three workloads and the checks on their outputs.

Each workload is a pool of work items built from the seed before any
timing starts. A run makes passes over the pool, at least two, until
``--seconds`` are used; the pool is sized so that one pass takes about
27% of them on a 2-CPU host. Every pass repeats the same work, so the
quality figures (log-likelihood sum, choice rate, alpha error) come from
the first pass and are deterministic for a seed, and timings are means
over the passes.

- trace: one item is the user's CLI path over a synthetic flow trace:
  ``bin`` (8 standard windows), ``fit-select`` on the directory, then
  ``classify`` on every window series.
- selection: the six ``table2-desk`` truth/size rows x R replicates;
  an item draws a sample with ``sample_mixture`` and makes one
  ``select_nested`` call.
- recovery: the ``fig2-desk`` alpha grid x R replicates; an item draws
  a sample, makes one ``fit_model(EP)`` call and one ``hill_estimate``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs

# Fixed seed for the CLI's optimizer restarts in the trace workload: the
# program's own default, as a user who passes no --seed gets. The
# workload seed drives the generated trace only.
TRACE_CLI_SEED = 20260814
# Seconds of a pass per pool round (one replicate of every row or grid
# point) on a 2-CPU host at the first benchmarked commit.
SELECTION_ROUND_S = 2.55
RECOVERY_ROUND_S = 0.8
PASS_SHARE = 0.27

LOGLIK_RTOL = 1e-9
NESTED_ATOL = 1e-6
LABEL_EXP = {"P": 0, "EP": 1, "EEP": 2}


def _rounds(seconds: float, round_s: float) -> int:
    return max(1, round(PASS_SHARE * seconds / round_s))


def percentile_tail(values):
    """Highest percentile that leaves at least 10 samples beyond it, and
    the value there. Callers pass one time per distinct call, a mean over
    the passes, so the sample count is fixed by the workload and the seed."""
    n = len(values)
    q = 100.0 * (1.0 - 10.0 / n) if n > 10 else 0.0
    return q, float(np.percentile(values, q))


class Failures:
    """Failed checks, reported to stderr and counted per work item."""

    def __init__(self):
        self.items = set()

    def add(self, item, message: str) -> None:
        if len(self.items) < 20:
            print(f"check failed: {message}", file=sys.stderr)
        self.items.add(item)


def check_model(failures, item, model_ll, spec, params, data, log_likelihood):
    """Reported log-likelihood against an independent evaluation."""
    ref = log_likelihood(data, spec, params)
    if not abs(model_ll - ref) <= LOGLIK_RTOL * abs(ref):
        failures.add(item, f"{item}: {spec.label} loglik {model_ll!r} != {ref!r}")


def check_nested(failures, item, logliks: dict):
    """P <= EP <= EEP for the models fitted on one series."""
    ladder = [logliks[k] for k in ("P", "EP", "EEP") if k in logliks]
    for small, big in zip(ladder, ladder[1:]):
        if small > big + NESTED_ATOL:
            failures.add(item, f"{item}: nested logliks out of order {ladder}")


class TraceWorkload:
    name = "trace"
    steps_per_item = 10  # bin, fit-select, classify x 8 windows

    def __init__(self, tm, seed, seconds, work_dir: Path):
        self.tm = tm
        self.work = work_dir
        self.in_dir = work_dir / "in"
        # a child process writes the inputs, so their generation does not
        # count towards this process's peak memory
        subprocess.run(
            [sys.executable, str(Path(inputs.__file__)), "--seed", str(seed),
             "--out-dir", str(self.in_dir)],
            check=True, timeout=300,
        )
        self.props = json.loads((self.in_dir / "props.json").read_text())
        self.pool = [0]
        self._passes = 0

    def run_item(self, _index):
        out = self.work / f"pass{self._passes}"
        self._passes += 1
        cli = self.tm.cli
        seed = str(TRACE_CLI_SEED)
        binned, fits, cls = out / "binned", out / "fits", out / "cls"
        rec = {"dir": out, "rc": {}}
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rec["rc"]["bin"] = cli.main([
                "bin", "--input", str(self.in_dir / "flows.csv"),
                "--uptime", str(self.in_dir / "uptime.csv"),
                "--out-dir", str(binned)])
            t1 = time.perf_counter()
            rec["rc"]["fit-select"] = cli.main([
                "fit-select", "--input", str(binned), "--seed", seed,
                "--out-dir", str(fits)])
            t2 = time.perf_counter()
            for series in sorted(binned.glob("*.series")):
                rec["rc"]["classify " + series.stem] = cli.main([
                    "classify", "--input", str(series), "--seed", seed,
                    "--out-dir", str(cls)])
            t3 = time.perf_counter()
        rec.update(bin_s=t1 - t0, fit_select_s=t2 - t1, classify_s=t3 - t2)
        return rec

    def check(self, records, failures: Failures):
        tm = self.tm
        import jsonschema

        schema_path = Path(tm.root) / "docs" / "report-schema.json"
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        first = records[0]["dir"]
        first_files = _output_files(first)
        for k, rec in enumerate(records):
            out = rec["dir"]
            for step, rc in rec["rc"].items():
                if rc != 0:
                    failures.add((k, step), f"pass {k}: {step} returned {rc}")
            if len(rec["rc"]) != self.steps_per_item:
                failures.add((k, "classify"), f"pass {k}: {len(rec['rc'])} steps")
            files = _output_files(out)
            if set(files) != set(first_files):
                failures.add((k, "outputs"), f"pass {k}: output file sets differ")
            for rel in files:
                step = _step_of(rel)
                if rel.endswith(".json"):
                    report = json.loads((out / rel).read_text(encoding="utf-8"))
                    try:
                        jsonschema.validate(report, schema)
                    except jsonschema.ValidationError as exc:
                        failures.add((k, step), f"pass {k}: {rel}: {exc.message}")
                    if k == 0 and report["kind"] in ("fit-select", "classify"):
                        self._check_selection(report, out, failures, (k, step))
                if k > 0 and rel in first_files and \
                        (out / rel).read_bytes() != (first / rel).read_bytes():
                    failures.add((k, step), f"pass {k}: {rel} differs from pass 0")

    def _check_selection(self, report, out, failures, item):
        tm = self.tm
        series = tm.ingest.read_series_file(
            out / "binned" / report["manifest"]["inputs"][0]["path"])
        models = report["results"]["selection"]["models"]
        lls = {}
        for label, m in models.items():
            spec = tm.mixture.ModelSpec(LABEL_EXP[label], x_min=m["x_min"],
                                        exp_mode=m["exp_mode"])
            p = m["params"]
            params = tm.mixture.MixtureParams(p["weights"], p["lambdas"], p["alpha"])
            check_model(failures, item, m["loglik"], spec, params, series,
                        tm.mixture.log_likelihood)
            lls[label] = m["loglik"]
        check_nested(failures, item, lls)

    def logliks(self, records):
        """Log-likelihood of every model fitted in the first pass."""
        out = []
        first = records[0]["dir"]
        for sub in ("fits", "cls"):
            for path in sorted((first / sub).glob("*-report.json")):
                report = json.loads(path.read_text(encoding="utf-8"))
                out += [m["loglik"] for m in
                        report["results"]["selection"]["models"].values()]
        return out

    def summary(self, records, wall, slowdown):
        bins = {}
        first = records[0]["dir"]
        for path in sorted((first / "fits").glob("*.fit-report.json")):
            res = json.loads(path.read_text(encoding="utf-8"))["results"]
            sel = res["selection"]
            bins[f"{res['bin_seconds']:g}"] = {
                "bins": res["n"],
                "n_unique": sel["models"]["P"]["diagnostics"]["n_unique_values"],
                "chosen": sel["chosen"],
                "alpha": sel["models"][sel["chosen"]]["params"]["alpha"],
            }
        props = dict(self.props, windows=bins)
        extra = {k: (float(np.mean([r[k] for r in records])) / slowdown, "s")
                 for k in ("bin_s", "fit_select_s", "classify_s")}
        return props, extra


def _output_files(out: Path) -> list:
    """Relative paths of the canonical outputs of one pass (no sidecars)."""
    return sorted(
        str(p.relative_to(out)) for p in out.rglob("*")
        if p.is_file() and not p.name.endswith(".runtime.json")
    )


def _step_of(rel: str) -> str:
    if rel.startswith("binned"):
        return "bin"
    if rel.startswith("fits"):
        return "fit-select"
    return "classify " + Path(rel).name.split(".classify-report")[0]


class _ReplicateWorkload:
    """Code shared by the selection and recovery replicate pools."""

    steps_per_item = 1

    def __init__(self, tm, seed):
        self.tm = tm
        self.seed = seed
        self._first = {}  # pool index -> canonical bytes of its first result

    def config(self, item):
        return self.tm.fit.FitConfig(
            restarts=self.plan.restarts,
            seed=self.tm.seeding.child_seed(self.seed, item.cell, item.rep, 1),
        )

    def check(self, records, failures: Failures):
        for k, rec in enumerate(records):
            blob = self.canonical(rec)
            if rec["index"] in self._first:
                if blob != self._first[rec["index"]]:
                    failures.add(k, f"item {rec['index']}: result bytes differ "
                                    "on a repeat of the same seed")
            else:
                self._first[rec["index"]] = blob
            if "sample" in rec:
                self.check_record(rec, failures, k)

    def repeat_first(self):
        """Run item 0 once more, untimed, for the byte-identity check."""
        rec = self.run_item(0)
        rec.pop("sample", None)
        return rec


class SelectionWorkload(_ReplicateWorkload):
    name = "selection"

    def __init__(self, tm, seed, seconds, work_dir=None):
        super().__init__(tm, seed)
        self.plan = tm.experiments.PRESETS["table2-desk"]
        self.reps = _rounds(seconds, SELECTION_ROUND_S)
        self.pool = inputs.selection_pool(seed, len(self.plan.rows), self.reps)
        self.configs = [self.config(item) for item in self.pool]
        self.specs = [tm.mixture.ModelSpec(LABEL_EXP[row.truth_label])
                      for row in self.plan.rows]

    def run_item(self, index):
        tm, item = self.tm, self.pool[index]
        row = self.plan.rows[item.cell]
        rng = np.random.default_rng(item.data)
        sample = tm.mixture.sample_mixture(self.specs[item.cell], row.truth_params,
                                           row.n_samples, rng)
        t0 = time.perf_counter()
        sel = tm.select.select_nested(sample, self.configs[index],
                                      x_min=self.plan.x_min,
                                      threshold=self.plan.threshold)
        return {"index": index, "select_s": time.perf_counter() - t0,
                "sel": sel, "sample": sample}

    def canonical(self, rec) -> str:
        rep = self.tm.reporting
        return rep.canonical_json(rep.serialize_selection(rec["sel"]))

    def check_record(self, rec, failures, k):
        lls = {}
        for label, model in rec["sel"].models.items():
            check_model(failures, k, model.loglik, model.spec, model.params,
                        rec["sample"], self.tm.mixture.log_likelihood)
            lls[label] = model.loglik
        check_nested(failures, k, lls)

    def logliks(self, records):
        return [m.loglik for rec in first_pass(records)
                for m in rec["sel"].models.values()]

    def summary(self, records, wall, slowdown):
        first = first_pass(records)
        hits = sum(rec["sel"].chosen == self.plan.rows[self.pool[rec["index"]].cell]
                   .expected_choice for rec in first)
        sel_s = [s / slowdown for s in mean_of(records, "select_s")]
        q, tail = percentile_tail(sel_s)
        n_unique = [rec["sel"].models["P"].diagnostics["n_unique_values"]
                    for rec in first]
        props = {
            "rows": [r.row_id for r in self.plan.rows],
            "replicates_per_row": self.reps,
            "n_unique": _spread(n_unique),
            "selections": len(records),
        }
        extra = {
            "selections_per_s": (len(records) * slowdown / wall, "1/s"),
            "select_p50_s": (float(np.median(sel_s)), "s"),
            "select_tail_s": (tail, f"s@p{q:.1f}/n={len(sel_s)}"),
            "choice_rate": (hits / len(first), "fraction"),
        }
        return props, extra


class RecoveryWorkload(_ReplicateWorkload):
    name = "recovery"

    def __init__(self, tm, seed, seconds, work_dir=None):
        super().__init__(tm, seed)
        self.plan = tm.experiments.PRESETS["fig2-desk"]
        self.reps = _rounds(seconds, RECOVERY_ROUND_S)
        self.pool = inputs.recovery_pool(seed, len(self.plan.alphas), self.reps,
                                         self.plan.lambda_range)
        self.configs = [self.config(item) for item in self.pool]
        self.spec = tm.mixture.ModelSpec(1, x_min=self.plan.x_min)
        w = self.plan.mix_weight
        self.truths = [
            tm.mixture.MixtureParams((w, 1.0 - w), (item.lam,),
                                     self.plan.alphas[item.cell])
            for item in self.pool
        ]

    def run_item(self, index):
        tm, item = self.tm, self.pool[index]
        rng = np.random.default_rng(item.data)
        sample = tm.mixture.sample_mixture(self.spec, self.truths[index],
                                           self.plan.n_samples, rng)
        model = tm.fit.fit_model(sample, self.spec, self.configs[index])
        hill = tm.experiments.hill_estimate(sample, self.plan.tail_fraction)
        return {"index": index, "model": model, "hill": hill, "sample": sample}

    def canonical(self, rec) -> str:
        rep = self.tm.reporting
        return rep.canonical_json({"fit": rep.serialize_fitted(rec["model"]),
                                   "hill": rec["hill"]})

    def check_record(self, rec, failures, k):
        m = rec["model"]
        check_model(failures, k, m.loglik, m.spec, m.params, rec["sample"],
                    self.tm.mixture.log_likelihood)
        if not math.isfinite(rec["hill"]):
            failures.add(k, f"item {rec['index']}: Hill estimate {rec['hill']}")

    def logliks(self, records):
        return [rec["model"].loglik for rec in first_pass(records)]

    def summary(self, records, wall, slowdown):
        first = first_pass(records)
        alphas = self.plan.alphas
        err = [abs(rec["model"].params.alpha - alphas[self.pool[rec["index"]].cell])
               / alphas[self.pool[rec["index"]].cell] for rec in first]
        n_unique = {}
        for rec in first:
            a = alphas[self.pool[rec["index"]].cell]
            n_unique.setdefault(f"{a:g}", []).append(
                rec["model"].diagnostics["n_unique_values"])
        props = {
            "alphas": list(alphas),
            "n_samples": self.plan.n_samples,
            "replicates_per_point": self.reps,
            "n_unique": {a: _spread(v) for a, v in n_unique.items()},
            "fits": len(records),
        }
        extra = {
            "fits_per_s": (len(records) * slowdown / wall, "1/s"),
            "alpha_rel_err_p50": (float(np.median(err)), "fraction"),
        }
        return props, extra


def first_pass(records) -> list:
    """The first record of every pool item."""
    first = {}
    for rec in records:
        first.setdefault(rec["index"], rec)
    return list(first.values())


def mean_of(records, key) -> list:
    """Per pool item, the mean of ``key`` over the passes."""
    values = {}
    for rec in records:
        values.setdefault(rec["index"], []).append(rec[key])
    return [float(np.mean(v)) for v in values.values()]


def _spread(values) -> dict:
    return {"min": int(min(values)), "median": float(np.median(values)),
            "max": int(max(values))}


WORKLOADS = {
    "trace": TraceWorkload,
    "selection": SelectionWorkload,
    "recovery": RecoveryWorkload,
}
