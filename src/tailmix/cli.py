"""Command-line interface.

Subcommands: bin (flow file to count series), fit-select (nested model
fit and selection), classify (regime split of a fitted series), simulate
(draw synthetic series), validate (run a named experiment preset).
Every JSON report embeds a run manifest and is written in canonical
form, so identical runs produce identical bytes; wall-clock timings go
to a .runtime.json sidecar instead.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, TailmixError
from .experiments import PRESETS, run_preset
from .fit import DEFAULT_RESTARTS, FitConfig
from .ingest import (
    STANDARD_WINDOWS,
    bin_at_windows,
    check_windows,
    read_flow_file,
    read_series_file,
    read_uptime_file,
    write_series_file,
)
from .mixture import (
    LABELS,
    BinnedSeries,
    MixtureParams,
    ModelSpec,
    responsibilities,
    sample_mixture,
    tail_threshold,
)
from .reporting import (
    RunManifest,
    build_report,
    describe_input,
    serialize_selection,
    write_report,
)
from .seeding import DEFAULT_SEED
from .select import DEFAULT_THRESHOLD, select_many, select_nested

def _parse_numbers(text):
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise DataError(f"expected comma-separated numbers, got {text!r}") from None


def _output(args, name) -> Path:
    """The path of output file name in --out-dir. Every write goes
    through here, so --out-dir is made at a command's first write and a
    command that fails before it writes leaves nothing behind."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _write_with_runtime(args, name, manifest, results):
    """Write the report of manifest's subcommand to name, and beside it
    a .runtime.json sidecar with the wall time since the run started."""
    path = _output(args, name)
    write_report(path, build_report(manifest, results))
    Path(str(path) + ".runtime.json").write_text(
        f'{{"wall_seconds":{time.time() - args.started:.6f}}}\n', encoding="utf-8"
    )


def _fit_config(args):
    return FitConfig(restarts=args.restarts, seed=args.seed)


def _cmd_bin(args):
    windows = _parse_numbers(args.windows) if args.windows else STANDARD_WINDOWS
    check_windows(windows)
    flow_path = Path(args.input)
    times = read_flow_file(flow_path)
    uptime = read_uptime_file(args.uptime) if args.uptime else None
    series_map = bin_at_windows(
        times, windows, uptime=uptime, drop_zeros=args.drop_zeros,
        source_id=flow_path.stem,
    )
    results = []
    for w, series in series_map.items():
        name = f"{flow_path.stem}.w{w:g}.series"
        write_series_file(_output(args, name), series)
        results.append({"window_seconds": w, "file": name, "n": series.n,
                        "meta": series.meta})
    inputs = [describe_input(flow_path)]
    if args.uptime:
        inputs.append(describe_input(args.uptime))
    manifest = RunManifest(
        subcommand="bin",
        seed=DEFAULT_SEED,  # binning draws no random numbers
        config={"windows": list(windows), "drop_zeros": args.drop_zeros},
        inputs=tuple(inputs),
    )
    _write_with_runtime(args, f"{flow_path.stem}.bin-report.json", manifest, results)
    print(f"binned {times.size} flows at {len(windows)} window sizes "
          f"-> {Path(args.out_dir)}")
    return 0


def _walk_args(args) -> dict:
    return {"x_min": args.x_min, "threshold": args.threshold}


def _selection_report(path, series, sel, args, config):
    """Start the report of one selection: (manifest, results), where
    results holds the fields that fit-select and classify reports
    share."""
    manifest = RunManifest(
        subcommand=args.subcommand, seed=config.seed,
        config={
            "restarts": config.restarts,
            "threshold": args.threshold,
            "exp_mode": "discrete",
            "x_min": args.x_min,
        },
        inputs=(describe_input(path),),
    )
    results = {
        "source_id": series.source_id,
        "bin_seconds": series.bin_seconds,
        "n": series.n,
        "selection": serialize_selection(sel),
    }
    return manifest, results


SUMMARY_FIELDS = (
    "file", "source_id", "bin_seconds", "n", "chosen", "alpha", "weights",
    "lambdas", "loglik", "bic", "log_bf_ep_p", "log_bf_eep_ep", "error",
)


def _cmd_fit_select(args):
    in_path = Path(args.input)
    config = _fit_config(args)
    directory = in_path.is_dir()
    # a file is a directory of one, without the summary
    files = sorted(in_path.glob("*.series")) if directory else [in_path]
    if not files:
        raise DataError(f"{in_path}: no .series files")
    loaded = []
    for path in files:
        try:
            loaded.append(read_series_file(path))
        except (TailmixError, OSError) as exc:
            # an entry that cannot be opened costs only its own row
            loaded.append(exc)
    read = [i for i, s in enumerate(loaded) if isinstance(s, BinnedSeries)]
    # every series walks the ladder together, rung by rung
    sels = dict(zip(read, select_many(
        [loaded[i] for i in read], [config] * len(read), **_walk_args(args)
    )))
    rows = []
    n_failed = 0
    for i, path in enumerate(files):
        # a file that could not be read has its error for a selection
        series, sel = loaded[i], sels.get(i, loaded[i])
        if isinstance(sel, Exception):
            # one bad series must not cost the others
            n_failed += 1
            print(f"error: {path.name}: {sel}", file=sys.stderr)
            rows.append({"file": path.name, "error": str(sel)})
            continue
        manifest, results = _selection_report(path, series, sel, args, config)
        # the series are fitted together, so a report's sidecar holds the
        # wall time from the start of the run to its write
        _write_with_runtime(args, f"{path.stem}.fit-report.json", manifest, results)
        chosen = sel.chosen_model
        rows.append({
            "file": path.name,
            "source_id": series.source_id,
            "bin_seconds": series.bin_seconds,
            "n": series.n,
            "chosen": sel.chosen,
            "alpha": chosen.params.alpha,
            "weights": ";".join(repr(w) for w in chosen.params.weights),
            "lambdas": ";".join(repr(v) for v in chosen.params.lambdas),
            "loglik": chosen.loglik,
            "bic": chosen.bic,
            "log_bf_ep_p": sel.log_bf_ep_p,
            "log_bf_eep_ep": "" if sel.log_bf_eep_ep is None else sel.log_bf_eep_ep,
        })
        print(f"{path.name}: chose {sel.chosen} "
              f"(ln BF EP,P = {sel.log_bf_ep_p:.2f})")
    if directory:
        csv_path = _output(args, "summary.csv")
        with csv_path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS, restval="")
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {csv_path} ({len(rows)} series, {n_failed} failed)")
    print(f"done in {time.time() - args.started:.1f}s")
    return 1 if n_failed else 0


def _cmd_classify(args):
    in_path = Path(args.input)
    config = _fit_config(args)
    series = read_series_file(in_path)
    sel = select_nested(series, config, **_walk_args(args))
    manifest, results = _selection_report(in_path, series, sel, args, config)
    chosen = sel.chosen_model
    x_star = tail_threshold(chosen.spec, chosen.params)
    values, counts = np.unique(series.counts, return_counts=True)
    resp = responsibilities(values.astype(np.float64), chosen.spec, chosen.params)
    r_tail = resp[:, -1]
    n_tail = int(counts[values >= x_star].sum())
    per_value = [
        {"value": int(v), "bins": int(c), "tail_responsibility": float(r)}
        for v, c, r in zip(values, counts, r_tail)
    ]
    results.update(
        tail_threshold=x_star,
        n_tail_bins=n_tail,
        n_body_bins=series.n - n_tail,
        tail_bin_fraction=n_tail / series.n,
        per_value=per_value,
    )
    _write_with_runtime(args, f"{in_path.stem}.classify-report.json",
                        manifest, results)
    print(f"{in_path.name}: model {sel.chosen}, tail regime starts at "
          f"count {x_star} ({n_tail}/{series.n} bins)")
    return 0


def _cmd_simulate(args):
    name = args.out or f"sim-{args.model.lower()}-n{args.n}.series"
    if Path(name).name != name or name == "..":
        raise DataError(f"--out must be a file name without a directory, got {name!r}")
    n_exp = LABELS.index(args.model)
    weights = _parse_numbers(args.weights) if args.weights else None
    lambdas = _parse_numbers(args.lambdas) if args.lambdas else ()
    if weights is None:
        if n_exp:
            raise DataError(f"--weights is required for model {args.model}")
        weights = (1.0,)
    params = MixtureParams(weights=weights, lambdas=lambdas, alpha=args.alpha)
    spec = ModelSpec(n_exp, x_min=args.x_min)
    sample = sample_mixture(spec, params, args.n, args.seed)
    series = BinnedSeries(sample, bin_seconds=args.bin_seconds,
                          source_id=Path(name).stem)
    out_path = _output(args, name)
    write_series_file(out_path, series)
    manifest = RunManifest(
        subcommand="simulate", seed=args.seed,
        config={
            "model": args.model,
            "weights": list(weights),
            "lambdas": list(lambdas),
            "alpha": args.alpha,
            "n": args.n,
            "bin_seconds": args.bin_seconds,
            "x_min": args.x_min,
            "exp_mode": spec.exp_mode,
        },
    )
    results = {"file": out_path.name, "output": describe_input(out_path)}
    _write_with_runtime(args, f"{Path(name).stem}.sim-report.json",
                        manifest, results)
    print(f"wrote {out_path} (n={args.n}, model {args.model})")
    return 0


def _cmd_validate(args):
    report_body = run_preset(args.preset, args.seed)
    manifest = RunManifest(
        subcommand="validate", seed=args.seed, config={"preset": args.preset},
    )
    _write_with_runtime(args, f"{args.preset}-report.json", manifest, report_body)
    csv_path = _output(args, f"{args.preset}-records.csv")
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if report_body["study"] == "alpha-recovery":
            writer.writerow(["alpha", "replicate", "estimator", "estimate"])
            writer.writerows(report_body["records"])
            gates = report_body["gates"]
            for key in ("pass_median_rel_err", "pass_mle_iqr", "pass_hill_spread"):
                print(f"{key}: {'PASS' if gates[key] else 'FAIL'}")
        else:
            writer.writerow(["row_id", "truth", "n_samples", "metric",
                             "median_log10_bf", "choice_rate", "pass"])
            for row in report_body["rows"]:
                writer.writerow([
                    row["row_id"], row["truth_label"], row["n_samples"],
                    row["metric"], row.get("median_log10_bf", ""),
                    row["choice_rate"], row["pass"],
                ])
                state = {True: "PASS", False: "FAIL", None: "info"}[row["pass"]]
                print(f"{row['row_id']}: {state}")
    overall = report_body["gates"]["pass"]
    print(f"{args.preset}: {'PASS' if overall else 'FAIL'} "
          f"({time.time() - args.started:.1f}s)")
    return 0


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailmix",
        description="Heavy-tailed mixture modeling of binned flow counts",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    out_dir = _flag("--out-dir", default=".", help="output directory")
    seed = _flag("--seed", type=int, default=DEFAULT_SEED, help="root RNG seed")
    x_min = _flag("--x-min", type=int, default=1, help="support minimum")
    restarts = _flag("--restarts", type=int, default=DEFAULT_RESTARTS,
                     help="random optimizer restarts per model")
    threshold = _flag("--threshold", type=float, default=DEFAULT_THRESHOLD,
                      help="natural-log Bayes factor needed to grow the model")
    fit_flags = [restarts, seed, threshold, x_min, out_dir]

    p_bin = sub.add_parser("bin", parents=[out_dir],
                           help="bin a flow file into count series")
    p_bin.add_argument("--input", required=True, help="flow file (csv or tsv)")
    p_bin.add_argument("--uptime", default=None, help="measured-interval sidecar")
    p_bin.add_argument("--windows", default=None,
                       help="comma-separated window sizes in seconds "
                            f"(default {','.join(str(w) for w in STANDARD_WINDOWS)})")
    p_bin.add_argument("--drop-zeros", action=argparse.BooleanOptionalAction,
                       default=True, help="drop zero-count bins")
    p_bin.set_defaults(func=_cmd_bin)

    p_fit = sub.add_parser("fit-select", parents=fit_flags,
                           help="fit nested models and select by Bayes factor")
    p_fit.add_argument("--input", required=True,
                       help="series file or directory of .series files")
    p_fit.set_defaults(func=_cmd_fit_select)

    p_cls = sub.add_parser("classify", parents=fit_flags,
                           help="split bins into body and tail regimes")
    p_cls.add_argument("--input", required=True, help="series file")
    p_cls.set_defaults(func=_cmd_classify)

    p_sim = sub.add_parser("simulate", parents=[seed, x_min, out_dir],
                           help="draw a synthetic count series")
    p_sim.add_argument("--model", choices=LABELS, required=True)
    p_sim.add_argument("--alpha", type=float, required=True)
    p_sim.add_argument("--weights", default=None,
                       help="comma-separated mixing weights, tail last")
    p_sim.add_argument("--lambdas", default=None,
                       help="comma-separated exponential rates")
    p_sim.add_argument("--n", type=int, required=True, help="sample size")
    p_sim.add_argument("--bin-seconds", type=float, default=1.0)
    p_sim.add_argument("--out", default=None,
                       help="output series file name, without a directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_val = sub.add_parser("validate", parents=[seed, out_dir],
                           help="run a named experiment preset")
    p_val.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.started = time.time()
    try:
        return args.func(args)
    except (TailmixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
