"""Command-line pipeline: outputs, determinism, schema conformance."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from tailmix import __version__
from tailmix.cli import main
from tailmix.errors import FitError
from tailmix.experiments import PRESETS, RecoveryPlan
from tailmix.ingest import read_series_file, write_series_file
from tailmix.mixture import BinnedSeries
from tailmix.seeding import DEFAULT_SEED

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text())


def check_report(path):
    report = json.loads(Path(path).read_text())
    jsonschema.validate(report, SCHEMA)
    return report


@pytest.fixture()
def flow_file(tmp_path):
    rng = np.random.default_rng(77)
    times = np.sort(rng.uniform(0, 4000, size=1500))
    path = tmp_path / "trace.csv"
    lines = ["flow_id,start_time,bytes"]
    lines += [f"f{i},{t:.3f},{100 + i}" for i, t in enumerate(times)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_version_runs_with_empty_stderr():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "tailmix.cli", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.strip() == f"tailmix {__version__}"


class TestBinCommand:
    def test_bin_writes_series_and_report(self, flow_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["bin", "--input", str(flow_file), "--windows", "8,32",
                   "--out-dir", str(out)])
        assert rc == 0
        report = check_report(out / "trace.bin-report.json")
        assert report["kind"] == "bin"
        assert len(report["results"]) == 2
        s8 = read_series_file(out / "trace.w8.series")
        assert s8.bin_seconds == 8.0
        assert s8.counts.sum() == 1500

    def test_bin_with_uptime(self, flow_file, tmp_path):
        up = tmp_path / "up.csv"
        up.write_text("begin,end\n0,2000\n")
        out = tmp_path / "out"
        rc = main(["bin", "--input", str(flow_file), "--uptime", str(up),
                   "--windows", "8", "--out-dir", str(out)])
        assert rc == 0
        report = check_report(out / "trace.bin-report.json")
        assert report["results"][0]["meta"]["n_bins_dropped_uptime"] > 0
        assert len(report["manifest"]["inputs"]) == 2

    def test_bin_report_ignores_seed_env_variable(self, flow_file, tmp_path,
                                                  monkeypatch):
        plain, seeded = tmp_path / "plain", tmp_path / "seeded"
        monkeypatch.delenv("TAILMIX_SEED", raising=False)
        assert main(["bin", "--input", str(flow_file), "--windows", "8",
                     "--out-dir", str(plain)]) == 0
        monkeypatch.setenv("TAILMIX_SEED", "99")
        assert main(["bin", "--input", str(flow_file), "--windows", "8",
                     "--out-dir", str(seeded)]) == 0
        name = "trace.bin-report.json"
        assert (seeded / name).read_bytes() == (plain / name).read_bytes()
        assert check_report(plain / name)["manifest"]["seed"] == DEFAULT_SEED

    def test_bin_missing_input_fails(self, tmp_path, capsys):
        rc = main(["bin", "--input", str(tmp_path / "nope.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


@pytest.fixture()
def series_file(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--model", "EP", "--weights", "0.5,0.5",
               "--lambdas", "0.2", "--alpha", "1.6", "--n", "1500",
               "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    return out / "sim-ep-n1500.series"


class TestSimulateCommand:
    def test_outputs_and_determinism(self, tmp_path):
        args = ["simulate", "--model", "EEP", "--weights", "0.3,0.4,0.3",
                "--lambdas", "1.5,0.15", "--alpha", "1.6", "--n", "500",
                "--seed", "8"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        name = "sim-eep-n500.series"
        assert (a / name).read_bytes() == (b / name).read_bytes()
        report = check_report(a / "sim-eep-n500.sim-report.json")
        assert report["manifest"]["seed"] == 8
        assert report["results"]["output"]["sha256"]

    def test_weights_required_for_exponential_models(self, capsys):
        rc = main(["simulate", "--model", "EP", "--alpha", "1.6", "--n", "10"])
        assert rc == 1
        assert "weights" in capsys.readouterr().err

    def test_negative_seed_flag_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main(["simulate", "--model", "P", "--alpha", "1.6", "--n", "100",
                   "--seed", "-1", "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_negative_size_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main(["simulate", "--model", "P", "--alpha", "1.6", "--n", "-5",
                   "--seed", "1", "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: sample size must be non-negative, got -5\n"
        assert not out.exists()

    def test_pure_tail_needs_no_weights(self, tmp_path):
        rc = main(["simulate", "--model", "P", "--alpha", "2.0", "--n", "100",
                   "--seed", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        s = read_series_file(tmp_path / "sim-p-n100.series")
        assert s.n == 100


class TestFitSelectCommand:
    def test_single_file(self, series_file, tmp_path):
        out = tmp_path / "fit"
        rc = main(["fit-select", "--input", str(series_file), "--restarts", "6",
                   "--seed", "5", "--out-dir", str(out)])
        assert rc == 0
        report = check_report(out / "sim-ep-n1500.fit-report.json")
        sel = report["results"]["selection"]
        assert sel["chosen"] == "EP"
        assert sel["log_bf_ep_p"] > 10
        assert sel["strengths"]["EP_vs_P"]["log10"]["label"] == "decisive"
        assert report["manifest"]["config"]["restarts"] == 6

    def test_reports_byte_identical_across_runs(self, series_file, tmp_path):
        args = ["fit-select", "--input", str(series_file), "--restarts", "5",
                "--seed", "5"]
        a, b = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        name = "sim-ep-n1500.fit-report.json"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_directory_mode_writes_summary_csv(self, series_file, tmp_path):
        out = tmp_path / "fits"
        rc = main(["fit-select", "--input", str(series_file.parent),
                   "--restarts", "4", "--seed", "5", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header plus one series
        assert lines[0].startswith("file,source_id,bin_seconds,n,chosen")
        assert lines[0].endswith(",error")
        assert ",EP," in lines[1]
        assert lines[1].endswith(",")  # no error

    def test_directory_mode_isolates_failing_series(self, series_file, tmp_path,
                                                    capsys):
        write_series_file(series_file.parent / "flat.series",
                          BinnedSeries(np.full(50, 4), bin_seconds=8.0))
        out = tmp_path / "fits"
        rc = main(["fit-select", "--input", str(series_file.parent),
                   "--restarts", "4", "--seed", "5", "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: flat.series:")
        assert "at least 2 distinct counts" in err
        with (out / "summary.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["file"] for r in rows] == ["flat.series", "sim-ep-n1500.series"]
        assert "at least 2 distinct counts" in rows[0]["error"]
        assert rows[0]["chosen"] == rows[0]["n"] == ""
        assert rows[1]["error"] == ""
        assert rows[1]["chosen"] == "EP"
        assert not (out / "flat.fit-report.json").exists()
        # the good series gets the report it gets when fitted alone
        alone = tmp_path / "alone"
        assert main(["fit-select", "--input", str(series_file), "--restarts", "4",
                     "--seed", "5", "--out-dir", str(alone)]) == 0
        name = "sim-ep-n1500.fit-report.json"
        assert (out / name).read_bytes() == (alone / name).read_bytes()

    def test_directory_mode_equals_per_file_runs(self, series_file, tmp_path,
                                                 capsys):
        # the series of a directory are fitted together; every output
        # must be what each file gets on its own
        d = series_file.parent
        assert main(["simulate", "--model", "P", "--alpha", "1.8", "--n", "800",
                     "--seed", "4", "--out-dir", str(d)]) == 0
        write_series_file(d / "flat.series",
                          BinnedSeries(np.full(50, 4), bin_seconds=8.0))
        (d / "broken.series").write_text("1\n2\n", encoding="utf-8")
        flags = ["--restarts", "4", "--seed", "5"]
        out = tmp_path / "fits"
        capsys.readouterr()
        assert main(["fit-select", "--input", str(d), *flags,
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: broken.series: {d / 'broken.series'}: missing JSON header line\n"
            "error: flat.series: need at least 2 distinct counts >= x_min=1 to "
            "fit P, got 1\n"
        )
        with (out / "summary.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["file"] for r in rows] == [
            "broken.series", "flat.series", "sim-ep-n1500.series", "sim-p-n800.series"
        ]
        reports = sorted(p.name for p in out.glob("*.fit-report.json"))
        assert reports == ["sim-ep-n1500.fit-report.json", "sim-p-n800.fit-report.json"]
        for row in rows:
            name = row["file"]
            alone = tmp_path / "alone" / name
            alone.mkdir(parents=True)
            (alone / name).write_bytes((d / name).read_bytes())
            rc = main(["fit-select", "--input", str(alone), *flags,
                       "--out-dir", str(alone / "out")])
            assert rc == (1 if row["error"] else 0)
            with (alone / "out" / "summary.csv").open(newline="") as fh:
                (alone_row,) = csv.DictReader(fh)
            if row["error"]:
                # the message names the file's path, which differs here
                assert alone_row["error"].replace(str(alone), str(d)) == row["error"]
                continue
            assert alone_row == row
            report = name.replace(".series", ".fit-report.json")
            assert main(["fit-select", "--input", str(d / name), *flags,
                         "--out-dir", str(alone / "single")]) == 0
            assert (out / report).read_bytes() == (alone / "out" / report).read_bytes()
            assert (out / report).read_bytes() == (alone / "single" / report).read_bytes()

    def test_directory_mode_keeps_an_eep_failure_on_its_series(
            self, series_file, tmp_path, monkeypatch):
        from tailmix import select as select_module

        d = series_file.parent
        assert main(["simulate", "--model", "EP", "--weights", "0.5,0.5",
                     "--lambdas", "0.3", "--alpha", "1.7", "--n", "1500",
                     "--seed", "8", "--out", "second.series",
                     "--out-dir", str(d)]) == 0
        real = select_module.fit_models

        def eep_fails_on_first(series_list, spec, configs):
            out = real(series_list, spec, configs)
            if spec.n_exp == 2:
                out[0] = FitError("synthetic failure")
            return out

        monkeypatch.setattr(select_module, "fit_models", eep_fails_on_first)
        out = tmp_path / "fits"
        assert main(["fit-select", "--input", str(d), "--restarts", "4",
                     "--seed", "5", "--out-dir", str(out)]) == 0
        first = check_report(out / "second.fit-report.json")["results"]["selection"]
        other = check_report(out / "sim-ep-n1500.fit-report.json")["results"]["selection"]
        assert first["eep_failure"] == "synthetic failure"
        assert "EEP" not in first["models"] and first["chosen"] == "EP"
        assert other["eep_failure"] is None and "EEP" in other["models"]

    def test_empty_directory_fails(self, tmp_path, capsys):
        rc = main(["fit-select", "--input", str(tmp_path)])
        assert rc == 1
        assert "no .series" in capsys.readouterr().err

    def test_zero_restarts_fail_before_any_output(self, series_file, tmp_path, capsys):
        out = tmp_path / "fit"
        rc = main(["fit-select", "--input", str(series_file), "--restarts", "0",
                   "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: restarts must be a positive integer, got 0\n"
        assert not out.exists()

    def test_negative_seed_fails_once_before_any_output(self, series_file, tmp_path,
                                                        capsys):
        write_series_file(series_file.parent / "second.series",
                          BinnedSeries(np.arange(1, 60), bin_seconds=8.0))
        out = tmp_path / "fits"
        rc = main(["fit-select", "--input", str(series_file.parent),
                   "--seed", "-1", "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not (out / "summary.csv").exists()

    def test_one_value_series_fails(self, tmp_path, capsys):
        path = tmp_path / "flat.series"
        write_series_file(path, BinnedSeries(np.full(50, 4), bin_seconds=8.0))
        rc = main(["fit-select", "--input", str(path), "--restarts", "2",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "at least 2 distinct counts" in err

    def test_seed_env_variable_used(self, series_file, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        monkeypatch.setenv("TAILMIX_SEED", "99")
        assert main(["fit-select", "--input", str(series_file),
                     "--restarts", "4", "--out-dir", str(out1)]) == 0
        report = check_report(out1 / "sim-ep-n1500.fit-report.json")
        assert report["manifest"]["seed"] == 99
        monkeypatch.setenv("TAILMIX_SEED", "not-a-number")
        rc = main(["fit-select", "--input", str(series_file),
                   "--restarts", "4", "--out-dir", str(out2)])
        assert rc == 1

    def test_runtime_sidecar_not_in_report(self, series_file, tmp_path):
        out = tmp_path / "fit"
        main(["fit-select", "--input", str(series_file), "--restarts", "4",
              "--seed", "5", "--out-dir", str(out)])
        sidecar = out / "sim-ep-n1500.fit-report.json.runtime.json"
        assert sidecar.exists()
        assert "wall_seconds" in json.loads(sidecar.read_text())
        report = json.loads((out / "sim-ep-n1500.fit-report.json").read_text())
        assert "wall_seconds" not in json.dumps(report)


class TestClassifyCommand:
    def test_classify_report(self, series_file, tmp_path):
        out = tmp_path / "cls"
        rc = main(["classify", "--input", str(series_file), "--restarts", "5",
                   "--seed", "5", "--out-dir", str(out)])
        assert rc == 0
        report = check_report(out / "sim-ep-n1500.classify-report.json")
        res = report["results"]
        assert res["tail_threshold"] >= 1
        assert res["n_tail_bins"] + res["n_body_bins"] == res["n"]
        assert 0.0 <= res["tail_bin_fraction"] <= 1.0
        values = [pv["value"] for pv in res["per_value"]]
        assert values == sorted(values)
        for pv in res["per_value"]:
            assert 0.0 <= pv["tail_responsibility"] <= 1.0


    def test_shares_selection_and_manifest_with_fit_select(self, series_file,
                                                           tmp_path):
        args = ["--input", str(series_file), "--restarts", "5", "--seed", "5"]
        fit_out, cls_out = tmp_path / "fit", tmp_path / "cls"
        assert main(["fit-select", *args, "--out-dir", str(fit_out)]) == 0
        assert main(["classify", *args, "--out-dir", str(cls_out)]) == 0
        fit = check_report(fit_out / "sim-ep-n1500.fit-report.json")
        cls = check_report(cls_out / "sim-ep-n1500.classify-report.json")
        assert cls["manifest"].pop("subcommand") == "classify"
        assert fit["manifest"].pop("subcommand") == "fit-select"
        assert cls["manifest"] == fit["manifest"]
        for key in ("source_id", "bin_seconds", "n", "selection"):
            assert cls["results"][key] == fit["results"][key], key


class TestValidateCommand:
    def test_negative_seed_env_variable_fails_cleanly(self, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.setenv("TAILMIX_SEED", "-3")
        out = tmp_path / "val"
        rc = main(["validate", "--preset", "fig2-desk", "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer, got -3\n"
        assert not out.exists()

    def test_mini_preset_end_to_end(self, tmp_path, monkeypatch, capsys):
        mini = RecoveryPlan("mini-check", alphas=(1.6,), n_samples=1200,
                            n_replicates=2, restarts=4)
        monkeypatch.setitem(PRESETS, "mini-check", mini)
        out = tmp_path / "val"
        rc = main(["validate", "--preset", "mini-check", "--seed", "2",
                   "--out-dir", str(out)])
        assert rc == 0
        report = check_report(out / "mini-check-report.json")
        assert report["results"]["study"] == "alpha-recovery"
        csv_text = (out / "mini-check-records.csv").read_text()
        assert csv_text.splitlines()[0] == "alpha,replicate,estimator,estimate"
        assert len(csv_text.strip().splitlines()) == 5
        assert "mini-check:" in capsys.readouterr().out
