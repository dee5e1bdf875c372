"""Command-line pipeline: outputs, determinism, schema conformance."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from tailmix import __version__, cli
from tailmix.cli import main
from tailmix.errors import FitError
from tailmix.experiments import PRESETS, RecoveryPlan, SelectionPlan, SelectionRow
from tailmix.ingest import STANDARD_WINDOWS, read_series_file, write_series_file
from tailmix.mixture import BinnedSeries, MixtureParams
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

    def test_no_drop_zeros_keeps_zero_bins(self, flow_file, tmp_path):
        out = tmp_path / "out"
        assert main(["bin", "--input", str(flow_file), "--windows", "1",
                     "--no-drop-zeros", "--out-dir", str(out)]) == 0
        series = read_series_file(out / "trace.w1.series")
        assert (series.counts == 0).any()
        assert series.counts.sum() == 1500
        report = check_report(out / "trace.bin-report.json")
        assert report["manifest"]["config"]["drop_zeros"] is False
        (result,) = report["results"]
        assert result["meta"]["n_zero_bins_dropped"] == 0
        assert result["meta"]["drop_zeros"] is False
        assert result["n"] == series.n

    def test_bin_missing_input_fails(self, tmp_path, capsys):
        rc = main(["bin", "--input", str(tmp_path / "nope.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def bin_error_before_reading(flow_file, tmp_path, capsys, monkeypatch,
                                 windows):
        """stderr of a bin run with these windows, which must exit 1
        without reading the flow file or creating the out dir."""
        def no_read(path):
            raise AssertionError("read the flow file")

        monkeypatch.setattr(cli, "read_flow_file", no_read)
        out = tmp_path / "out"
        rc = main(["bin", "--input", str(flow_file), "--windows", windows,
                   "--out-dir", str(out)])
        assert rc == 1
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("windows", ["inf", "8,inf", "0"])
    def test_bin_bad_windows_fail_before_reading(self, flow_file, tmp_path,
                                                 capsys, monkeypatch, windows):
        err = self.bin_error_before_reading(flow_file, tmp_path, capsys,
                                            monkeypatch, windows)
        assert "positive and finite" in err

    @pytest.mark.parametrize("windows, message", [
        ("8,8", "given more than once"),
        ("4,8,16,8", "given more than once"),
        (",", "no window sizes"),
    ], ids=["repeated", "repeated-in-ladder", "none"])
    def test_bin_repeated_or_no_windows_fail_before_reading(
            self, flow_file, tmp_path, capsys, monkeypatch, windows, message):
        err = self.bin_error_before_reading(flow_file, tmp_path, capsys,
                                            monkeypatch, windows)
        assert message in err

    def test_bin_window_that_is_not_a_number_fails_before_reading(
            self, flow_file, tmp_path, capsys, monkeypatch):
        err = self.bin_error_before_reading(flow_file, tmp_path, capsys,
                                            monkeypatch, "8,x")
        assert err == "error: expected comma-separated numbers, got '8,x'\n"

    def test_bin_flow_file_that_is_not_utf8_writes_nothing(self, flow_file,
                                                          tmp_path, capsys):
        with flow_file.open("ab") as fh:
            fh.write(b"f9,\xff,1\n")
        out = tmp_path / "out"
        rc = main(["bin", "--input", str(flow_file), "--windows", "8",
                   "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {flow_file}: not UTF-8 text\n"
        assert not out.exists()

    @pytest.mark.parametrize("header", [b"start_time,bytes",
                                        b'"start_time","bytes"'],
                             ids=["plain", "quoted"])
    def test_bin_byte_order_mark_writes_the_clean_series(self, flow_file,
                                                         tmp_path, header):
        rows = flow_file.read_bytes().splitlines()[1:]
        body = b"".join(row.split(b",", 1)[1] + b"\n" for row in rows)
        clean = tmp_path / "clean" / "trace.csv"
        marked = tmp_path / "marked" / "trace.csv"
        for path, text in ((clean, b"start_time,bytes\n" + body),
                           (marked, b"\xef\xbb\xbf" + header + b"\n" + body)):
            path.parent.mkdir()
            path.write_bytes(text)
            assert main(["bin", "--input", str(path), "--out-dir",
                         str(path.parent / "out")]) == 0
        names = sorted(p.name for p in (clean.parent / "out").glob("*.series"))
        assert len(names) == len(STANDARD_WINDOWS)
        for name in names:
            assert ((marked.parent / "out" / name).read_bytes()
                    == (clean.parent / "out" / name).read_bytes())

    def test_bin_span_past_the_bin_cap_writes_nothing(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text("start_time\n0\n1e13\n")
        out = tmp_path / "out"
        rc = main(["bin", "--input", str(flows), "--windows", "4",
                   "--out-dir", str(out)])
        assert rc == 1
        assert "bins of 4 s" in capsys.readouterr().err
        assert not out.exists()

    def test_bin_index_past_2_62_writes_nothing(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text("start_time\n1e300\n")
        out = tmp_path / "out"
        rc = main(["bin", "--input", str(flows), "--windows", "4",
                   "--out-dir", str(out)])
        assert rc == 1
        assert "more than 2^62 bins of 4 s" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fit-select", "--input", "x.series"],
    ["classify", "--input", "x.series"],
    ["simulate", "--model", "P", "--alpha", "2", "--n", "10"],
], ids=["fit-select", "classify", "simulate"])
def test_exp_mode_flag_is_gone(args, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*args, "--exp-mode", "discrete", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exp-mode" in capsys.readouterr().err


def test_each_subcommand_keeps_its_option_strings():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    fit = ["--input", "--out-dir", "--restarts", "--seed", "--threshold", "--x-min"]
    expected = {
        "bin": ["--drop-zeros", "--input", "--no-drop-zeros", "--out-dir",
                "--uptime", "--windows"],
        "fit-select": fit,
        "classify": fit,
        "simulate": ["--alpha", "--bin-seconds", "--lambdas", "--model", "--n",
                     "--out", "--out-dir", "--seed", "--weights", "--x-min"],
        "validate": ["--out-dir", "--preset", "--seed"],
    }
    got = {name: sorted(s for a in parser._actions for s in a.option_strings
                        if s not in ("-h", "--help"))
           for name, parser in sub.choices.items()}
    assert got == expected


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

    def test_weights_required_for_exponential_models(self, tmp_path, capsys):
        rc = main(["simulate", "--model", "EP", "--alpha", "1.6", "--n", "10"])
        assert rc == 1
        assert "weights" in capsys.readouterr().err
        # non-finite parameters are refused by name before anything is written
        out = tmp_path / "sim"
        for args, field, bound in [
            (["--model", "EP", "--weights", "nan,nan", "--lambdas", "0.2",
              "--alpha", "1.6"], "weights", "finite"),
            (["--model", "EP", "--weights", "0.5,0.5", "--lambdas", "inf",
              "--alpha", "1.6"], "rates", "finite"),
            (["--model", "P", "--alpha", "inf"], "alpha", "finite"),
            # past 2^52 the support values are not exact float64 integers
            (["--model", "P", "--alpha", "2", "--x-min", "9223372036854775803"],
             "x_min", "2^52, got 9223372036854775803"),
        ]:
            rc = main(["simulate", *args, "--n", "20", "--out-dir", str(out)])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {field} must ") and bound in err
            assert err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("name", ["sub/x.series", "../x.series", "..", "."])
    def test_out_with_a_directory_part_fails_before_writing(self, tmp_path, capsys,
                                                            name):
        out = tmp_path / "sim"
        rc = main(["simulate", "--model", "P", "--alpha", "2", "--n", "5",
                   "--out", name, "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("error: --out must be a file name without a directory, "
                       f"got {name!r}\n")
        assert not out.exists()
        assert not (tmp_path / "x.series").exists()

    def test_bin_seconds_reach_series_and_report(self, tmp_path):
        assert main(["simulate", "--model", "P", "--alpha", "2", "--n", "50",
                     "--bin-seconds", "8", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0
        assert read_series_file(tmp_path / "sim-p-n50.series").bin_seconds == 8.0
        report = check_report(tmp_path / "sim-p-n50.sim-report.json")
        assert report["manifest"]["config"]["bin_seconds"] == 8.0

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

    @pytest.mark.parametrize("value, shown", [('"abc"', "'abc'"), ("null", "None")])
    def test_directory_mode_reports_a_malformed_header_on_its_row(
            self, series_file, tmp_path, capsys, value, shown):
        bad = series_file.parent / "bad.series"
        bad.write_text(f'#{{"bin_seconds": {value}, "source_id": "x", "n": 2}}\n1\n2\n')
        out = tmp_path / "fits"
        rc = main(["fit-select", "--input", str(series_file.parent),
                   "--restarts", "4", "--seed", "5", "--out-dir", str(out)])
        assert rc == 1
        msg = f"{bad}: header bin_seconds must be a number, got {shown}"
        assert capsys.readouterr().err.startswith(f"error: bad.series: {msg}\n")
        with (out / "summary.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["file"] for r in rows] == ["bad.series", "sim-ep-n1500.series"]
        assert rows[0]["error"] == msg
        assert rows[1]["error"] == ""
        assert rows[1]["chosen"] == "EP"
        assert (out / "sim-ep-n1500.fit-report.json").exists()

    @pytest.mark.parametrize("entry", ["directory", "not-utf8"])
    def test_directory_mode_keeps_an_unreadable_entry_on_its_row(
            self, series_file, tmp_path, capsys, entry):
        odd = series_file.parent / "odd.series"
        if entry == "directory":
            odd.mkdir()
            msg = f"[Errno 21] Is a directory: '{odd}'"
        else:
            odd.write_bytes(b'#{"bin_seconds": 4, "source_id": "\xff", "n": 1}\n1\n')
            msg = f"{odd}: not UTF-8 text"
        out = tmp_path / "fits"
        rc = main(["fit-select", "--input", str(series_file.parent),
                   "--restarts", "4", "--seed", "5", "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: odd.series: {msg}\n"
        with (out / "summary.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["file"] for r in rows] == ["odd.series", "sim-ep-n1500.series"]
        assert rows[0]["error"] == msg
        assert rows[1]["error"] == "" and rows[1]["chosen"] == "EP"
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
        # a file fails as it would in a directory of one
        assert err.startswith("error: flat.series: ")
        assert "at least 2 distinct counts" in err

    def test_threshold_flag_reaches_the_walk_and_the_report(self, series_file,
                                                            tmp_path, capsys):
        flags = ["fit-select", "--input", str(series_file), "--restarts", "4",
                 "--seed", "5"]
        out = tmp_path / "fit"
        assert main([*flags, "--threshold", "1e9", "--out-dir", str(out)]) == 0
        report = check_report(out / "sim-ep-n1500.fit-report.json")
        sel = report["results"]["selection"]
        # EP wins by a decisive factor, which is still short of 1e9
        assert sel["chosen"] == "P" and sel["log_bf_ep_p"] > 10
        assert report["manifest"]["config"]["threshold"] == sel["threshold"] == 1e9
        capsys.readouterr()
        # inf would pick P whatever the evidence
        for given, shown in (("0", "0.0"), ("inf", "inf")):
            bad = tmp_path / f"bad-{given}"
            assert main([*flags, "--threshold", given, "--out-dir", str(bad)]) == 1
            assert capsys.readouterr().err == (
                f"error: threshold must be positive and finite, got {shown}\n"
            )
            assert not bad.exists()

    def test_runtime_sidecar_not_in_report(self, series_file, tmp_path):
        out = tmp_path / "fit"
        main(["fit-select", "--input", str(series_file), "--restarts", "4",
              "--seed", "5", "--out-dir", str(out)])
        sidecar = out / "sim-ep-n1500.fit-report.json.runtime.json"
        assert sidecar.exists()
        assert "wall_seconds" in json.loads(sidecar.read_text())
        report = json.loads((out / "sim-ep-n1500.fit-report.json").read_text())
        assert "wall_seconds" not in json.dumps(report)


@pytest.mark.parametrize("command", ["fit-select", "classify"])
@pytest.mark.parametrize("flat", [False, True], ids=["missing", "one-value"])
def test_fit_commands_fail_before_any_output(command, flat, tmp_path, capsys):
    path = tmp_path / "flat.series"
    if flat:
        write_series_file(path, BinnedSeries(np.full(50, 4), bin_seconds=8.0))
    out = tmp_path / "out"
    rc = main([command, "--input", str(path), "--restarts", "2",
               "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_x_min_flag_reaches_every_report(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "EP", "--weights", "0.5,0.5",
                 "--lambdas", "0.2", "--alpha", "1.6", "--n", "1500",
                 "--x-min", "3", "--seed", "3", "--out-dir", str(sim)]) == 0
    series = sim / "sim-ep-n1500.series"
    assert read_series_file(series).counts.min() >= 3
    reports = [check_report(sim / "sim-ep-n1500.sim-report.json")]
    flags = ["--input", str(series), "--x-min", "3", "--restarts", "4", "--seed", "5"]
    assert main(["fit-select", *flags, "--out-dir", str(tmp_path / "fit")]) == 0
    assert main(["classify", *flags, "--out-dir", str(tmp_path / "cls")]) == 0
    reports.append(check_report(tmp_path / "fit" / "sim-ep-n1500.fit-report.json"))
    reports.append(check_report(tmp_path / "cls" / "sim-ep-n1500.classify-report.json"))
    for report in reports:
        assert report["manifest"]["config"]["x_min"] == 3
    assert reports[2]["results"]["tail_threshold"] >= 3
    assert reports[2]["results"]["per_value"][0]["value"] >= 3


@pytest.mark.parametrize("command", ["bin", "fit-select", "classify", "simulate",
                                     "validate"])
def test_reports_ignore_seed_env_variable(command, flow_file, series_file, tmp_path,
                                          monkeypatch):
    # --seed is the one source of a run's seed; the environment sets none
    mini = RecoveryPlan("mini-check", alphas=(1.6,), n_samples=1200,
                        n_replicates=1, restarts=2)
    monkeypatch.setitem(PRESETS, "mini-check", mini)
    args = {
        "bin": ["--input", str(flow_file), "--windows", "8"],
        "fit-select": ["--input", str(series_file), "--restarts", "2"],
        "classify": ["--input", str(series_file), "--restarts", "2"],
        "simulate": ["--model", "P", "--alpha", "2", "--n", "50"],
        "validate": ["--preset", "mini-check"],
    }[command]

    def outputs(name):
        out = tmp_path / name
        assert main([command, *args, "--out-dir", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()
                if not p.name.endswith(".runtime.json")}

    monkeypatch.delenv("TAILMIX_SEED", raising=False)
    plain = outputs("plain")
    monkeypatch.setenv("TAILMIX_SEED", "99")
    assert outputs("seeded") == plain
    (report,) = [name for name in plain if name.endswith("-report.json")]
    assert check_report(tmp_path / "plain" / report)["manifest"]["seed"] == DEFAULT_SEED


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

    def test_tail_regime_starts_where_the_tail_owns_every_larger_count(
            self, tmp_path, capsys):
        # the tail owns count 1 on this EP series, then the body owns
        # 2-20; the regime starts at 21, not at the first tail-owned count
        assert main(["simulate", "--model", "EP", "--weights", "0.5,0.5",
                     "--lambdas", "0.2", "--alpha", "1.6", "--n", "5000",
                     "--seed", "3", "--out-dir", str(tmp_path / "sim")]) == 0
        capsys.readouterr()
        out = tmp_path / "cls"
        assert main(["classify", "--input", str(tmp_path / "sim" / "sim-ep-n5000.series"),
                     "--seed", "1", "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out.endswith(
            "model EP, tail regime starts at count 21 (345/5000 bins)\n"
        )
        res = check_report(out / "sim-ep-n5000.classify-report.json")["results"]
        assert (res["tail_threshold"], res["n_tail_bins"]) == (21, 345)
        per_value = res["per_value"]
        assert per_value[0]["value"] == 1 and per_value[0]["tail_responsibility"] > 0.5
        for pv in per_value:
            if pv["value"] >= 21:
                assert pv["tail_responsibility"] >= 0.5, pv


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
    def test_negative_seed_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "val"
        rc = main(["validate", "--preset", "fig2-desk", "--seed", "-3",
                   "--out-dir", str(out)])
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

    def test_selection_preset_writes_one_csv_line_per_row(self, tmp_path,
                                                          monkeypatch, capsys):
        ep = MixtureParams((0.5, 0.5), (0.2,), 1.6)
        rows = (
            SelectionRow("ep-n600", "EP", ep, 600, "ep_p", "EP",
                         gate_median_log10=1.0),
            SelectionRow("p-n600", "P", MixtureParams((1.0,), (), 1.6), 600,
                         "choice", "P"),
        )
        mini = SelectionPlan("mini-table", rows=rows, n_replicates=2, restarts=3)
        monkeypatch.setitem(PRESETS, "mini-table", mini)
        out = tmp_path / "val"
        rc = main(["validate", "--preset", "mini-table", "--seed", "2",
                   "--out-dir", str(out)])
        assert rc == 0
        report = check_report(out / "mini-table-report.json")
        with (out / "mini-table-records.csv").open(newline="") as fh:
            header, *lines = csv.reader(fh)
        assert header == ["row_id", "truth", "n_samples", "metric",
                          "median_log10_bf", "choice_rate", "pass"]
        assert [line[:4] for line in lines] == [
            ["ep-n600", "EP", "600", "ep_p"], ["p-n600", "P", "600", "choice"],
        ]
        # one stdout line per row, then the overall verdict
        state = {True: "PASS", False: "FAIL", None: "info"}
        *per_row, overall = capsys.readouterr().out.splitlines()
        assert per_row == [f"{row['row_id']}: {state[row['pass']]}"
                           for row in report["results"]["rows"]]
        assert per_row[1] == "p-n600: info"
        assert overall.startswith("mini-table: ")
