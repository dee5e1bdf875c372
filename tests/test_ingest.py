"""Flow parsing, window binning, uptime filtering, series round-trips."""

import math
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tailmix import ingest
from tailmix.errors import DataError
from tailmix.ingest import (
    STANDARD_WINDOWS,
    bin_at_windows,
    bin_flows,
    read_flow_file,
    read_series_file,
    read_uptime_file,
    write_series_file,
)
from tailmix.mixture import BinnedSeries


def oracle_bin(times, w, uptime=None, drop_zeros=True):
    """Dict-based reference binning, independent of the array code."""
    ks = [math.floor(t / w) for t in times]
    counts = {}
    for k in ks:
        counts[k] = counts.get(k, 0) + 1
    k_lo, k_hi = min(ks), max(ks)
    out = []
    dropped_uptime = 0
    dropped_zeros = 0
    for k in range(k_lo, k_hi + 1):
        c = counts.get(k, 0)
        if uptime is not None:
            lo, hi = k * w, (k + 1) * w
            if not any(b <= lo and hi <= e for b, e in uptime):
                dropped_uptime += 1
                continue
        if drop_zeros and c == 0:
            dropped_zeros += 1
            continue
        out.append(c)
    return out, dropped_uptime, dropped_zeros


def check_random_traces():
    """bin_flows against the oracle on 60 random traces and windows."""
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(3, 150))
        scale = float(rng.uniform(10, 2000))
        times = rng.uniform(-scale / 5, scale, size=n)
        w = float(rng.choice(STANDARD_WINDOWS))
        drop = bool(rng.integers(0, 2))
        uptime = None
        if rng.integers(0, 2):
            lo = float(times.min()) + rng.uniform(0, scale / 4)
            hi = lo + rng.uniform(scale / 4, scale)
            uptime = [(lo, hi)]
        s = bin_flows(times, w, uptime=uptime, drop_zeros=drop)
        ref, drop_up, drop_z = oracle_bin(times, w, uptime, drop)
        np.testing.assert_array_equal(s.counts, ref)
        assert s.meta["n_bins_dropped_uptime"] == drop_up
        assert s.meta["n_zero_bins_dropped"] == drop_z


def check_halving_underflow():
    """A ladder where halving a quotient leaves the normal range."""
    # -2**-1072 / 4 is the smallest subnormal, in bin -1, but
    # -2**-1072 / 8 rounds to -0.0, in bin 0: no pair sum gives that
    times = [-(2.0**-1072), 3.0, 9.5]
    assert math.floor(times[0] / 4) == -1 and math.floor(times[0] / 8) == 0
    series = bin_at_windows(times, (4, 8), drop_zeros=False)
    for w, s in series.items():
        alone = bin_flows(times, w, drop_zeros=False)
        np.testing.assert_array_equal(s.counts, alone.counts)
        assert s.meta == alone.meta
    assert series[8].counts.tolist() == [2, 1]


class TestBinFlows:
    def test_handcrafted_case(self):
        times = [3.9, 4.0, 4.1, 8.0, 12.5, 16.1]
        s = bin_flows(times, 4)
        np.testing.assert_array_equal(s.counts, [1, 2, 1, 1, 1])
        assert s.bin_seconds == 4
        assert s.meta["anchor_seconds"] == 0.0
        assert s.meta["n_flows"] == 6

    def test_windows_are_half_open(self):
        # a flow exactly on an edge belongs to the later window
        s = bin_flows([0.0, 4.0, 7.999, 8.0], 4)
        np.testing.assert_array_equal(s.counts, [1, 2, 1])

    def test_zero_bins_dropped_by_default(self):
        s = bin_flows([0.5, 9.0], 4)
        np.testing.assert_array_equal(s.counts, [1, 1])
        assert s.meta["n_zero_bins_dropped"] == 1
        kept = bin_flows([0.5, 9.0], 4, drop_zeros=False)
        np.testing.assert_array_equal(kept.counts, [1, 0, 1])
        assert kept.meta["n_zero_bins_dropped"] == 0

    def test_anchor_aligns_to_window_multiples(self):
        s = bin_flows([10.1, 17.0], 4)
        assert s.meta["anchor_seconds"] == 8.0
        np.testing.assert_array_equal(s.counts, [1, 1])
        assert s.meta["n_bins_spanned"] == 3

    def test_negative_times(self):
        s = bin_flows([-3.5, 1.0], 4)
        assert s.meta["anchor_seconds"] == -4.0
        np.testing.assert_array_equal(s.counts, [1, 1])

    def test_uptime_keeps_only_whole_bins(self):
        times = [2.0, 4.5, 9.0, 15.9]
        s = bin_flows(times, 4, uptime=[(4.0, 16.0)], drop_zeros=False)
        np.testing.assert_array_equal(s.counts, [1, 1, 1])
        assert s.meta["n_bins_dropped_uptime"] == 1

    def test_uptime_drops_partially_covered_bins(self):
        times = [4.5, 9.0]
        s = bin_flows(times, 4, uptime=[(5.0, 16.0)], drop_zeros=False)
        np.testing.assert_array_equal(s.counts, [1])
        assert s.meta["n_bins_dropped_uptime"] == 1

    def test_validation(self):
        with pytest.raises(DataError):
            bin_flows([], 4)
        with pytest.raises(DataError):
            bin_flows([1.0, float("nan")], 4)
        with pytest.raises(DataError):
            bin_flows([1.0], 0)

    def test_matches_oracle_on_random_traces(self):
        check_random_traces()


class TestWindowLadder:
    def test_standard_ladder(self):
        assert STANDARD_WINDOWS == (4, 8, 16, 32, 64, 128, 256, 512)

    def test_bin_at_windows(self):
        rng = np.random.default_rng(5)
        times = rng.uniform(0, 5000, size=400)
        series = bin_at_windows(times)
        assert sorted(series) == sorted(STANDARD_WINDOWS)
        for w, s in series.items():
            assert s.bin_seconds == w
            assert s.counts.sum() == 400  # no uptime and all bins spanned

    def test_ladder_keeps_per_window_bins_where_halving_underflows(self):
        check_halving_underflow()

    @pytest.mark.parametrize("w", [math.inf, math.nan])
    def test_window_must_be_positive_and_finite(self, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="positive and finite"):
                bin_at_windows([1.0, 5.0, 9.0], (4, w), uptime=[(0.0, 16.0)])

    @pytest.mark.parametrize("windows, message", [
        ((8, 8), "window size 8 is given more than once"),
        ((4, 8.0, 16, 8), "window size 8 is given more than once"),
        ((), "no window sizes given"),
    ], ids=["repeated", "repeated-in-ladder", "none"])
    def test_windows_must_be_given_once(self, windows, message):
        with pytest.raises(DataError, match=message):
            bin_at_windows([1.0, 5.0, 9.0], windows)

    def test_span_past_the_bin_cap_is_a_data_error(self, monkeypatch):
        # a dense counter for this span would need 18.2 TiB
        with pytest.raises(DataError, match=r"span 1e\+13 s, more than \d+ bins of 4 s"):
            bin_at_windows([0.0, 1e13], (4,))
        # overflowing quotients fail the same check
        with pytest.raises(DataError, match="more than"):
            bin_at_windows([-1e308, 1e308], (1e-300,))
        monkeypatch.setattr(ingest, "_MAX_BINS", 8)
        assert bin_at_windows([-4.0, 27.9], (4, 8))[4].meta["n_bins_spanned"] == 8
        with pytest.raises(DataError, match="span 32 s, more than 8 bins of 4 s"):
            bin_at_windows([-4.0, 28.0], (4, 8))
        with pytest.raises(DataError, match="bins of 3 s"):
            bin_at_windows([0.0, 27.0], (3, 6))

    def test_bin_index_past_2_62_is_a_data_error(self):
        # the int64 cast of such an index would wrap, and the series come
        # back empty; the window is named, whichever side is too far
        for times, far in (([1e300], "1e+300"), ([-1e300, 0.0], "-1e+300"),
                           ([2.0**64], "1.84467e+19")):
            with pytest.raises(DataError, match=rf"time {re.escape(far)} s lies "
                               r"more than 2\^62 bins of 4 s"):
                bin_at_windows(times, (4, 8))
        # the last index below 2^62 still counts
        edge = 2.0**62 - 1024
        series = bin_at_windows([edge, edge], (1,))[1]
        assert series.counts.tolist() == [2]

    def test_binning_peak_memory(self):
        # the counts and two chunk buffers, not full-length temporaries
        # (a whole-array count peaked at 15.3 MB here)
        times = np.random.default_rng(11).uniform(0, 86400, size=1_000_000)
        for shift in (0.0, -43200.0):
            shifted = times + shift
            tracemalloc.start()
            try:
                bin_at_windows(shifted, STANDARD_WINDOWS)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20, (shift, peak)


class TestFlowFile:
    def test_reads_csv_and_tsv(self, tmp_path):
        csv_p = tmp_path / "flows.csv"
        csv_p.write_text("flow_id,start_time,bytes\na,1.5,100\nb,2.5,200\n")
        np.testing.assert_array_equal(read_flow_file(csv_p), [1.5, 2.5])
        tsv_p = tmp_path / "flows.tsv"
        tsv_p.write_text("start_time\tduration\n3.25\t1\n4.5\t2\n")
        np.testing.assert_array_equal(read_flow_file(tsv_p), [3.25, 4.5])

    def test_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="start_time"):
            read_flow_file(p)

    def test_bad_value_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("start_time\n1.0\noops\n")
        with pytest.raises(DataError, match=":3"):
            read_flow_file(p)

    def test_empty_cases(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError):
            read_flow_file(p)
        p.write_text("start_time\n")
        with pytest.raises(DataError, match="no flow records"):
            read_flow_file(p)

    def test_header_only_is_quiet(self, tmp_path, capfd):
        p = tmp_path / "flows.csv"
        p.write_text("start_time,bytes\n\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="no flow records"):
                read_flow_file(p)
        assert caught == []
        assert capfd.readouterr().err == ""

    def test_whitespace_only_line_skipped(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("start_time,bytes\n1.5,10\n   \n\t\n2.5,20\n")
        np.testing.assert_array_equal(read_flow_file(p), [1.5, 2.5])

    def test_hash_value_rejected(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("start_time,bytes\n1.5,10\n#2.5,20\n3.5,30\n")
        with pytest.raises(DataError, match=r":3: bad start_time '#2\.5'"):
            read_flow_file(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_rejected(self, tmp_path, value):
        p = tmp_path / "flows.csv"
        p.write_text(f"start_time\n1.5\n2.5\n{value}\n")
        with pytest.raises(DataError, match=":4: non-finite start_time"):
            read_flow_file(p)

    def test_short_row(self, tmp_path):
        p = tmp_path / "flows.tsv"
        p.write_text("flow_id\tstart_time\na\t1.5\nb\n")
        with pytest.raises(DataError, match=":3: missing start_time field"):
            read_flow_file(p)

    def test_quoted_field(self, tmp_path):
        p = tmp_path / "flows.csv"
        # split at every comma, the first row would read 5 as its start_time
        p.write_text('flow_id,start_time\n"a,5,b",1.5\nc,2.5\n')
        np.testing.assert_array_equal(read_flow_file(p), [1.5, 2.5])
        p.write_text('flow_id,start_time\nc,"2.5"\n')
        np.testing.assert_array_equal(read_flow_file(p), [2.5])
        p.write_text('"start_time","bytes"\n0.5,1\n9.0,2\n')
        np.testing.assert_array_equal(read_flow_file(p), [0.5, 9.0])
        # as R's write.csv writes it: every name quoted, row names first
        p.write_text('"","start_time","bytes"\n"1",0.5,100\n"2",9,200\n')
        np.testing.assert_array_equal(read_flow_file(p), [0.5, 9.0])

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_plain_text_with_compressed_suffix(self, tmp_path, suffix):
        p = tmp_path / f"flows.csv{suffix}"
        p.write_text("start_time\n1.5\n2.5\n")
        np.testing.assert_array_equal(read_flow_file(p), [1.5, 2.5])
        s = tmp_path / f"x.series{suffix}"
        write_series_file(s, BinnedSeries(np.array([4, 1]), bin_seconds=4.0))
        np.testing.assert_array_equal(read_series_file(s).counts, [4, 1])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_read_once(self, tmp_path):
        # more than the pipe's buffer, so the writer is still writing when
        # a second open of the pipe would start reading mid-file
        times = [i * 0.125 for i in range(40000)]
        fifo = tmp_path / "flows.csv"
        os.mkfifo(fifo)

        def write():
            with fifo.open("w") as fh:
                fh.write("start_time\n" + "".join(f"{t}\n" for t in times))

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            np.testing.assert_array_equal(read_flow_file(fifo), times)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_clean_file_skips_row_loop(self, tmp_path, monkeypatch):
        def no_loop(*args):
            raise AssertionError("row loop ran on a clean file")

        monkeypatch.setattr(ingest, "_columns_by_row", no_loop)
        monkeypatch.setattr(ingest, "_counts_by_line", no_loop)
        p = tmp_path / "flows.csv"
        p.write_text("start_time,bytes\r\n0.25,1\r\n\r\n8.5,2\r\n")
        np.testing.assert_array_equal(read_flow_file(p), [0.25, 8.5])
        u = tmp_path / "up.csv"
        u.write_text("end\tnote\tbegin\n100\tx\t0\n\n300\ty\t150\n")
        assert read_uptime_file(u) == [(0.0, 100.0), (150.0, 300.0)]
        s = tmp_path / "x.series"
        write_series_file(s, BinnedSeries(np.array([4, 1]), bin_seconds=4.0))
        np.testing.assert_array_equal(read_series_file(s).counts, [4, 1])


class TestUptimeFile:
    def test_reads_intervals(self, tmp_path):
        p = tmp_path / "up.csv"
        p.write_text("begin,end\n0,100\n150,300\n")
        assert read_uptime_file(p) == [(0.0, 100.0), (150.0, 300.0)]
        # as R's write.csv writes it: every name quoted, row names first
        p.write_text('"","begin","end"\n"1",150,300\n"2",0,100\n')
        assert read_uptime_file(p) == [(0.0, 100.0), (150.0, 300.0)]

    def test_rejects_bad_intervals(self, tmp_path):
        p = tmp_path / "up.csv"
        p.write_text("begin,end\n0,50\n100,100\n")
        with pytest.raises(DataError, match=r": interval \(100\.0,100\.0\) must have "
                                            "begin < end$"):
            read_uptime_file(p)
        p.write_text("begin,end\n0,100\n50,200\n")
        with pytest.raises(DataError, match="overlap"):
            read_uptime_file(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "up.csv"
        p.write_text("end,begin\n\n100,0\n  \n300,150\n")
        assert read_uptime_file(p) == [(0.0, 100.0), (150.0, 300.0)]

    @pytest.mark.parametrize("text, message", [
        ("start,stop\n0,100\n", "header has no begin column"),
        ("begin,end\n0,100\n150,soon\n", ":3: bad end 'soon'"),
        ("begin,end\n0,100\n150\n", ":3: missing end field"),
        ("begin,end\n\n \n", "no intervals"),
        ("begin,end\n0,nan\n", ":2: non-finite end$"),
        ("begin,end\n0,inf\n", ":2: non-finite end$"),
        ("begin,end\n0,1\n-inf,5\n", ":3: non-finite begin$"),
    ], ids=["header", "not-a-number", "short-row", "no-intervals", "nan-end",
            "inf-end", "inf-begin"])
    def test_faults_are_data_errors_naming_the_file(self, tmp_path, text, message):
        p = tmp_path / "up.csv"
        p.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}.*{message}"):
            read_uptime_file(p)

    @pytest.mark.parametrize("uptime, message", [
        ([(0.0, math.nan)], r"interval \(0\.0,nan\) has a non-finite bound"),
        ([(math.nan, 50.0)], r"interval \(nan,50\.0\) has a non-finite bound"),
        ([(0.0, 40.0), (10.0, math.inf)],
         r"interval \(10\.0,inf\) has a non-finite bound"),
        ([(10.0, 5.0)], r"interval \(10\.0,5\.0\) must have begin < end"),
        ([(10.0, 10.0)], r"interval \(10\.0,10\.0\) must have begin < end"),
        ([], "no intervals"),
    ], ids=["nan-end", "nan-begin", "inf-end", "reversed", "empty-interval",
            "no-intervals"])
    def test_library_uptime_follows_the_file_rule(self, uptime, message):
        # these once binned to an empty series, dropping every bin
        with pytest.raises(DataError, match=f"^uptime: {message}$"):
            bin_at_windows(np.arange(0, 100, 0.5), (4,), uptime=uptime)

    def test_library_uptime_may_overlap(self):
        s = bin_flows(np.arange(0, 100, 0.5), 4, uptime=[(0.0, 50.0), (10.0, 60.0)])
        assert s.n == 15 and s.meta["n_bins_dropped_uptime"] == 10


class TestSeriesFile:
    def test_round_trip(self, tmp_path):
        s = BinnedSeries(np.array([3, 1, 4, 1, 5]), bin_seconds=16.0, source_id="t")
        p = tmp_path / "x.series"
        write_series_file(p, s)
        back = read_series_file(p)
        np.testing.assert_array_equal(back.counts, s.counts)
        assert back.bin_seconds == 16.0
        assert back.source_id == "t"

    @pytest.mark.parametrize("count", [2**63, -2**63 - 1, 10**30])
    def test_count_outside_64_bits_names_its_line(self, tmp_path, count):
        # such a line once ended the read in an OverflowError
        p = tmp_path / "x.series"
        p.write_text(f'#{{"bin_seconds": 4, "source_id": "a", "n": 3}}\n1\n{count}\n2\n')
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:3: count {count} "
                                            "is outside the 64-bit integer range$"):
            read_series_file(p)
        # the smallest int64 is inside the range, and a negative count
        p.write_text(f'#{{"bin_seconds": 4, "source_id": "a", "n": 3}}\n1\n{-2**63}\n2\n')
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: negative count "
                                            f"{-2**63} at index 1$"):
            read_series_file(p)

    def test_header_errors(self, tmp_path):
        p = tmp_path / "x.series"
        p.write_text("1\n2\n")
        with pytest.raises(DataError, match="header"):
            read_series_file(p)
        p.write_text('#{"bin_seconds": 4}\n1\n')
        with pytest.raises(DataError, match="missing"):
            read_series_file(p)
        p.write_text('#{"bin_seconds": 4, "source_id": "a", "n": 3}\n1\n2\n')
        with pytest.raises(DataError, match="n=3"):
            read_series_file(p)
        # each header field is checked before it is used
        for head, match in [
            ('"bin_seconds source_id n"', "must be a JSON object, got str"),
            ('["bin_seconds", "source_id", "n"]', "must be a JSON object, got list"),
            ('{"bin_seconds": "abc", "source_id": "x", "n": 2}',
             "bin_seconds must be a number, got 'abc'"),
            ('{"bin_seconds": null, "source_id": "x", "n": 2}',
             "bin_seconds must be a number, got None"),
            ('{"bin_seconds": true, "source_id": "x", "n": 2}',
             "bin_seconds must be a number, got True"),
            ('{"bin_seconds": 4, "source_id": null, "n": 2}',
             "source_id must be a string, got None"),
            ('{"bin_seconds": 4, "source_id": 7, "n": 2}',
             "source_id must be a string, got 7"),
            ('{"bin_seconds": 4, "source_id": "x", "n": "2"}',
             "n must be a non-negative integer, got '2'"),
            ('{"bin_seconds": 4, "source_id": "x", "n": 2.0}',
             "n must be a non-negative integer, got 2.0"),
            ('{"bin_seconds": 4, "source_id": "x", "n": -1}',
             "n must be a non-negative integer, got -1"),
            ('{"bin_seconds": 4, "source_id": "x", "n": true}',
             "n must be a non-negative integer, got True"),
        ]:
            p.write_text(f"#{head}\n1\n2\n")
            want = re.escape(f"{p}: header {match}")
            with pytest.raises(DataError, match=f"^{want}$"):
                read_series_file(p)
        # the series' own checks name the file too
        p.write_text('#{"bin_seconds": -4.0, "source_id": "x", "n": 2}\n1\n2\n')
        want = re.escape(f"{p}: bin_seconds must be positive and finite, got -4.0")
        with pytest.raises(DataError, match=f"^{want}$"):
            read_series_file(p)

    def test_infinite_bin_seconds_rejected(self, tmp_path):
        p = tmp_path / "x.series"
        p.write_text('#{"bin_seconds": Infinity, "source_id": "a", "n": 1}\n1\n')
        with pytest.raises(DataError, match="positive and finite"):
            read_series_file(p)

    def test_bad_count_line(self, tmp_path):
        p = tmp_path / "x.series"
        p.write_text('#{"bin_seconds": 4, "source_id": "a", "n": 2}\n1\noops\n')
        with pytest.raises(DataError, match=":3"):
            read_series_file(p)

    def test_header_that_is_not_json(self, tmp_path):
        p = tmp_path / "x.series"
        p.write_text('#{"bin_seconds": 4, "source_id": "a",\n1\n')
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: bad JSON header: "):
            read_series_file(p)


# A header line and a body that each carry one byte that is not UTF-8.
# The body runs past the first block that the text layer decodes, so the
# byte is met by the row loop after the header was read.
_NOT_UTF8 = {
    read_flow_file: (b"start_time\xff\n1.5\n", b"start_time\n", b"1.5\n"),
    read_uptime_file: (b"begin,end\xff\n0,1\n", b"begin,end\n", b"0,1\n"),
    read_series_file: (b'#{"bin_seconds": 4, "source_id": "\xff", "n": 1}\n1\n',
                       b'#{"bin_seconds": 4, "source_id": "a", "n": 5001}\n', b"1\n"),
}


@pytest.mark.parametrize("reader", list(_NOT_UTF8), ids=lambda r: r.__name__)
@pytest.mark.parametrize("where", ["header", "body"])
def test_text_that_is_not_utf8_is_a_data_error(tmp_path, reader, where):
    bad_header, header, line = _NOT_UTF8[reader]
    p = tmp_path / "input.txt"
    if where == "header":
        p.write_bytes(bad_header)
    else:
        p.write_bytes(header + 5000 * line + b"\xff\n")
        assert len(p.read_bytes()) > 8192
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}: not UTF-8 text$"):
        reader(p)


# Each reader's input, which a UTF-8 byte-order mark in front leaves as
# it reads, and a view of what the reader returns.
_BOM_CASES = [
    (read_flow_file, b"start_time,bytes\n0.5,1\n9,2\n", np.ndarray.tolist,
     [0.5, 9.0]),
    (read_uptime_file, b"begin,end\n0,100\n150,300\n", list,
     [(0.0, 100.0), (150.0, 300.0)]),
    (read_series_file, b'#{"bin_seconds": 4, "n": 2, "source_id": "a"}\n4\n1\n',
     lambda s: (s.counts.tolist(), s.bin_seconds, s.source_id), ([4, 1], 4.0, "a")),
]


@pytest.mark.parametrize("reader, text, view, want", _BOM_CASES,
                         ids=[case[0].__name__ for case in _BOM_CASES])
def test_byte_order_mark_is_dropped(tmp_path, reader, text, view, want):
    clean, marked = tmp_path / "clean.txt", tmp_path / "marked.txt"
    clean.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert view(reader(clean)) == want
    assert view(reader(marked)) == want


# -- property tests: the C-reader path against the row loops it stands for --

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

_NUMBER = st.one_of(
    st.floats(-1e7, 1e7, allow_nan=False).map(repr),
    st.floats(0, 1e6, allow_nan=False).map("{:.6f}".format),
    st.floats(-1e3, 1e3, allow_nan=False).map("{:e}".format),
    st.integers(-10**6, 10**6).map(str),
)
_JUNK = st.sampled_from([
    "", " ", "nan", "inf", "-Infinity", "1e999", "#1", "1_0", "x", "0x1",
    "1.5.5", "+.5", ".5e-3", '"', '"1"2', '1"2"', '""', '"1', "\u0661",
])
_GOOD_START_TIME = st.one_of(
    _NUMBER,
    _NUMBER.map(lambda v: f" {v}\t"),
    _NUMBER.map(lambda v: f'"{v}"'),
)
_START_TIME = st.one_of(_GOOD_START_TIME, _JUNK)
_GOOD_OTHER = st.text(alphabet="ab1 ", max_size=4)
_OTHER = st.text(alphabet='ab1 ",\t', max_size=4)


@st.composite
def flow_texts(draw, names=("start_time",)):
    """A delimited file: a header with the named columns among others,
    data rows, blank and whitespace-only lines."""
    delim = draw(st.sampled_from([",", "\t"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    n_cols = draw(st.integers(len(names), 4))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=len(names),
                         max_size=len(names), unique=True))
    header = [f"c{i}" for i in range(n_cols)]
    for col, name in zip(cols, names):
        header[col] = name
    clean = draw(st.booleans())  # no line the C reader rejects
    lines = [delim.join(header)]
    for _ in range(draw(st.integers(0, 12))):
        kinds = ["row"] * 6 + ["blank"] + ([] if clean else ["space", "short"])
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "  ", "\t", " \t "])))
        else:
            cells = [draw(_GOOD_OTHER if clean else _OTHER) for _ in range(n_cols)]
            for col in cols:
                cells[col] = draw(_GOOD_START_TIME if clean else _START_TIME)
            if kind == "short":
                cells = cells[:draw(st.integers(0, n_cols))]
            lines.append(delim.join(cells))
    trailing = draw(st.booleans())
    return newline.join(lines) + (newline if trailing else "")


def _by_row_loop(path, names):
    """_read_columns' header handling, then only the row loop."""
    with path.open(encoding="utf-8", newline="") as fh:
        delim, header = ingest._read_header(fh, path)
        cols = [header.index(name) for name in names]
        return ingest._columns_by_row(fh, path, delim, cols, names)


def _flows_by_row_loop(path):
    """read_flow_file through the row loop only."""
    times = _by_row_loop(path, ("start_time",))[:, 0]
    if not times.size:
        raise DataError(f"{path}: no flow records")
    return times


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except DataError as exc:
        return "error", str(exc)


BIN_CASES = given(
    times=st.lists(st.floats(-1000, 10000, allow_nan=False), min_size=1,
                   max_size=200),
    w=st.sampled_from((0.5, 1.5) + STANDARD_WINDOWS),
    drop=st.booleans(),
    spans=st.lists(st.tuples(st.floats(-1000, 10000), st.floats(0.5, 5000)),
                   max_size=3),
    with_uptime=st.booleans(),
)


def check_bin_flows_equals_dict_oracle(times, w, drop, spans, with_uptime):
    uptime = [(b, b + d) for b, d in spans] if with_uptime else None
    if uptime == []:
        # an uptime list with no interval is refused, as in a file
        with pytest.raises(DataError, match="^uptime: no intervals$"):
            bin_flows(times, w, uptime=uptime, drop_zeros=drop)
        return
    s = bin_flows(times, w, uptime=uptime, drop_zeros=drop)
    ref, drop_up, drop_z = oracle_bin(times, w, uptime, drop)
    np.testing.assert_array_equal(s.counts, np.array(ref, dtype=np.int64))
    assert s.meta["n_bins_dropped_uptime"] == drop_up
    assert s.meta["n_zero_bins_dropped"] == drop_z
    assert s.meta["n_flows"] == len(times)
    # a ladder of doublings, out of order and with a window off the
    # ladder, binned together: each equals the oracle and bin_flows
    ladder = (4 * w, w, 8 * w, 3 * w, 2 * w)
    series = bin_at_windows(times, ladder, uptime=uptime, drop_zeros=drop)
    assert list(series) == list(ladder)
    for v, got in series.items():
        ref, drop_up, drop_z = oracle_bin(times, v, uptime, drop)
        np.testing.assert_array_equal(got.counts, np.array(ref, dtype=np.int64))
        assert got.meta["n_bins_dropped_uptime"] == drop_up
        assert got.meta["n_zero_bins_dropped"] == drop_z
        alone = bin_flows(times, v, uptime=uptime, drop_zeros=drop)
        assert got.meta == alone.meta
        assert got.bin_seconds == alone.bin_seconds == v


class TestProperties:
    @PROPERTY_SETTINGS
    @given(flow_texts())
    def test_flow_file_equals_row_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("flows") / "f.csv"
        path.write_bytes(text.encode("utf-8"))
        got = _outcome(read_flow_file, path)
        want = _outcome(_flows_by_row_loop, path)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert got[1].dtype == np.float64
            np.testing.assert_array_equal(got[1], want[1])
        else:
            assert got[1] == want[1]

    @PROPERTY_SETTINGS
    @given(flow_texts(("begin", "end")))
    def test_two_columns_equal_row_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("uptime") / "u.csv"
        path.write_bytes(text.encode("utf-8"))
        got = _outcome(ingest._read_columns, path, ("begin", "end"))
        want = _outcome(_by_row_loop, path, ("begin", "end"))
        assert got[0] == want[0]
        if got[0] == "ok":
            assert got[1].dtype == np.float64
            assert got[1].shape == want[1].shape
            np.testing.assert_array_equal(got[1], want[1])
        else:
            assert got[1] == want[1]

    @PROPERTY_SETTINGS
    @given(
        counts=st.lists(st.integers(0, 2**62), max_size=40),
        bin_seconds=st.floats(1e-3, 1e6, allow_nan=False),
        source_id=st.text(max_size=12),
    )
    def test_series_round_trip(self, tmp_path_factory, counts, bin_seconds,
                               source_id):
        path = tmp_path_factory.mktemp("series") / "x.series"
        s = BinnedSeries(np.array(counts, dtype=np.int64),
                         bin_seconds=bin_seconds, source_id=source_id)
        write_series_file(path, s)
        back = read_series_file(path)
        assert back.counts.dtype == np.int64
        np.testing.assert_array_equal(back.counts, s.counts)
        assert back.bin_seconds == bin_seconds
        assert back.source_id == source_id

    @PROPERTY_SETTINGS
    @given(st.lists(st.one_of(
        st.integers(0, 10**6).map(str),
        st.sampled_from(["", " ", "\t", " 7 ", "+3", "-0", "1.0", "1e3", "1 2",
                         "1,2", "5_0", '"5"', "#5", "x", "\u0665", "2" * 20]),
    ), max_size=10))
    def test_series_body_equals_line_loop(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("series") / "x.series"
        n = sum(1 for line in body if line.strip())
        path.write_text(f'#{{"bin_seconds": 4, "n": {n}, "source_id": "s"}}\n'
                        + "".join(line + "\n" for line in body), encoding="utf-8")

        def by_line():
            with path.open(encoding="utf-8") as fh:
                fh.readline()
                return ingest._counts_by_line(fh, path)

        want = _outcome(by_line)
        if want[0] == "ok" and any(c < 0 for c in want[1]):
            with pytest.raises(DataError, match="negative count"):
                read_series_file(path)
        else:
            assert _outcome(lambda: read_series_file(path).counts.tolist()) == want

    @PROPERTY_SETTINGS
    @BIN_CASES
    def test_bin_flows_equals_dict_oracle(self, times, w, drop, spans,
                                          with_uptime):
        check_bin_flows_equals_dict_oracle(times, w, drop, spans, with_uptime)


@pytest.fixture(params=[1, 3, 7])
def small_chunks(request, monkeypatch):
    """Count in chunks of 1, 3 or 7 start times, so flows straddle chunk
    edges and most bins take counts from several chunks."""
    monkeypatch.setattr(ingest, "_CHUNK", request.param)
    return request.param


class TestChunkEdges:
    """The binning tests again, with chunks far smaller than the input."""

    def test_matches_oracle_on_random_traces(self, small_chunks):
        check_random_traces()

    def test_ladder_keeps_per_window_bins_where_halving_underflows(self, small_chunks):
        check_halving_underflow()

    # the chunk size is the same for every example, so the fixture's
    # function scope is what this test wants
    @settings(PROPERTY_SETTINGS,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @BIN_CASES
    def test_bin_flows_equals_dict_oracle(self, small_chunks, times, w, drop,
                                          spans, with_uptime):
        check_bin_flows_equals_dict_oracle(times, w, drop, spans, with_uptime)

    def test_negative_times_in_any_chunk_are_counted_per_window(self, small_chunks):
        # the negative time nearest 0, whose halving underflows, comes
        # last, after a chunk that holds an ordinary negative time
        times = [-5.0] + [1.0] * 6 + [-(2.0**-1072)]
        series = bin_at_windows(times, (4, 8), drop_zeros=False)
        for w, s in series.items():
            ref, _, _ = oracle_bin(times, w, drop_zeros=False)
            np.testing.assert_array_equal(s.counts, ref)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 4, 9])  # first, middle, last chunk
    def test_non_finite_in_any_chunk(self, monkeypatch, value, where):
        monkeypatch.setattr(ingest, "_CHUNK", 3)
        times = np.arange(10, dtype=np.float64)
        times[where] = value
        with pytest.raises(DataError, match="^start times must be finite$"):
            bin_at_windows(times, (4, 8, 12))
