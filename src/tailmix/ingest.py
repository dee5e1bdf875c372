"""Flow-record ingestion and binning.

Flow files (a start_time column, in seconds) and uptime sidecars (begin
and end columns) are comma- or tab-delimited text with a header line,
and both are read by _read_columns. Every text file is opened as UTF-8,
a leading byte-order mark dropped, and its body parsed by numpy's C
reader in one pass; a row loop reads the file again only when that pass
fails, so the values and the line-numbered errors are the loop's on
every input. Counting uses half-open windows [k*w, (k+1)*w) aligned to
multiples of the window size, starting at the window containing the
first flow. An optional uptime sidecar restricts counting to bins that
lie wholly inside a measured interval. A ladder of doubling windows is
counted in one pass over the flows, at its smallest window; each larger
window sums pairs of bins of the one below. The pass walks the start
times in fixed-size chunks through two reused buffers, so binning holds
the start-time array, the counts and about 1 MB more, however many
flows there are.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import DataError
from .mixture import BinnedSeries

# Doubling ladder of window sizes used throughout, in seconds.
STANDARD_WINDOWS = (4, 8, 16, 32, 64, 128, 256, 512)

# Start times per chunk of a counting pass: the float64 and int64 chunk
# buffers take 512 KB each.
_CHUNK = 1 << 16
# Most bins a counted window may span, first flow to last: its int64
# counter then takes 256 MB.
_MAX_BINS = 1 << 25


@contextlib.contextmanager
def _text(path):
    """path opened as text, a leading UTF-8 byte-order mark dropped and
    line endings kept. A byte sequence that is not UTF-8, met anywhere in
    the with block, is a DataError naming the file."""
    try:
        with path.open(encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def _read_header(fh, path):
    """(delimiter, column names) from the header line: tab if it has one.
    Names may be quoted with `"`, as the rows' fields may."""
    first = fh.readline()
    if not first.strip():
        raise DataError(f"{path}: empty file")
    delim = "\t" if "\t" in first else ","
    return delim, [c.strip() for c in next(csv.reader([first], delimiter=delim))]


def _parse_body(path, **kwargs):
    """Parse every line after the header with one C-reader pass.

    Returns None where the reader raises, and the caller's row loop reads
    the file again: it either gives the same values or reports the fault
    the way it always has. That includes what only the reader trips on,
    such as a plain-text file named *.gz, which numpy would decompress.
    The reader's empty-input warning is silenced for the same reason.
    The reader opens the path anew, so a pipe, whose header the caller
    has already consumed, is left to the row loop.
    """
    if not path.is_file():
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(path, skiprows=1, comments=None, encoding="utf-8",
                              **kwargs)
    except Exception:
        return None


def _read_columns(path, names) -> np.ndarray:
    """The named columns of a delimited file, in the order of names, as a
    float64 array with one row per record. The header must name each
    column. Blank and whitespace-only lines are skipped; a short row, a
    value that is not a number and a non-finite value are DataErrors
    naming the line and the column, and text that is not UTF-8 is one
    naming the file."""
    with _text(path) as fh:
        delim, header = _read_header(fh, path)
        for name in names:
            if name not in header:
                raise DataError(f"{path}: header has no {name} column: {header}")
        cols = [header.index(name) for name in names]
        rows = _parse_body(path, delimiter=delim, quotechar='"', usecols=cols,
                           ndmin=2)
        if rows is None or not rows.size or not np.isfinite(rows).all():
            rows = _columns_by_row(fh, path, delim, cols, names)
    return rows


def _columns_by_row(fh, path, delim, cols, names) -> np.ndarray:
    """The row loop behind _read_columns, reading fh from after the header."""
    rows = []
    for lineno, row in enumerate(csv.reader(fh, delimiter=delim), start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        values = []
        for col, name in zip(cols, names):
            if len(row) <= col:
                raise DataError(f"{path}:{lineno}: missing {name} field")
            try:
                v = float(row[col])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad {name} {row[col]!r}") from None
            if not math.isfinite(v):
                raise DataError(f"{path}:{lineno}: non-finite {name}")
            values.append(v)
        rows.append(values)
    return np.array(rows, dtype=np.float64).reshape(-1, len(cols))


def read_flow_file(path) -> np.ndarray:
    """Read flow start times (seconds) from the start_time column of a
    delimited text file. Its faults are those of _read_columns and a file
    without rows, each a DataError naming the file."""
    path = Path(path)
    times = _read_columns(path, ("start_time",))[:, 0]
    if not times.size:
        raise DataError(f"{path}: no flow records")
    return times


def read_uptime_file(path) -> list:
    """Read measured intervals, sorted, as (begin, end) second pairs from
    the begin and end columns of a delimited text file. Its faults are
    those of _read_columns, those of _check_spans and overlapping
    intervals, each a DataError naming the file."""
    path = Path(path)
    spans = [(b, e) for b, e in _read_columns(path, ("begin", "end")).tolist()]
    _check_spans(spans, path)
    spans.sort()
    for (b0, e0), (b1, e1) in zip(spans, spans[1:]):
        if b1 < e0:
            raise DataError(f"{path}: overlapping intervals ({b0},{e0}) and ({b1},{e1})")
    return spans


def _check_spans(spans, where):
    """Raise a DataError starting with where unless spans holds at least
    one (begin, end) interval, each with finite bounds and begin < end."""
    if not spans:
        raise DataError(f"{where}: no intervals")
    for b, e in spans:
        if not (math.isfinite(b) and math.isfinite(e)):
            raise DataError(f"{where}: interval ({b},{e}) has a non-finite bound")
        if not b < e:
            raise DataError(f"{where}: interval ({b},{e}) must have begin < end")


def bin_flows(
    start_times,
    window_seconds: float,
    uptime=None,
    drop_zeros: bool = True,
    source_id: str = "",
) -> BinnedSeries:
    """Count flows per window of the given size.

    Bins are [k*w, (k+1)*w) for integer k, from the window containing the
    first flow through the one containing the last. With an uptime list
    only bins lying wholly inside a measured interval are kept; the
    number dropped is recorded in the series meta, as is the number of
    zero-count bins removed when drop_zeros is set. The one-window case
    of bin_at_windows.
    """
    return bin_at_windows(start_times, (window_seconds,), uptime=uptime,
                          drop_zeros=drop_zeros, source_id=source_id)[window_seconds]


def bin_at_windows(
    start_times,
    windows=STANDARD_WINDOWS,
    uptime=None,
    drop_zeros: bool = True,
    source_id: str = "",
) -> dict:
    """Bin the same flows at several window sizes; maps window -> series.

    Each series is the one bin_flows describes. The flows are counted
    once at the smallest window of each run of exact doublings (w, 2w,
    4w, ...), and each larger window of the run sums pairs of bins of
    the one below, aligned on even global bin indices. That is exact
    where no t is negative: t / (2w) = (t / w) / 2 in binary floating
    point, so bin floor(t / (2w)) is floor(t / w) // 2, and the indices
    need no test, as ``_count`` refuses any quotient of 2^62 or more. A
    negative t / w near 0 can round to -0.0 when halved, so a trace with
    a negative time is counted at each window. The uptime and zero-bin
    filters apply per window, after the sums. An uptime list follows
    ``_check_spans``, as an uptime file does, but may overlap.
    """
    check_windows(windows)
    times = np.asarray(start_times, dtype=np.float64)
    if times.size == 0:
        raise DataError("no flow start times")
    # min and max carry any NaN or infinity, so no full-length mask is needed
    lo, hi = float(times.min()), float(times.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DataError("start times must be finite")
    spans = None if uptime is None else _sorted_spans(uptime)
    series = {}
    below = None  # (window, k0, counts) of the last window counted
    for w in sorted({float(w) for w in windows}):
        if below is not None and below[0] == w / 2 and lo >= 0.0:
            k0, counts = _pair_sums(*below[1:])
        else:
            k0, counts = _count(times, lo, hi, w)
        below = (w, k0, counts)
        series[w] = _filtered(counts, k0, w, times.size, spans, drop_zeros, source_id)
    return {w: series[float(w)] for w in windows}


def check_windows(windows):
    """Raise DataError unless there is at least one window size, and each
    is positive, finite and given once."""
    if len(windows) == 0:
        raise DataError("no window sizes given")
    seen = set()
    for w in windows:
        if not (0 < w < math.inf):
            raise DataError(f"window_seconds must be positive and finite, got {w}")
        if float(w) in seen:
            raise DataError(f"window size {w:g} is given more than once")
        seen.add(float(w))


def _count(times, lo, hi, w):
    """(k0, counts) at window w: counts[k] holds the flows with
    floor(t / w) == k0 + k, for k0 = floor(lo / w) through floor(hi / w).

    Each chunk goes through the same divide, floor and int64 cast as a
    whole-array count would, so every index has the same bits, and is
    counted over its own index span only: a chunk costs O(chunk + span),
    however many bins the window has. A window of more than _MAX_BINS
    bins is a DataError, raised before the counter is allocated, and so
    is a quotient t / w that is not finite or whose floor is 2^62 or more
    in magnitude, raised before any index is cast to int64.
    """
    first, last = lo / w, hi / w
    # every t / w lies between these two; an infinite one fails too
    if not max(-first, last) < 2.0**62:
        far = hi if last >= -first else lo
        raise DataError(
            f"start time {far:g} s lies more than 2^62 bins of {w:g} s from time 0"
        )
    if math.floor(last) - math.floor(first) >= _MAX_BINS:
        raise DataError(
            f"flows span {hi - lo:g} s, more than {_MAX_BINS} bins of {w:g} s"
        )
    k0 = math.floor(first)
    counts = np.zeros(math.floor(last) - k0 + 1, dtype=np.int64)
    q = np.empty(min(_CHUNK, times.size))
    k = np.empty(q.size, dtype=np.int64)
    for i in range(0, times.size, _CHUNK):
        c = times[i : i + _CHUNK]
        qc, kc = q[: c.size], k[: c.size]
        np.divide(c, w, out=qc)
        np.floor(qc, out=qc)
        np.copyto(kc, qc, casting="unsafe")
        first = int(kc.min())
        kc -= first
        part = np.bincount(kc)
        counts[first - k0 : first - k0 + part.size] += part
    return k0, counts


def _pair_sums(k0, counts):
    """(k0, counts) at twice the window: bin K holds bins 2K and 2K + 1."""
    lead = k0 % 2
    pairs = np.zeros(2 * ((lead + counts.size + 1) // 2), dtype=counts.dtype)
    pairs[lead : lead + counts.size] = counts
    return k0 // 2, pairs.reshape(-1, 2).sum(axis=1)


def _sorted_spans(uptime):
    """Interval begins in ascending order, and for each the largest end of
    the intervals up to it, so that bin [lo, hi) lies wholly inside one
    interval exactly when some interval up to the last begin <= lo
    reaches hi. Spans may be unsorted or overlap."""
    spans = np.array([(b, e) for b, e in uptime], dtype=np.float64).reshape(-1, 2)
    _check_spans(spans.tolist(), "uptime")
    spans = spans[np.argsort(spans[:, 0], kind="stable")]
    return spans[:, 0], np.fmax.accumulate(spans[:, 1])


def _filtered(counts, k0, w, n_flows, spans, drop_zeros, source_id):
    """The BinnedSeries of raw counts at window w after the uptime and
    zero-bin filters, with its meta."""
    n_total = counts.size
    dropped_uptime = 0
    if spans is not None:
        begins, reach = spans
        edges_lo = (k0 + np.arange(n_total)) * w
        edges_hi = edges_lo + w
        last = np.searchsorted(begins, edges_lo, side="right") - 1
        keep = last >= 0
        keep[keep] = reach[last[keep]] >= edges_hi[keep]
        dropped_uptime = int(n_total - keep.sum())
        counts = counts[keep]
    dropped_zeros = 0
    if drop_zeros:
        nz = counts > 0
        dropped_zeros = int(counts.size - nz.sum())
        counts = counts[nz]
    meta = {
        "window_seconds": w,
        "anchor_seconds": k0 * w,
        "n_flows": int(n_flows),
        "n_bins_spanned": int(n_total),
        "n_bins_dropped_uptime": dropped_uptime,
        "n_zero_bins_dropped": dropped_zeros,
        "drop_zeros": bool(drop_zeros),
    }
    return BinnedSeries(counts, bin_seconds=w, source_id=source_id, meta=meta)


def write_series_file(path, series: BinnedSeries) -> None:
    """Write counts with a one-line JSON header. Round-trips exactly."""
    head = {
        "bin_seconds": series.bin_seconds,
        "source_id": series.source_id,
        "n": series.n,
    }
    lines = ["#" + json.dumps(head, sort_keys=True)]
    lines += map(str, series.counts.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _series_header(first, path):
    """(bin_seconds, source_id, n) from the first line of a series file."""
    if not first.startswith("#"):
        raise DataError(f"{path}: missing JSON header line")
    try:
        head = json.loads(first[1:])
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: bad JSON header: {exc}") from None
    if not isinstance(head, dict):
        raise DataError(
            f"{path}: header must be a JSON object, got {type(head).__name__}"
        )
    for key in ("bin_seconds", "source_id", "n"):
        if key not in head:
            raise DataError(f"{path}: header missing {key!r}")
    bin_seconds, source_id, n = head["bin_seconds"], head["source_id"], head["n"]
    if isinstance(bin_seconds, bool) or not isinstance(bin_seconds, (int, float)):
        raise DataError(
            f"{path}: header bin_seconds must be a number, got {bin_seconds!r}"
        )
    if not isinstance(source_id, str):
        raise DataError(
            f"{path}: header source_id must be a string, got {source_id!r}"
        )
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise DataError(
            f"{path}: header n must be a non-negative integer, got {n!r}"
        )
    return bin_seconds, source_id, n


def read_series_file(path) -> BinnedSeries:
    """Read a series written by write_series_file. A malformed header,
    a bad count line, a count of lines other than the header's n and
    text that is not UTF-8 are DataErrors naming the file."""
    path = Path(path)
    with _text(path) as fh:
        bin_seconds, source_id, n = _series_header(fh.readline(), path)
        counts = _parse_body(path, dtype=np.int64, ndmin=2)
        if counts is None or not counts.size or counts.shape[1] != 1:
            counts = _counts_by_line(fh, path)
        else:
            counts = counts[:, 0]
    if len(counts) != n:
        raise DataError(f"{path}: header says n={n} but found {len(counts)} counts")
    try:
        return BinnedSeries(np.asarray(counts, dtype=np.int64),
                            bin_seconds=float(bin_seconds), source_id=source_id)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _counts_by_line(fh, path) -> list:
    """The line loop behind read_series_file, reading fh from after the header."""
    counts = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            count = int(line)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad count {line!r}") from None
        if not -(2**63) <= count < 2**63:
            raise DataError(
                f"{path}:{lineno}: count {count} is outside the 64-bit integer range"
            )
        counts.append(count)
    return counts
