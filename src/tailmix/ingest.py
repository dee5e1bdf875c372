"""Flow-record ingestion and binning.

Flow files are delimited text (comma or tab) with a header naming a
start_time column in seconds. Flow and series files are parsed by
numpy's C reader in one pass; a per-row loop reads the file again only
when that pass fails, so the values and the line-numbered errors are the
loop's on every input. Counting uses half-open windows
[k*w, (k+1)*w) aligned to multiples of the window size, starting at the
window containing the first flow. An optional uptime sidecar restricts
counting to bins that lie wholly inside a measured interval.
"""

from __future__ import annotations

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


def _read_header(fh, path):
    """(delimiter, column names) from the header line: tab if it has one."""
    first = fh.readline()
    if not first.strip():
        raise DataError(f"{path}: empty file")
    delim = "\t" if "\t" in first else ","
    return delim, [c.strip() for c in first.rstrip("\r\n").split(delim)]


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


def read_flow_file(path) -> np.ndarray:
    """Read flow start times (seconds) from a delimited text file.

    Blank and whitespace-only lines are skipped; a short row, a value that
    is not a number and a non-finite value are DataErrors naming the line.
    """
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as fh:
        delim, header = _read_header(fh, path)
        if "start_time" not in header:
            raise DataError(f"{path}: header has no start_time column: {header}")
        col = header.index("start_time")
        times = _parse_body(path, delimiter=delim, quotechar='"', usecols=col,
                            ndmin=1)
        if times is None or not times.size or not np.isfinite(times).all():
            times = _start_times_by_row(fh, path, delim, col)
    return times


def _start_times_by_row(fh, path, delim, col) -> np.ndarray:
    """The row loop behind read_flow_file, reading fh from after the header."""
    times = []
    for lineno, row in enumerate(csv.reader(fh, delimiter=delim), start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) <= col:
            raise DataError(f"{path}:{lineno}: missing start_time field")
        try:
            t = float(row[col])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad start_time {row[col]!r}") from None
        if not math.isfinite(t):
            raise DataError(f"{path}:{lineno}: non-finite start_time")
        times.append(t)
    if not times:
        raise DataError(f"{path}: no flow records")
    return np.asarray(times, dtype=np.float64)


def read_uptime_file(path) -> list:
    """Read measured intervals as (begin, end) second pairs, one per line."""
    path = Path(path)
    spans = []
    with path.open(encoding="utf-8", newline="") as fh:
        delim, header = _read_header(fh, path)
        if "begin" not in header or "end" not in header:
            raise DataError(f"{path}: header must name begin and end: {header}")
        bcol, ecol = header.index("begin"), header.index("end")
        for lineno, row in enumerate(csv.reader(fh, delimiter=delim), start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                b, e = float(row[bcol]), float(row[ecol])
            except (ValueError, IndexError):
                raise DataError(f"{path}:{lineno}: bad interval row {row!r}") from None
            if not (b < e):
                raise DataError(f"{path}:{lineno}: interval must have begin < end")
            spans.append((b, e))
    if not spans:
        raise DataError(f"{path}: no intervals")
    spans.sort()
    for (b0, e0), (b1, e1) in zip(spans, spans[1:]):
        if b1 < e0:
            raise DataError(f"{path}: overlapping intervals ({b0},{e0}) and ({b1},{e1})")
    return spans


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
    zero-count bins removed when drop_zeros is set.
    """
    times = np.asarray(start_times, dtype=np.float64)
    if times.size == 0:
        raise DataError("no flow start times")
    if not np.isfinite(times).all():
        raise DataError("start times must be finite")
    if not (window_seconds > 0):
        raise DataError(f"window_seconds must be positive, got {window_seconds}")
    w = float(window_seconds)
    k0 = math.floor(times.min() / w)
    idx = np.floor(times / w).astype(np.int64) - k0
    counts = np.bincount(idx)
    n_total = counts.size
    dropped_uptime = 0
    if uptime is not None:
        edges_lo = (k0 + np.arange(n_total)) * w
        edges_hi = edges_lo + w
        keep = np.zeros(n_total, dtype=bool)
        for b, e in uptime:
            keep |= (edges_lo >= b) & (edges_hi <= e)
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
        "n_flows": int(times.size),
        "n_bins_spanned": int(n_total),
        "n_bins_dropped_uptime": dropped_uptime,
        "n_zero_bins_dropped": dropped_zeros,
        "drop_zeros": bool(drop_zeros),
    }
    return BinnedSeries(counts, bin_seconds=w, source_id=source_id, meta=meta)


def bin_at_windows(
    start_times,
    windows=STANDARD_WINDOWS,
    uptime=None,
    drop_zeros: bool = True,
    source_id: str = "",
) -> dict:
    """Bin the same flows at several window sizes; maps window -> series."""
    return {
        w: bin_flows(start_times, w, uptime=uptime, drop_zeros=drop_zeros,
                     source_id=source_id)
        for w in windows
    }


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


def read_series_file(path) -> BinnedSeries:
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise DataError(f"{path}: missing JSON header line")
        try:
            head = json.loads(first[1:])
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: bad JSON header: {exc}") from None
        for key in ("bin_seconds", "source_id", "n"):
            if key not in head:
                raise DataError(f"{path}: header missing {key!r}")
        counts = _parse_body(path, dtype=np.int64, ndmin=2)
        if counts is None or not counts.size or counts.shape[1] != 1:
            counts = _counts_by_line(fh, path)
        else:
            counts = counts[:, 0]
    if len(counts) != head["n"]:
        raise DataError(
            f"{path}: header says n={head['n']} but found {len(counts)} counts"
        )
    return BinnedSeries(
        np.asarray(counts, dtype=np.int64),
        bin_seconds=float(head["bin_seconds"]),
        source_id=str(head["source_id"]),
    )


def _counts_by_line(fh, path) -> list:
    """The line loop behind read_series_file, reading fh from after the header."""
    counts = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            counts.append(int(line))
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad count {line!r}") from None
    return counts
