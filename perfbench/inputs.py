"""Seeded input generators for the benchmark workloads.

Every input is a pure function of the workload seed, built with the
benchmark's own numpy generators, so the same seed gives the same
inputs and the program under test only ever sees the generated data.
All generation happens before any timed region starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Synthetic flow trace: a day of flow start times with exactly
# TRACE_FLOWS records. The body is Poisson arrivals at a rate that
# follows a diurnal curve, stepped every SEGMENT_SECONDS; bursts with
# Pareto-distributed sizes give the binned counts a power tail.
TRACE_SECONDS = 86_400.0
TRACE_FLOWS = 2_000_000
BURST_SHARE = 0.2
N_BURSTS = 300
BURST_SIZE_ALPHA = 1.2
BURST_SECONDS = (2.0, 60.0)
SEGMENT_SECONDS = 4.0
DIURNAL_AMPLITUDE = 0.6
N_OUTAGES = 2
OUTAGE_SECONDS = (300.0, 1200.0)
_WRITE_CHUNK = 200_000

# Stream tags keep the generators of different workloads independent.
_TRACE_TAG = 1
_SELECTION_TAG = 2
_RECOVERY_TAG = 3


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def _uptime_spans(rng: np.random.Generator) -> list:
    """Measured intervals: the whole day minus N_OUTAGES short outages."""
    starts = np.sort(rng.uniform(0.05, 0.95, N_OUTAGES)) * TRACE_SECONDS
    lengths = rng.uniform(*OUTAGE_SECONDS, N_OUTAGES)
    spans, begin = [], 0.0
    for s, d in zip(starts, lengths):
        s = max(float(np.floor(s)), begin + 1.0)
        spans.append((begin, s))
        begin = float(np.floor(s + d))
    spans.append((begin, TRACE_SECONDS))
    return spans


def _body_times(rng, spans, n):
    n_seg = int(TRACE_SECONDS / SEGMENT_SECONDS)
    lo = np.arange(n_seg) * SEGMENT_SECONDS
    diurnal = 1.0 + DIURNAL_AMPLITUDE * np.sin(2.0 * np.pi * lo / TRACE_SECONDS - np.pi / 2.0)
    rate = diurnal.copy()
    inside = np.zeros(n_seg, dtype=bool)
    for b, e in spans:
        inside |= (lo >= b) & (lo + SEGMENT_SECONDS <= e)
    rate[~inside] = 0.0
    per_seg = rng.multinomial(n, rate / rate.sum())
    return np.repeat(lo, per_seg) + rng.random(n) * SEGMENT_SECONDS


def _burst_times(rng, spans, n):
    lengths = np.array([e - b for b, e in spans])
    span_idx = rng.choice(len(spans), N_BURSTS, p=lengths / lengths.sum())
    dur = rng.uniform(*BURST_SECONDS, N_BURSTS)
    begin = np.array([spans[i][0] for i in span_idx])
    end = np.array([spans[i][1] for i in span_idx])
    start = begin + rng.random(N_BURSTS) * (end - begin - dur)
    weight = (1.0 - rng.random(N_BURSTS)) ** (-1.0 / BURST_SIZE_ALPHA)
    sizes = rng.multinomial(n, weight / weight.sum())
    return np.repeat(start, sizes) + rng.random(n) * np.repeat(dur, sizes)


def write_flow_trace(seed: int, flow_path, uptime_path) -> dict:
    """Write the flow CSV and its uptime sidecar; return their properties."""
    rng = _rng(seed, _TRACE_TAG)
    spans = _uptime_spans(rng)
    n_burst = int(TRACE_FLOWS * BURST_SHARE)
    times = np.sort(np.concatenate([
        _body_times(rng, spans, TRACE_FLOWS - n_burst),
        _burst_times(rng, spans, n_burst),
    ]))
    sizes = np.round(rng.lognormal(7.0, 1.5, times.size)).astype(np.int64) + 40
    with open(flow_path, "w", encoding="utf-8") as fh:
        fh.write("start_time,bytes\n")
        for s in range(0, times.size, _WRITE_CHUNK):
            fh.write("".join(map(
                "{:.6f},{}\n".format,
                times[s:s + _WRITE_CHUNK].tolist(),
                sizes[s:s + _WRITE_CHUNK].tolist(),
            )))
    with open(uptime_path, "w", encoding="utf-8") as fh:
        fh.write("begin,end\n")
        fh.writelines(f"{b:.0f},{e:.0f}\n" for b, e in spans)
    return {
        "flows": int(times.size),
        "burst_flows": n_burst,
        "trace_seconds": TRACE_SECONDS,
        "uptime_spans": len(spans),
        "measured_seconds": float(sum(e - b for b, e in spans)),
    }


@dataclass(frozen=True)
class Replicate:
    """One selection or recovery work item, fixed before timing starts.

    ``data`` seeds the generator handed to ``sample_mixture``; ``cell``
    is the table row or grid point, ``rep`` the replicate within it.
    """

    cell: int
    rep: int
    data: np.random.SeedSequence
    lam: float = 0.0


def replicate_pool(seed: int, workload_tag: int, n_cells: int, n_reps: int,
                   lambda_range=None) -> list:
    """Replicates interleaved across cells, so any prefix covers each cell
    about equally. With ``lambda_range`` each replicate also draws its
    exponential rate uniformly from it."""
    rng = _rng(seed, workload_tag)
    pool = []
    for rep in range(n_reps):
        for cell in range(n_cells):
            lam = float(rng.uniform(*lambda_range)) if lambda_range else 0.0
            data = np.random.SeedSequence(seed, spawn_key=(workload_tag, cell, rep))
            pool.append(Replicate(cell, rep, data, lam))
    return pool


def selection_pool(seed: int, n_rows: int, n_reps: int) -> list:
    return replicate_pool(seed, _SELECTION_TAG, n_rows, n_reps)


def recovery_pool(seed: int, n_points: int, n_reps: int, lambda_range) -> list:
    return replicate_pool(seed, _RECOVERY_TAG, n_points, n_reps, lambda_range)


def main(argv=None) -> int:
    """Write the trace inputs in a child process, so that generating them
    does not count towards the benchmark process's peak memory."""
    import argparse
    import json
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    props = write_flow_trace(args.seed, out / "flows.csv", out / "uptime.csv")
    (out / "props.json").write_text(json.dumps(props), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
