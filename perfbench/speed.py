"""Host-speed probe: scale timings to a reference speed on a shared host.

On a 2-vCPU virtual machine shared with other tenants, the same code ran
at speeds up to a factor of 2 apart. The speed switched every few tens
of milliseconds, in proportions that drifted over minutes, so a run's
wall times moved by 20% or more with the neighbours' load. Between work
items the benchmark runs a fixed probe of its own code. The mean probe
time over a phase of the run, divided by REFERENCE_PROBE_S, is that
phase's slowdown. Reported timings are divided by it, which gives the
seconds the work would take at the reference speed. The raw wall
figures are printed beside them.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's time on the 2-vCPU VM above when no neighbour slowed it.
REFERENCE_PROBE_S = 2.5e-4
PROBES_PER_SAMPLE = 3

_X = np.linspace(1.0, 2.0, 64)


def probe() -> float:
    """Interpreter work and small-array numpy, like the optimizer's inner
    loop. Returns its wall seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(150):
        acc += float(np.log(_X).sum()) + k * 0.5
    return time.perf_counter() - t0


class HostSpeed:
    """Probe times collected during one phase of a run."""

    def __init__(self):
        self.probe_s = []

    def sample(self) -> None:
        self.probe_s += [probe() for _ in range(PROBES_PER_SAMPLE)]

    def slowdown(self) -> float:
        if not self.probe_s:
            return 1.0
        return sum(self.probe_s) / len(self.probe_s) / REFERENCE_PROBE_S

    def before_each_call(self, fn):
        """``fn`` with a sample taken before every call."""
        def sampled(*args, **kwargs):
            self.sample()
            return fn(*args, **kwargs)
        return sampled
