"""Scale wall times to a reference machine speed.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over periods of seconds to minutes, for every process alike.  A
fixed piece of pure-Python work (the probe) runs before every job and after
the last one.  A job's scaled time is its wall time times
REFERENCE_PROBE_S / P, where P is the median of the probes around it.  The
probe never calls gamelattice, so a faster program cannot make the probe
faster, and a slow spell of the machine slows the probe and the job alike.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# The probe's wall time on one core of the 2-vCPU VM the benchmark was
# introduced on (CPython 3.11); scaled times are in that machine's seconds.
REFERENCE_PROBE_S = 0.005
WINDOW = 2  # probes on each side of a job that set its speed estimate

# Set-up is mostly interpreter start and imports, which the in-process probe
# does not track.  It is scaled by a fresh interpreter that imports the
# standard modules the package uses; REFERENCE_SPAWN_S is that one's wall
# time on the same VM.
REFERENCE_SPAWN_S = 0.08
SPAWN = [sys.executable, "-c", "import argparse, dataclasses, fractions, itertools, json, re"]


def _reference_work():
    """Exact rational elimination and frozenset-keyed dict work, the two
    kinds of work the program does most."""
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(8)] for i in range(7)]
    for c in range(7):
        p = next((r for r in range(c, 7) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(7):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    cache = {}
    for mask in range(1024):
        key = (frozenset(i for i in range(10) if mask >> i & 1), mask % 7)
        cache[key] = cache.get(key, 0) + len(key[0])
    return m, cache


def probe() -> float:
    """Seconds the reference work takes now.  The collector is paused so
    that the program's heap size cannot change the probe's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def spawn_probe() -> float:
    """Seconds a fresh interpreter takes to start, import and exit."""
    t0 = time.perf_counter()
    subprocess.run(SPAWN, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def scale(seconds: list[float], probes: list[float]) -> list[float]:
    """Scaled times of consecutive jobs; probes[i] ran just before job i and
    probes[-1] after the last one."""
    assert len(probes) == len(seconds) + 1
    out = []
    for i, s in enumerate(seconds):
        around = probes[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
        out.append(s * REFERENCE_PROBE_S / statistics.median(around))
    return out
