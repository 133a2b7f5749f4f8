"""Host speed probe: a fixed piece of work timed between benchmark ops.

On a few cores of a shared host the speed of the same op swings by up to
half from one second to the next, and every kind of work slows together (a
slow op comes with a slow probe). Dividing each op's wall time by the
probe's time around it, and multiplying by REFERENCE_S, gives the time the
op would have taken at the host speed where the probe takes REFERENCE_S.
The probe runs in the benchmark's own process with its own fixed code, so a
change to the program moves the ops and never the probe.

The probe mixes the three kinds of work the program does: an interpreted
scalar loop with math calls (expression evaluation per node and per RK4
stage), prefix sums and ufuncs over a long numpy array (grids and series),
and float-to-text rendering (JSON and CSV payloads).
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

# Probe time on the host of the recorded baseline (bench/baseline.json) at
# its faster speed; rescaled times are times at that speed.
REFERENCE_S = 0.05

_SCALARS = 64000
_ARRAY = np.linspace(0.0, 1.0, 65537)
_ARRAY_PASSES = 52
_RENDERED = [math.sqrt(i + 0.5) for i in range(26000)]


def _work() -> float:
    total = 0.0
    for i in range(_SCALARS):
        x = i * 1e-4
        total += math.sin(x) * x + math.exp(-x)
    a = _ARRAY
    for _ in range(_ARRAY_PASSES):
        a = np.cumsum(np.sin(a)) * 1e-5
    text = json.dumps(_RENDERED)
    return total + float(a[-1]) + len(text)


def probe() -> float:
    """Wall time of one run of the fixed work, in seconds."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def normalised(wall: float, probes: list[float]) -> float:
    """``wall`` rescaled to the reference host speed, from the probes timed
    around it: wall * REFERENCE_S / mean(probes)."""
    return wall * REFERENCE_S * len(probes) / sum(probes)
