"""Host speed probe for rescaling wall times to a reference speed.

On a shared 2-vCPU virtual machine (Intel Xeon, Python 3.11, numpy 2.4)
the host speed was measured to change by up to 1.6x for seconds to
minutes at a time, with no steal time, so raw wall times of runs minutes
apart differ by more than any useful bound.  The benchmark therefore
times this fixed probe next to every measured interval and can report
the interval rescaled to the probe's time in that machine's fast state,
REF_PROBE_S.  The probe mixes scalar float/complex Python and small numpy
kernels, like the library; it does not call the library.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

REF_PROBE_S = 2.0e-3
_PROBE_X = np.linspace(0.0, 1.0, 100)
_PROBE_E = np.linspace(1.0, 2.0, 200)


def _probe_once() -> None:
    acc = 0j
    for i in range(1500):
        x = 1.0 + i * 1e-3
        k = math.sqrt(x * x + 1.0)
        acc += cmath.exp(-1j * k) * (0.5 - 1j / (k + 1.0))
    for _ in range(3):
        acc += complex(np.exp(-1j * np.outer(_PROBE_X, _PROBE_E)).sum())


def speed_probe() -> float:
    """Shortest of three timings of the fixed probe."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_once()
        best = min(best, time.perf_counter() - t0)
    return best
