"""Numerically careful elementary pieces of the closed forms.

The interior of the barrier enters every closed form only through even
functions of the decay constant, i.e. through d2 = (rho*L)^2.  Writing
them as functions of d2 makes the analytic continuation to the
oscillatory zones automatic: d2 < 0 turns sinh into sin with the right
signs, so one code path serves the tunneling, Klein and above-barrier
regions and stays finite across rho -> 0.
"""

from __future__ import annotations

import math

# Below this magnitude of d2 the Maclaurin series is exact to double
# precision and avoids the 0/0 forms at rho = 0.
SERIES_CUT = 1e-6

# Beyond this value of d2 the closed forms switch to their exp(-d)
# asymptotes, which are exact to double precision, before sinh overflows.
LARGE_D2 = 350.0**2


def sinh_sq(d2: float) -> float:
    """sinh(d)^2 continued in d2 = d^2 (equals -sin(t)^2 for d2 = -t^2 < 0)."""
    if abs(d2) < SERIES_CUT:
        return d2 * (1.0 + d2 / 3.0 * (1.0 + 2.0 * d2 / 15.0))
    if d2 > 0.0:
        return math.sinh(math.sqrt(d2)) ** 2
    return -math.sin(math.sqrt(-d2)) ** 2
