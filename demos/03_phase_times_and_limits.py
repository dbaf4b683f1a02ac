"""Phase times: accelerated and negative tunneling delays.

The stationary-phase transit time of the transmitted peak is
t_phi = dphi/dE; normalized by the classical traversal time
tau = L*E/k it measures how much the barrier accelerates (ratio < 1) or
even anticipates (ratio < 0) the arrival.  Near the lower edge of the
tunneling zone the ratio is negative; this demo traces the ratio
through the zone, compares the closed form against the numeric
derivative of the matched phase, and examines the zone-edge limits,
including how the width-independent limit values -4/27 and +4/33
(v = 10) emerge only as wL -> infinity.
"""

import math

import numpy as np

from kleintunnel import (
    edge_limit_ratio,
    edge_phase_time_ratio,
    normalized_phase_time,
    normalized_phase_time_numeric,
    small_rho_ratio,
)

v, wL = 10.0, 2.0 * math.pi
print(f"v = {v}, wL = 2*pi")
print()

print("normalized phase time through the tunneling zone (4 < n2 < 6):")
print(f"{'n2':>6} {'ratio closed':>13} {'ratio numeric':>14}")
for n2 in np.linspace(4.05, 5.95, 9):
    closed = normalized_phase_time(v, float(n2), wL)
    numeric = normalized_phase_time_numeric(v, float(n2), wL)
    marker = "  <- negative: anticipated arrival" if closed < 0 else ""
    print(f"{n2:6.2f} {closed:13.6f} {numeric:14.6f}{marker}")
print()

print("zone-edge values of the ratio:")
for edge in ("lower", "upper"):
    finite = edge_phase_time_ratio(v, wL, edge)
    limit = edge_limit_ratio(v, edge)
    print(f"  {edge:>5} edge: at wL=2pi {finite:+.6f}; width-independent limit "
          f"{limit:+.6f} (= {'-4/27' if edge == 'lower' else '+4/33'})")
print()

print("the width-independent value is the wL -> infinity limit:")
for wl in (2.0 * math.pi, 20.0, 100.0, 1000.0):
    val = edge_phase_time_ratio(v, wl, "lower")
    print(f"  wL = {wl:8.2f}: lower-edge ratio = {val:+.8f} "
          f"(gap to -4/27: {abs(val + 4.0 / 27.0):.2e})")
print()

print("small-rho leading term (exact at the edges):")
print(f"  at n2 = 4: {small_rho_ratio(v, 4.0):+.9f}  (-4/27 = {-4.0/27.0:+.9f})")
print(f"  at n2 = 6: {small_rho_ratio(v, 6.0):+.9f}  (+4/33 = {4.0/33.0:+.9f})")
print(f"  at v = 0 it is 4/3 for every n2: {small_rho_ratio(0.0, 0.3):.9f}")
print()

print("Hartman saturation: for an opaque barrier t_phi stops growing with L,")
print("so the tau-normalized ratio decays like 1/L:")
for wl in (30.0, 60.0, 120.0):
    print(f"  wL = {wl:6.1f}: ratio = {normalized_phase_time(v, 5.0, wl):.6e}")
