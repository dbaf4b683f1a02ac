"""Transmission through the barrier: exact matching vs closed forms.

The exact route solves the four continuity equations of the piecewise
stationary solution.  In every zone and on both edges this is equivalent
to the one closed form

    |T| = [1 + ((n2 + rho_n^2)^2 / (4 n2 rho_n^2)) sinh^2(rho_n wL)]^(-1/2)

(sinh turns into sin where rho_n^2 < 0), whose prefactor reduces to the
familiar 1/(4 n2 rho_n^2) only for Schroedinger kinematics
(k^2 + rho^2 = w^2).  Keeping the NR prefactor with the relativistic
dispersion overestimates |T| badly; this demo quantifies that gap and
shows the above-barrier transmission resonances.
"""

import math

import numpy as np

from kleintunnel import (
    match_boundaries,
    transmission_closed_form,
    transmission_magnitude_nr_form,
)

# every function here takes the dimensionless barrier (v, n2, wL); the mass
# scale only enters through mL = wL/sqrt(2v)
v, wL = 10.0, 2.0 * math.pi
print(f"v = {v}, wL = 2*pi  (mL = {wL / math.sqrt(2.0 * v):.4f})")
print()

print("tunneling zone: exact vs closed form vs NR-prefactor form")
print(f"{'n2':>6} {'|T| exact':>12} {'|T| closed':>12} {'|T| NR-form':>12} {'phase':>9}")
for n2 in np.linspace(4.2, 5.8, 5):
    sol = match_boundaries(v, float(n2), wL)
    point = transmission_closed_form(v, float(n2), wL)
    nr = transmission_magnitude_nr_form(v, float(n2), wL)
    print(f"{n2:6.2f} {abs(sol.T):12.6f} {point.magnitude:12.6f} "
          f"{nr:12.6f} {point.phase:9.4f}")
print("the closed form reproduces the matcher to ~1e-15; the NR-prefactor")
print("variant is ~4.5x too transparent at mid-zone.")
print()

print("unitarity holds point by point:")
sol = match_boundaries(v, 5.0, wL)
print(f"  |R|^2 + |T|^2 - 1 = {abs(sol.R)**2 + abs(sol.T)**2 - 1.0:+.2e}")
print()

print("v = 0 is the Schroedinger barrier; the matcher checks it too:")
for n2 in (0.25, 0.5, 1.0, 2.0):
    sol = match_boundaries(0.0, n2, wL)
    point = transmission_closed_form(0.0, n2, wL)
    print(f"  n2 = {n2:4.2f}  |T| matcher = {abs(sol.T):.6e}  closed = {point.magnitude:.6e}")
print()

print("above-barrier resonances at q*L = N*pi (perfect transparency):")
for n2 in np.linspace(6.05, 8.0, 8):
    point = transmission_closed_form(v, float(n2), wL)
    bar = "#" * int(40 * point.probability)
    print(f"  n2 = {n2:5.2f}  T^2 = {point.probability:8.6f} {bar}")
print("(the resonance near n2 = 7.70 reaches T^2 = 1 exactly)")
