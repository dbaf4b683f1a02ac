"""Traversal and stationary-phase (phase) times for the rectangular barrier.

The transit time of a transmitted packet whose peak leaves the barrier at
x = L is the energy derivative of the transmitted phase, t_phi = dphi/dE,
evaluated at the spectral peak.  Normalizing by the classical traversal
time tau = L/(dE/dk) = L*E/k gives the dimensionless ratio computed here
in two independent ways, plus limit formulas:

* a closed form, the exact n2-derivative of the closed-form phase,
* the oracle normalized_phase_time_numeric, the n2-derivative carried
  by hand through the matcher's 2x2 solve (independent of every closed
  form),
* small-rho and zone-edge limit formulas.

The closed-form phase is arctan(Y) + winding*pi with
Y = u wL tc / (2n), u = n2 - rho_n^2, d2 = rho_n^2 wL^2 and tc = tanh(d)/d
(scattering._closed_forms).  Since t_phi/tau = (2n/wL) dphi/dn2, the chain
rule gives, with s = sqrt(1 + 2 n2 v) and rho' = d rho_n^2/dn2 = v/s - 1,

    t_phi/tau = [P tc / (2 n2) + u rho' wL^2 h] / (1 + Y^2),
    P = n2 + rho_n^2 - 2 n2 rho' = 1/s - v/2 + 2 n2,
    h = d tc / d(d2) = (sech^2(d) - tc) / (2 d2) = -1/3 + 4 d2/15 - ...

u and P are evaluated in forms free of cancellation, so the ratio stays
exact at the v = 2 threshold n2 -> 0.  tc and h are functions of d2
that continue into the oscillatory zones (tanh -> tan, sech^2 -> sec^2),
and on a zone edge (d2 = 0) the same expression is the edge value.  Near
the zone edges the ratio tends to a finite value that still depends on wL,

    [1/2 -+ 1/(v -+ 1) -+ n2 wL^2 / (3 (v -+ 1))] / (1 + n2 wL^2 / 4),

which only for wL -> infinity reaches the width-independent limit
-(4/3)/(1 +- 2 n2); see edge_phase_time_ratio / edge_limit_ratio.

At v = 0 (rho_n^2 = 1 - n2) the same closed forms are the Schroedinger
barrier with dispersion k^2 = 2 m E_NR and n2 = E_NR/V0; nr_transmission
and nr_t_phi evaluate them there, and normalized_phase_time_numeric at
v = 0 is that panel's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ZoneCrossingError
from .kinematics import BarrierSetup, IncidentMode, Zone, classify_zone, rho_n2
from .scattering import _closed_forms, _matched, _refusal, transmission_closed_form


@dataclass(frozen=True)
class PhaseTimeResult:
    """tau, t_phi and the normalized ratio t_phi/tau from one method.

    method is "closed_form" or "numeric_derivative".  At L = 0 the ratio
    is 0/0; it is then reported as nan with ratio_defined False instead
    of being silently divided.
    """

    tau: float
    t_phi: float
    ratio: float
    method: str
    ratio_defined: bool = True


@dataclass(frozen=True)
class NRReference:
    """Schroedinger rectangular-barrier reference point (own dispersion)."""

    e_nr: float
    kappa: float
    magnitude: float
    phase: float
    ratio: float


# ---------------------------------------------------------------------------
# classical traversal time
# ---------------------------------------------------------------------------

def classical_tau(setup: BarrierSetup, mode: IncidentMode) -> float:
    """Classical traversal time tau = L*(dE/dk)^(-1) = L*E/k.

    Raises ZeroLengthError at L = 0, where tau = 0 makes every normalized
    ratio undefined (the closed ratio's wL = 0 refusal).
    """
    if setup.L == 0.0:
        raise _refusal("ratio", setup.v, mode.n2, 0.0)
    return setup.L * mode.E / mode.k


# ---------------------------------------------------------------------------
# closed-form ratio
# ---------------------------------------------------------------------------

def normalized_phase_time(v: float, n2: float, wL: float) -> float:
    """Closed-form t_phi/tau at (v, n2, wL), any zone and both edges.

    The ratio entry of scattering._closed_forms, the chain-rule derivative
    of the closed-form phase.  It has no edge branch: on a zone edge the
    same expression gives the exact edge value (edge_phase_time_ratio to
    roundoff), and it stays exact at v = 2, n2 -> 0 and for opaque
    barriers.  Raises ZeroLengthError at wL = 0, DomainError where it overflows.
    """
    return _closed_forms(v, np.array([n2], dtype=float), wL, ratio=True,
                         columns=("ratio",)).ratio.item()


def phase_time_closed_form(setup: BarrierSetup, mode: IncidentMode) -> PhaseTimeResult:
    """Closed-form phase time in every zone and on both edges.

    The ratio is normalized_phase_time; at L = 0 it is flagged undefined.
    """
    if setup.L == 0.0:
        return PhaseTimeResult(tau=0.0, t_phi=0.0, ratio=float("nan"),
                               method="closed_form", ratio_defined=False)
    ratio = normalized_phase_time(setup.v, mode.n2, setup.wL)
    tau = classical_tau(setup, mode)
    return PhaseTimeResult(tau=tau, t_phi=ratio * tau, ratio=ratio,
                           method="closed_form")


# ---------------------------------------------------------------------------
# numeric oracle: the n2-derivative carried through the matching solve
# ---------------------------------------------------------------------------

def normalized_phase_time_numeric(v: float, n2: float, wL: float) -> float:
    """t_phi/tau at (v, n2, wL) from the derivative of the matched amplitude.

    The counterpart of normalized_phase_time, independent of every closed
    form: d/dn2 is carried by hand through the matcher's 2x2 solve
    (scattering._matched), T = 2 i n u / det with u = exp(-kappa wL) and
    kappa^2 = rho_n^2, so that

        d log T = dn/n - d det/det - wL dkappa,
        dkappa = (v/s - 1)/(2 kappa),   s = sqrt(1 + 2 n2 v),

    (dkappa = -1/(2 kappa) at v = 0, the Schroedinger dispersion) and
    t_phi/tau = (2n/wL) Im(d log T/dn2).  Taking Im of the logarithmic
    derivative needs no phase unwrapping, and an opaque barrier whose u
    underflows loses nothing.  The only input it shares with the closed
    form is rho_n^2 = kinematics.rho_n2(v, n2); a sweep computes that once
    per point and passes it to both.

    Raises ZoneCrossingError exactly on a zone edge (rho_n^2 == 0) and
    otherwise ZeroLengthError at wL = 0, where tau = 0.
    """
    return _phase_time_numeric(v, n2, rho_n2(v, n2), wL)


def _phase_time_numeric(v: float, n2: float, r2: float, wL: float) -> float:
    """normalized_phase_time_numeric with r2 = rho_n2(v, n2) given."""
    if r2 == 0.0:
        raise ZoneCrossingError(f"n2={n2} lies on a zone edge")
    if wL == 0.0:
        raise _refusal("ratio", v, n2, wL)
    n = math.sqrt(n2)
    kappa = complex(math.sqrt(r2)) if r2 > 0.0 else 1j * math.sqrt(-r2)
    _, _, g2, u2, Qk, P, det = _matched(n, kappa, wL)
    dn = 0.5 / n
    dkappa = (v / math.sqrt(1.0 + 2.0 * n2 * v) - 1.0) / (2.0 * kappa)
    # dg2 = d(i n/kappa)/2 = -dg1
    dg2 = 0.5 * (1j * (dn - n * dkappa / kappa) / kappa)
    du2 = -2.0 * wL * dkappa * u2
    g2du2 = g2 * du2
    dP = dg2 * (u2 - 1.0) + g2du2
    dQ = dkappa * Qk + kappa * (dg2 * (u2 + 1.0) + g2du2)
    ddet = dQ + 1j * (dn * P + n * dP)
    # dn/n is real
    return 2.0 * n / wL * (-(ddet / det).imag - wL * dkappa.imag)


def phase_time_numeric(setup: BarrierSetup, mode: IncidentMode,
                       dE: float | None = None) -> PhaseTimeResult:
    """t_phi = dphi/dE from normalized_phase_time_numeric.

    dE is accepted and ignored: the derivative is exact, so there is no
    step.  Raises ZoneCrossingError if the point is tagged as a zone edge
    by classify_zone; at L = 0 the ratio is flagged undefined.
    """
    if classify_zone(setup, mode.E) in (Zone.EDGE_LOWER, Zone.EDGE_UPPER):
        raise ZoneCrossingError(f"E={mode.E} lies on a zone edge")
    if setup.L == 0.0:
        return PhaseTimeResult(tau=0.0, t_phi=0.0, ratio=float("nan"),
                               method="numeric_derivative", ratio_defined=False)
    tau = classical_tau(setup, mode)
    ratio = normalized_phase_time_numeric(setup.v, mode.n2, setup.wL)
    return PhaseTimeResult(tau=tau, t_phi=ratio * tau, ratio=ratio,
                           method="numeric_derivative")


# ---------------------------------------------------------------------------
# limit formulas
# ---------------------------------------------------------------------------

def small_rho_ratio(v: float, n2: float) -> float:
    """Leading small-rho term of the normalized phase time.

    (4/3) [(4 + 4 n2 v + v^2) s - 2 v (2 + 3 n2 v)]
        / [(4 + 8 n2 v + v^2) s - 4 v (1 + 2 n2 v)],   s = sqrt(1+2 n2 v).

    Equals 4/3 for every n2 at v = 0 and reproduces the zone-edge limit
    values when evaluated at n2 = v/2 -+ 1.
    """
    if not (v >= 0.0):
        raise DomainError(f"v must be >= 0, got {v}")
    if not (n2 > 0.0):
        raise DomainError(f"n2 must be positive, got {n2}")
    s = math.sqrt(1.0 + 2.0 * n2 * v)
    num = (4.0 + 4.0 * n2 * v + v * v) * s - 2.0 * v * (2.0 + 3.0 * n2 * v)
    den = (4.0 + 8.0 * n2 * v + v * v) * s - 4.0 * v * (1.0 + 2.0 * n2 * v)
    return (4.0 / 3.0) * num / den


def _check_edge(v: float, edge: str) -> float:
    if edge not in ("lower", "upper"):
        raise DomainError(f"edge must be 'lower' or 'upper', got {edge!r}")
    if edge == "lower":
        if not (v > 2.0):
            raise DomainError(f"lower edge needs v > 2 (n2 = v/2 - 1 > 0), got v={v}")
        return 0.5 * v - 1.0
    return 0.5 * v + 1.0


def edge_limit_ratio(v: float, edge: str) -> float:
    """Width-independent edge limit of the ratio: -(4/3)/(1 +- 2 n2).

    n2 = v/2 - 1 at the lower edge (needs v > 2; always negative there)
    and n2 = v/2 + 1 at the upper edge (positive).  This is the
    wL -> infinity limit of edge_phase_time_ratio; both tend to 0 as
    v -> infinity.
    """
    n2 = _check_edge(v, edge)
    if edge == "lower":
        return -(4.0 / 3.0) / (1.0 + 2.0 * n2)
    return -(4.0 / 3.0) / (1.0 - 2.0 * n2)


def edge_phase_time_ratio(v: float, wL: float, edge: str) -> float:
    """Exact zone-edge value of the normalized phase time at finite wL.

    Taking n2 -> v/2 -+ 1 in the closed form at fixed wL gives

        [1/2 -+ 1/(v -+ 1) -+ n2 wL^2 / (3 (v -+ 1))] / (1 + n2 wL^2 / 4)

    (upper signs: lower edge).  It interpolates between
    1/2 -+ 1/(v -+ 1) at wL = 0 and edge_limit_ratio at wL -> infinity;
    the width-independent limit values are approached only as
    wL grows, at the sweep's wL = 2*pi they are still ~5-10% away.
    """
    n2 = _check_edge(v, edge)
    if not (wL >= 0.0):
        raise DomainError(f"wL must be >= 0, got {wL}")
    sgn = 1.0 if edge == "lower" else -1.0
    num = 0.5 - sgn / (v - sgn) - sgn * n2 * wL * wL / (3.0 * (v - sgn))
    return num / (1.0 + 0.25 * n2 * wL * wL)


def edge_limit_magnitude_nr_form(v: float, wL: float, edge: str) -> float:
    """Zone-edge magnitude of the NR-prefactor transmission form.

    [1 + wL^2/(2v - 4)]^(-1/2) at the lower edge and
    [1 + wL^2/(2v + 4)]^(-1/2) at the upper edge; for v >> 1 both become
    [1 + (mL)^2]^(-1/2) with mL = wL/sqrt(2v).  This is the rho -> 0
    limit of transmission_magnitude_nr_form, not of the exact matcher,
    whose edge value is |2/(2 - i k L)|.
    """
    _check_edge(v, edge)
    if not (wL >= 0.0):
        raise DomainError(f"wL must be >= 0, got {wL}")
    den = 2.0 * v - 4.0 if edge == "lower" else 2.0 * v + 4.0
    return 1.0 / math.sqrt(1.0 + wL * wL / den)


# ---------------------------------------------------------------------------
# Schroedinger reference: the closed forms at v = 0
# ---------------------------------------------------------------------------

def _nr_check(setup: BarrierSetup, e_nr: float) -> None:
    if not (0.0 < e_nr < setup.V0):
        raise DomainError(f"E_NR must lie in (0, V0)=(0, {setup.V0}), got {e_nr}")


def nr_transmission(setup: BarrierSetup, e_nr: float) -> NRReference:
    """Schroedinger rectangular-barrier reference at kinetic energy E_NR.

    Own dispersion k^2 = 2 m E_NR, kappa^2 = 2 m (V0 - E_NR); magnitude
    and phase are transmission_closed_form and the ratio (tau_NR = L*m/k)
    is normalized_phase_time, both at v = 0 and n2 = E_NR/V0.
    DomainError outside (0, V0).
    """
    _nr_check(setup, e_nr)
    n2, wL = e_nr / setup.V0, setup.wL
    kappa = math.sqrt(2.0 * setup.m * (setup.V0 - e_nr))
    point = transmission_closed_form(0.0, n2, wL)
    return NRReference(e_nr=e_nr, kappa=kappa, magnitude=point.magnitude,
                       phase=point.phase, ratio=normalized_phase_time(0.0, n2, wL))


def nr_t_phi(setup: BarrierSetup, e_nr: float) -> float:
    """Dimensionful NR phase time t_phi = ratio * tau_NR, tau_NR = L*m/k."""
    _nr_check(setup, e_nr)
    if setup.L == 0.0:
        return 0.0
    k = math.sqrt(2.0 * setup.m * e_nr)
    return normalized_phase_time(0.0, e_nr / setup.V0, setup.wL) * setup.L * setup.m / k
