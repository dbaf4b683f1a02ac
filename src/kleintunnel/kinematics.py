"""Kinematics of a spin-0 particle hitting a 1D rectangular electrostatic barrier.

The stationary problem is the squared (Klein-Gordon-type) wave equation
with minimal electrostatic coupling,

    (E - V(x))^2 phi = (-d^2/dx^2 + m^2) phi,

for the rectangular profile V(x) = V0 on [0, L], zero elsewhere.  Outside
the barrier the dispersion relation is k^2 = E^2 - m^2; inside it is
governed by rho^2 = m^2 - (E - V0)^2, whose sign splits the energy axis
into qualitatively different zones:

    E > V0 + m           above-barrier  (oscillatory interior, q^2 > 0)
    V0 - m < E < V0 + m  tunneling      (evanescent interior, rho^2 > 0)
    m < E < V0 - m       Klein          (oscillatory interior again)
    E = V0 -+ m          edges          (interior degenerates to a + b*x)
    E <= m               non-propagating incident wave

Everything is expressed in natural units hbar = c = 1: masses and energies
share one unit, lengths carry the inverse unit.  The dimensionless
parameterization used throughout the package is

    w  = sqrt(2*m*V0)        normalization momentum
    v  = V0/m                barrier height over mass
    n2 = k^2/w^2             energy coordinate of every sweep
    rho(n)^2 = rho^2/w^2     normalized interior decay constant

with the identity rho(n)^2 = sqrt(1 + 2*n2*v) - n2 - v/2.  The tunneling
zone in these variables is exactly (n2 - v/2)^2 < 1.

All types are immutable and all operations are pure functions; they are
safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, NonPropagatingError

if TYPE_CHECKING:
    import numpy as np

# Relative width (in units of m) of the band around E = V0 +/- m treated
# as the degenerate edge; inside it the linear interior basis is used so
# rho -> 0 never enters a denominator.
EDGE_RTOL = 1e-12


class Zone(enum.Enum):
    ABOVE_BARRIER = "AboveBarrier"
    TUNNELING = "Tunneling"
    KLEIN = "Klein"
    EDGE_LOWER = "EdgeLower"
    EDGE_UPPER = "EdgeUpper"
    NON_PROPAGATING = "NonPropagating"

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BarrierSetup:
    """Physical configuration: mass m, barrier height V0, barrier width L.

    m and V0 are in energy units, L in inverse-energy units (natural
    units).  The derived quantities w, v and wL are exposed as properties
    so the invariants w^2 = 2*m*V0 and v = w^2/(2*m^2) hold by
    construction.
    """

    m: float
    V0: float
    L: float

    def __post_init__(self) -> None:
        if not (self.m > 0.0 and math.isfinite(self.m)):
            raise DomainError(f"mass must be positive and finite, got m={self.m}")
        if not (self.V0 > 0.0 and math.isfinite(self.V0)):
            raise DomainError(f"barrier height must be positive and finite, got V0={self.V0}")
        if not (self.L >= 0.0 and math.isfinite(self.L)):
            raise DomainError(f"barrier width must be >= 0 and finite, got L={self.L}")
        if self.w == 0.0:
            raise DomainError(f"w = sqrt(2*m*V0) underflows to 0 at m={self.m}, V0={self.V0}")

    @property
    def w(self) -> float:
        """Normalization momentum sqrt(2*m*V0)."""
        return math.sqrt(2.0 * self.m * self.V0)

    @property
    def v(self) -> float:
        """Dimensionless barrier strength V0/m."""
        return self.V0 / self.m

    @property
    def wL(self) -> float:
        """Dimensionless barrier width w*L."""
        return self.w * self.L

    @classmethod
    def from_dimensionless(cls, v: float, wL: float, m: float = 1.0) -> "BarrierSetup":
        """Build a setup from the dimensionless (v, wL) at mass scale m."""
        if not (v > 0.0 and math.isfinite(v)):
            raise DomainError(f"v must be positive and finite, got {v}")
        if not (wL >= 0.0 and math.isfinite(wL)):
            raise DomainError(f"wL must be >= 0 and finite, got {wL}")
        V0 = v * m
        w = math.sqrt(2.0 * m * V0)
        if w == 0.0:
            raise DomainError(f"w = sqrt(2*m*V0) underflows to 0 at m={m}, v={v}")
        return cls(m=m, V0=V0, L=wL / w)


@dataclass(frozen=True)
class IncidentMode:
    """One incident momentum/energy point: E, k and n2 = k^2/w^2."""

    E: float
    k: float
    n2: float


@dataclass(frozen=True)
class BarrierChannel:
    """Character of the interior solution for one incident mode.

    kind is "evanescent" (decay constant rho > 0), "oscillatory"
    (interior wavenumber q > 0) or "linear" (degenerate edge, basis
    {1, x}).  rho_n and q_n are the w-normalized values; fields that do
    not apply to the kind are zero.
    """

    kind: str
    rho: float = 0.0
    q: float = 0.0
    rho_n: float = 0.0
    q_n: float = 0.0


# ---------------------------------------------------------------------------
# normalized interior decay constant
# ---------------------------------------------------------------------------

def rho_n2(v: float, n2: float) -> float:
    """Normalized interior decay constant squared, rho(n)^2 = rho^2/w^2.

    Analytically rho(n)^2 = sqrt(1 + 2*n2*v) - n2 - v/2, but that form
    cancels catastrophically near the zone edges.  Multiplying by the
    conjugate gives the equivalent

        rho(n)^2 = (1 - (n2 - v/2)^2) / (sqrt(1 + 2*n2*v) + n2 + v/2)

    whose numerator is factored as (1 - n2 + v/2)*(1 + n2 - v/2), exact
    down to rho = 0.  The value is negative in the oscillatory zones
    (there -rho(n)^2 = q^2/w^2).  Raises DomainError where the value
    overflows (|n2 - v/2| beyond ~1e154).  This is _rho_n2_columns at one
    point.
    """
    import numpy as np

    return _rho_n2_columns(v, np.array([n2], dtype=float))[0].item()


def _rho_n2_columns(v: float, n2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho_n2, s) at every n2 of a float64 array, s = sqrt(1 + 2*n2*v).

    The one home of the rho(n)^2 expression (see rho_n2), a whole grid
    per call.  numpy rounds +, -, *, / and sqrt exactly like float
    arithmetic, so each entry equals the float computation at that n2
    alone.  s is the same square root as in the denominator, E/m of the
    incident mode.  As in float arithmetic, an overflow gives +-inf
    without a warning: s = inf is kept, and a rho(n)^2 that is not
    finite raises DomainError.
    """
    # imported here, not at module level: the zone and channel functions,
    # and the commands built on them alone, need no numpy
    import numpy as np

    # count_nonzero is the cheapest test of a mask on short arrays
    good = n2 > 0.0
    if np.count_nonzero(good) < good.size:
        raise DomainError(f"n2 must be positive, got {n2[~good][0].item()}")
    if not (v >= 0.0):
        raise DomainError(f"v must be >= 0, got {v}")
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sqrt(1.0 + 2.0 * n2 * v)
        r2 = (1.0 - n2 + 0.5 * v) * (1.0 + n2 - 0.5 * v) / (s + n2 + 0.5 * v)
    good = np.isfinite(r2)
    if np.count_nonzero(good) < good.size:
        raise DomainError(f"rho_n^2 is not finite at v={v}, n2={n2[~good][0].item()}")
    return r2, s


def tunneling_interval_n2(v: float) -> tuple[float, float]:
    """Tunneling-zone interval in n2: (max(0, v/2 - 1), v/2 + 1)."""
    return (max(0.0, 0.5 * v - 1.0), 0.5 * v + 1.0)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def mode_from_energy(setup: BarrierSetup, E: float) -> IncidentMode:
    """Incident mode at total energy E, using k^2 = E^2 - m^2.

    Raises NonPropagatingError for E <= m (k would not be real positive).
    """
    m = setup.m
    if not math.isfinite(E):
        raise DomainError(f"E must be finite, got {E}")
    if not (E > m):
        raise NonPropagatingError(f"E={E} does not exceed m={m}: no incident wave")
    # factored to keep precision for E barely above m
    k = math.sqrt((E - m) * (E + m))
    return IncidentMode(E=E, k=k, n2=(k / setup.w) ** 2)


def mode_from_n2(setup: BarrierSetup, n2: float) -> IncidentMode:
    """Incident mode at normalized energy coordinate n2 = k^2/w^2.

    E = m*sqrt(1 + 2*n2*v); round-trips with mode_from_energy.
    """
    if not (n2 > 0.0 and math.isfinite(n2)):
        raise DomainError(f"n2 must be positive and finite, got {n2}")
    E = setup.m * math.sqrt(1.0 + 2.0 * n2 * setup.v)
    k = setup.w * math.sqrt(n2)
    return IncidentMode(E=E, k=k, n2=n2)


def classify_zone(setup: BarrierSetup, E: float) -> Zone:
    """Energy-zone tag for total energy E.

    Edge detection uses |E - (V0 -+ m)| <= EDGE_RTOL*m; a non-propagating
    incident wave (E <= m) wins over any other classification.  Raises
    DomainError for a non-finite E.
    """
    m, V0 = setup.m, setup.V0
    if not math.isfinite(E):
        raise DomainError(f"E must be finite, got {E}")
    if E <= m:
        return Zone.NON_PROPAGATING
    tol = EDGE_RTOL * m
    if abs(E - (V0 - m)) <= tol:
        return Zone.EDGE_LOWER
    if abs(E - (V0 + m)) <= tol:
        return Zone.EDGE_UPPER
    if E > V0 + m:
        return Zone.ABOVE_BARRIER
    if E > V0 - m:
        return Zone.TUNNELING
    return Zone.KLEIN


def barrier_channel(setup: BarrierSetup, mode: IncidentMode) -> BarrierChannel:
    """Interior channel (evanescent / oscillatory / linear) for a mode.

    rho^2 = m^2 - (E - V0)^2 and q^2 = (E - V0)^2 - m^2 are computed in
    factored form, so w^2*rho_n^2 == rho^2 holds to roundoff even at the
    edges.
    """
    zone = classify_zone(setup, mode.E)
    m, V0, w = setup.m, setup.V0, setup.w
    E = mode.E
    if zone in (Zone.EDGE_LOWER, Zone.EDGE_UPPER):
        return BarrierChannel(kind="linear")
    if zone is Zone.TUNNELING:
        rho2 = (m - E + V0) * (m + E - V0)
        rho = math.sqrt(rho2)
        return BarrierChannel(kind="evanescent", rho=rho, rho_n=rho / w)
    if zone in (Zone.KLEIN, Zone.ABOVE_BARRIER):
        q2 = (E - V0 - m) * (E - V0 + m)
        q = math.sqrt(q2)
        return BarrierChannel(kind="oscillatory", q=q, q_n=q / w)
    raise NonPropagatingError(f"E={E} does not exceed m={m}: no incident wave")
