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
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, NonPropagatingError

if TYPE_CHECKING:
    import numpy as np

# The smallest normal double: a product below it has lost digits to underflow
_MIN_NORMAL = sys.float_info.min

# Relative half-width, in n2, of the band around each zone edge v/2 -+ 1
# that counts as the edge itself (_edges, the one edge rule)
_EDGE_RTOL = 1e-9


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
        if math.isinf(self.w):
            raise DomainError(f"w = sqrt(2*m*V0) is not finite at m={self.m}, V0={self.V0}")
        if math.isinf(self.v):
            raise DomainError(f"v = V0/m is not finite at m={self.m}, V0={self.V0}")
        if math.isinf(self.wL):
            raise DomainError(f"wL = w*L is not finite at m={self.m}, V0={self.V0}, L={self.L}")

    @property
    def w(self) -> float:
        """Normalization momentum sqrt(2*m*V0), taken from the factors where
        2*m*V0 leaves the normal range (_root_of_product), and as
        2*sqrt((m/2)*V0) where 2*m itself overflows."""
        m, V0 = self.m, self.V0
        w2 = 2.0 * m * V0
        if _MIN_NORMAL <= w2 < math.inf:
            return math.sqrt(w2)
        if 2.0 * m == math.inf:
            return 2.0 * _root_of_product(0.5 * m, V0)
        return _root_of_product(2.0 * m, V0)

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
        w = cls(m=m, V0=V0, L=0.0).w  # m and V0 checked before the root is taken
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
    overflows (|n2 - v/2| beyond ~1e154) or its square root does (n2*v
    beyond ~9e307).  This is _rho_n2_columns at one point.
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
    without a warning; a rho(n)^2 that is not finite raises DomainError,
    and so does s = inf, which would turn rho(n)^2 into numerator/inf = 0.
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
    good = np.isfinite(s)
    if np.count_nonzero(good) < good.size:
        raise DomainError(f"sqrt(1 + 2*n2*v) overflows at v={v}, n2={n2[~good][0].item()}")
    return r2, s


def tunneling_interval_n2(v: float) -> tuple[float, float]:
    """Tunneling-zone interval in n2: (max(0, v/2 - 1), v/2 + 1)."""
    return (max(0.0, 0.5 * v - 1.0), 0.5 * v + 1.0)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _root_of_product(a: float, b: float) -> float:
    """sqrt(a*b) for factors of one sign, as sqrt(|a|)*sqrt(|b|) only where
    a*b leaves the normal range (it overflows, or underflows and loses
    digits)."""
    ab = a * b
    if _MIN_NORMAL <= ab < math.inf:
        return math.sqrt(ab)
    return math.sqrt(abs(a)) * math.sqrt(abs(b))


def _k_n2(setup: BarrierSetup, E: float) -> tuple[float, float]:
    """(k, n2) at a finite E > m: k = sqrt((E - m)(E + m)), factored to keep
    precision for E barely above m (_root_of_product); n2 = (k/w)^2 is inf
    where it overflows (float ** raises OverflowError there)."""
    m = setup.m
    k = _root_of_product(E - m, E + m)
    try:
        return k, (k / setup.w) ** 2
    except OverflowError:
        return k, math.inf


def mode_from_energy(setup: BarrierSetup, E: float) -> IncidentMode:
    """Incident mode at total energy E, using k^2 = E^2 - m^2.

    Raises NonPropagatingError for E <= m (k would not be real positive)
    and DomainError where k or n2 overflows.
    """
    m = setup.m
    if not math.isfinite(E):
        raise DomainError(f"E must be finite, got {E}")
    if not (E > m):
        raise NonPropagatingError(f"E={E} does not exceed m={m}: no incident wave")
    k, n2 = _k_n2(setup, E)
    if math.isinf(n2):
        raise DomainError(f"n2 = (k/w)^2 is not finite at E={E}, m={m}, V0={setup.V0}")
    return IncidentMode(E=E, k=k, n2=n2)


def mode_from_n2(setup: BarrierSetup, n2: float) -> IncidentMode:
    """Incident mode at normalized energy coordinate n2 = k^2/w^2.

    E = m*sqrt(1 + 2*n2*v), or m*sqrt(2)*sqrt(v)*sqrt(n2) where 1 + 2*n2*v
    overflows (the 1 is then below its rounding); round-trips with
    mode_from_energy.  Raises DomainError where E or k overflows, and
    where k = w*sqrt(n2) underflows to 0 (a subnormal w).
    """
    if not (n2 > 0.0 and math.isfinite(n2)):
        raise DomainError(f"n2 must be positive and finite, got {n2}")
    m, v = setup.m, setup.v
    E = m * math.sqrt(1.0 + 2.0 * n2 * v)
    if math.isinf(E):
        E = m * math.sqrt(2.0) * math.sqrt(v) * math.sqrt(n2)
    k = setup.w * math.sqrt(n2)
    if not (math.isfinite(E) and math.isfinite(k)):
        raise DomainError(f"E or k is not finite at n2={n2}, m={setup.m}, V0={setup.V0}")
    if k == 0.0:
        raise DomainError(f"k = w*sqrt(n2) underflows to 0 at n2={n2}, m={setup.m}, "
                          f"V0={setup.V0}")
    return IncidentMode(E=E, k=k, n2=n2)


def _edges(v, n2):
    """(lower, upper): whether n2, a float or a float64 array, lies within
    _EDGE_RTOL * max(1, edge) of the edge v/2 - 1 (only for v > 2; it wins
    where the bands overlap) or v/2 + 1.  The one edge rule, read by the
    zone tags, the sweep's snapping and the oracle's refusals; it uses only
    abs and comparisons, so it needs no numpy."""
    lo, hi = 0.5 * v - 1.0, 0.5 * v + 1.0
    # hi >= 1, so max(1, hi) = hi; no n2 lies within -inf of lo
    lo_tol = _EDGE_RTOL * max(1.0, lo) if lo > 0.0 else -math.inf
    off_lo = abs(n2 - lo)
    return off_lo <= lo_tol, (abs(n2 - hi) <= _EDGE_RTOL * hi) & (off_lo > lo_tol)


def _zone(v: float, n2: float) -> Zone:
    """The zone tag a sweep row at n2 gets: an edge by _edges, else
    AboveBarrier from v/2 + 1, Tunneling from v/2 - 1, Klein below.  The
    callers that hold a mode tag its n2 here, not its E, which loses about
    eps/v relative in n2 and cannot resolve the edge band at small v."""
    lower, upper = _edges(v, n2)
    if lower or upper:
        return Zone.EDGE_LOWER if lower else Zone.EDGE_UPPER
    if n2 >= 0.5 * v + 1.0:
        return Zone.ABOVE_BARRIER
    if n2 >= 0.5 * v - 1.0:
        return Zone.TUNNELING
    return Zone.KLEIN


def classify_zone(setup: BarrierSetup, E: float) -> Zone:
    """Energy-zone tag for total energy E: NonPropagating for E <= m, else
    the tag of n2 = mode_from_energy(setup, E).n2 (_zone).  Raises
    DomainError for a non-finite E.
    """
    if not math.isfinite(E):
        raise DomainError(f"E must be finite, got {E}")
    if E <= setup.m:
        return Zone.NON_PROPAGATING
    # an n2 that overflows is above every edge
    return _zone(setup.v, _k_n2(setup, E)[1])


def barrier_channel(setup: BarrierSetup, mode: IncidentMode) -> BarrierChannel:
    """Interior channel (evanescent / oscillatory / linear) for a mode.

    rho^2 = m^2 - (E - V0)^2 and q^2 = (E - V0)^2 - m^2, in factored form
    so w^2*rho_n^2 == rho^2 holds to roundoff even at the edges, choose it
    by sign, with no zone tag: evanescent where rho^2 > 0, else oscillatory
    where q^2 > 0, else linear {1, x}.  The sign is read from the two
    factors (both nonzero and of one sign), not from their product, which
    underflows to 0 where both are below about 1e-162; the root is
    _root_of_product's.
    NonPropagatingError for E <= m, DomainError where rho_n or q_n
    overflows.
    """
    m, V0, w, E = setup.m, setup.V0, setup.w, mode.E
    if not (E > m):
        raise NonPropagatingError(f"E={E} does not exceed m={m}: no incident wave")
    d = E - V0  # both pairs from E - V0, so m -+ E never rounds first
    for kind, a, b in (("evanescent", m - d, m + d), ("oscillatory", d - m, d + m)):
        if min(a, b) > 0.0 or max(a, b) < 0.0:
            root = _root_of_product(a, b)
            if math.isinf(root / w):
                raise DomainError(f"the {kind} root over w is not finite at E={E}, "
                                  f"m={m}, V0={V0}")
            if kind == "evanescent":
                return BarrierChannel(kind=kind, rho=root, rho_n=root / w)
            return BarrierChannel(kind=kind, q=root, q_n=root / w)
    return BarrierChannel(kind="linear")
