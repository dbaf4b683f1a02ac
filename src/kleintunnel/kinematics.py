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

The input domain: every input (v, n2, wL, m, V0, L, E, and a packet's k0
and sigma_k) and every quantity derived from them that the numerics read
(w, v and wL of a setup, a mode's n2, n2 at both ends of a packet's
support) is an exact 0 where 0 means something (v = 0 is the
Schroedinger barrier, wL = 0 and L = 0 no barrier) or lies in
[1e-100, 1e100].  Each public entry point checks its inputs once
(_in_domain) and raises the one DomainError text outside it.  Inside it
the numerics need no lane for an intermediate that overflows or
underflows, but one: the NR-prefactor form's (scattering._nr_form_from_r2).

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

# The input domain (see the module docstring): [_LOW, _HIGH], and 0 for the
# inputs named in _ZERO_OK
_LOW, _HIGH = 1e-100, 1e100
_ZERO_OK = frozenset(("v", "wL", "L"))

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
        _in_domain(m=self.m, V0=self.V0, L=self.L)
        _in_domain(w=self.w, v=self.v, wL=self.wL)

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
        _in_domain(v=v, wL=wL, m=m)
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
# the input domain
# ---------------------------------------------------------------------------

def _in_domain(**values) -> None:
    """Raise the one DomainError of the input domain for the first of the
    named values (floats or float64 arrays) that is neither in
    [_LOW, _HIGH] nor an exact 0 of an input named in _ZERO_OK; nan, inf
    and negative values are outside it."""
    for name, x in values.items():
        for y in x.ravel().tolist() if hasattr(x, "ravel") else (x,):
            if not (_LOW <= y <= _HIGH or y == 0.0 and name in _ZERO_OK):
                raise DomainError(f"{name}={y!r} is outside the input domain: "
                                  f"1e-100 to 1e100, or 0 for v, wL and L")


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
    (there -rho(n)^2 = q^2/w^2).  This is _rho_n2_columns at one point.
    """
    import numpy as np

    _in_domain(v=v, n2=n2)
    return _rho_n2_columns(v, np.array([n2], dtype=float))[0].item()


def _rho_n2_columns(v: float, n2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho_n2, s) at every n2 of a float64 array, s = sqrt(1 + 2*n2*v).

    The one home of the rho(n)^2 expression (see rho_n2), a whole grid
    per call, for v and n2 in the input domain.  numpy rounds +, -, *, /
    and sqrt exactly like float arithmetic, so each entry equals the
    float computation at that n2 alone.  s is the same square root as in
    the denominator, E/m of the incident mode.
    """
    # imported here, not at module level: the zone and channel functions,
    # and the commands built on them alone, need no numpy
    import numpy as np

    s = np.sqrt(1.0 + 2.0 * n2 * v)
    r2 = (1.0 - n2 + 0.5 * v) * (1.0 + n2 - 0.5 * v) / (s + n2 + 0.5 * v)
    return r2, s


def tunneling_interval_n2(v: float) -> tuple[float, float]:
    """Tunneling-zone interval in n2: (max(0, v/2 - 1), v/2 + 1)."""
    _in_domain(v=v)
    return (max(0.0, 0.5 * v - 1.0), 0.5 * v + 1.0)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _n2_of(k: float, w: float) -> float:
    """n2 = (k/w)^2, or inf where k/w > _HIGH puts it past the domain
    (float ** raises OverflowError past about 1.3e154)."""
    x = k / w
    return x ** 2 if x <= _HIGH else math.inf


def mode_from_energy(setup: BarrierSetup, E: float) -> IncidentMode:
    """Incident mode at total energy E, using k^2 = E^2 - m^2.

    Raises NonPropagatingError for E <= m (k would not be real positive),
    and the domain's DomainError for E or n2 = (k/w)^2 outside it.
    """
    m = setup.m
    _in_domain(E=E)
    if not (E > m):
        raise NonPropagatingError(f"E={E} does not exceed m={m}: no incident wave")
    # factored to keep precision for E barely above m
    k = math.sqrt((E - m) * (E + m))
    n2 = _n2_of(k, setup.w)
    _in_domain(n2=n2)
    return IncidentMode(E=E, k=k, n2=n2)


def mode_from_n2(setup: BarrierSetup, n2: float) -> IncidentMode:
    """Incident mode at normalized energy coordinate n2 = k^2/w^2:
    E = m*sqrt(1 + 2*n2*v), k = w*sqrt(n2); round-trips with
    mode_from_energy."""
    _in_domain(n2=n2)
    E = setup.m * math.sqrt(1.0 + 2.0 * n2 * setup.v)
    return IncidentMode(E=E, k=setup.w * math.sqrt(n2), n2=n2)


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


# the zone tags in the order of their codes (_zone_code)
_ZONE_ORDER = (Zone.KLEIN, Zone.TUNNELING, Zone.ABOVE_BARRIER, Zone.EDGE_LOWER, Zone.EDGE_UPPER)


def _zone_code(v, n2):
    """The index into _ZONE_ORDER of the zone a sweep row at n2 gets, n2 a
    float or a float64 array (then an int array): an edge by _edges, else
    AboveBarrier from v/2 + 1, Tunneling from v/2 - 1, Klein below.  The
    one zone rule, read by _zone and by the sweep's zone column and its
    T2_nr_form rows; like _edges it needs no numpy (a bool times an int is
    an int in both)."""
    lower, upper = _edges(v, n2)
    code = 1 * (n2 >= 0.5 * v - 1.0) + (n2 >= 0.5 * v + 1.0)
    return code + lower * (3 - code) + upper * (4 - code)


def _zone(v: float, n2: float) -> Zone:
    """The zone tag of _zone_code at one n2.  The callers that hold a mode
    tag its n2 here, not its E, which loses about eps/v relative in n2 and
    cannot resolve the edge band at small v."""
    return _ZONE_ORDER[_zone_code(v, n2)]


def classify_zone(setup: BarrierSetup, E: float) -> Zone:
    """Energy-zone tag for total energy E: NonPropagating for E <= m, else
    the tag of n2 = mode_from_energy(setup, E).n2 (_zone); the domain's
    DomainError for E or that n2 outside it.
    """
    try:
        return _zone(setup.v, mode_from_energy(setup, E).n2)
    except NonPropagatingError:
        return Zone.NON_PROPAGATING


def barrier_channel(setup: BarrierSetup, mode: IncidentMode) -> BarrierChannel:
    """Interior channel (evanescent / oscillatory / linear) for a mode.

    rho^2 = m^2 - (E - V0)^2 = -q^2, in factored form so w^2*rho_n^2 ==
    rho^2 holds to roundoff even at the edges, chooses it by sign, with no
    zone tag: evanescent where rho^2 > 0, else oscillatory where q^2 > 0,
    else linear {1, x}.  NonPropagatingError for E <= m; the domain's
    DomainError for a mode's n2 outside it.
    """
    m, V0, w, E = setup.m, setup.V0, setup.w, mode.E
    _in_domain(n2=mode.n2)
    if not (E > m):
        raise NonPropagatingError(f"E={E} does not exceed m={m}: no incident wave")
    d = E - V0  # from E - V0, so m -+ E never rounds first
    r2 = (m - d) * (m + d)
    if r2 > 0.0:
        rho = math.sqrt(r2)
        return BarrierChannel(kind="evanescent", rho=rho, rho_n=rho / w)
    if r2 < 0.0:
        q = math.sqrt(-r2)
        return BarrierChannel(kind="oscillatory", q=q, q_n=q / w)
    return BarrierChannel(kind="linear")
