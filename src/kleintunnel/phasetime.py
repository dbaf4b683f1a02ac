"""Traversal and stationary-phase (phase) times for the rectangular barrier.

The transit time of a transmitted packet whose peak leaves the barrier at
x = L is the energy derivative of the transmitted phase, t_phi = dphi/dE,
evaluated at the spectral peak.  Normalizing by the classical traversal
time tau = L/(dE/dk) = L*E/k gives the dimensionless ratio computed here
in two independent ways, plus limit formulas:

* a closed form, the exact n2-derivative of the closed-form phase,
* the oracle normalized_phase_time_numeric, the n2-derivative carried
  through the matcher's own 2x2 solve (independent of every closed form),
* small-rho and zone-edge limit formulas.

Both ratios take (v, n2, wL); the phase time itself is
t_phi = classical_tau(setup, mode) * ratio.

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
barrier with dispersion k^2 = 2 m E_NR and n2 = E_NR/V0, whose classical
time is tau_NR = L*m/k; normalized_phase_time_numeric at v = 0 is that
panel's oracle.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, KleinTunnelError, ZoneCrossingError
from .kinematics import _MIN_NORMAL, BarrierSetup, IncidentMode, _edges, _rho_n2_columns
from .scattering import _closed_forms, _matched, _past_cutoff, _refusal


# ---------------------------------------------------------------------------
# classical traversal time
# ---------------------------------------------------------------------------

def classical_tau(setup: BarrierSetup, mode: IncidentMode) -> float:
    """Classical traversal time tau = L*(dE/dk)^(-1) = L*E/k.

    The phase time is t_phi = classical_tau(setup, mode) * ratio, with the
    ratio normalized_phase_time(v, n2, wL) or its oracle.  Raises
    ZeroLengthError at L = 0, where tau = 0 makes every normalized ratio
    undefined (the closed ratio's wL = 0 refusal).  Only where L*E leaves
    the normal range is tau formed as L*(E/k); DomainError where tau still
    overflows.
    """
    L, E, k = setup.L, mode.E, mode.k
    if L == 0.0:
        raise _refusal("ratio", setup.v, mode.n2, 0.0)
    LE = L * E
    tau = LE / k if _MIN_NORMAL <= LE < math.inf else L * (E / k)
    if math.isinf(tau):
        raise DomainError(f"tau = L*E/k overflows at L={L}, E={E}, k={k}")
    return tau


# ---------------------------------------------------------------------------
# closed-form ratio
# ---------------------------------------------------------------------------

def normalized_phase_time(v: float, n2: float, wL: float) -> float:
    """Closed-form t_phi/tau at (v, n2, wL), any zone and both edges.

    The ratio entry of scattering._closed_forms, the chain-rule derivative
    of the closed-form phase.  It has no edge branch: on a zone edge the
    same expression gives the exact edge value (edge_phase_time_ratio to
    roundoff), and it stays exact at v = 2, n2 -> 0 and for opaque
    barriers.  Raises ZeroLengthError at wL = 0, DomainError for wL < 0,
    nan or where it overflows.
    """
    return _closed_forms(v, np.array([n2], dtype=float), wL, ratio=True,
                         columns=("ratio",)).ratio.item()


# ---------------------------------------------------------------------------
# numeric oracle: the n2-derivative carried through the matching solve
# ---------------------------------------------------------------------------

def normalized_phase_time_numeric(v: float, n2: float, wL: float) -> float:
    """t_phi/tau at (v, n2, wL) from the derivative of the matched amplitude.

    The counterpart of normalized_phase_time, independent of every closed
    form: d/dn2 is carried through the matcher's own 2x2 solve
    (scattering._matched), T = 2 i n u / det with u = exp(-kappa wL) and
    kappa^2 = rho_n^2, so that

        d log T = dn/n - d det/det - wL dkappa,
        dkappa = (v/s - 1)/(2 kappa),   s = sqrt(1 + 2 n2 v),

    (dkappa = -1/(2 kappa) at v = 0, the Schroedinger dispersion) and
    t_phi/tau = (2n/wL) Im(d log T/dn2).  Taking Im of the logarithmic
    derivative needs no phase unwrapping, and an opaque barrier whose u
    underflows loses nothing.  The only inputs it shares with the closed
    form are rho_n^2 and s from kinematics._rho_n2_columns; a sweep
    computes them once per point and passes them to both.

    Raises ZoneCrossingError on a zone edge (kinematics._edges, the band a
    sweep snaps), otherwise ZeroLengthError at wL = 0, where tau = 0, and
    DomainError for wL < 0 or nan, past the phase cutoff or where the
    value overflows or is nan.
    """
    x = np.array([n2], dtype=float)
    r2, s = _rho_n2_columns(v, x)
    ratio, winding = _phase_time_columns(v, x, r2, s, wL)
    if math.isnan(ratio[0]):
        raise _numeric_refusal(v, n2, wL, winding[0], r2[0])
    return ratio.item()


def _numeric_refusal(v: float, n2: float, wL: float, winding: float,
                     r2: float) -> KleinTunnelError:
    """The error naming why _phase_time_columns left the entry at n2 nan,
    given its winding and r2: a zone edge, else scattering._refusal's
    text for wL = 0, the phase cutoff or an inf or nan value."""
    if any(_edges(v, n2)):
        return ZoneCrossingError(f"n2={n2} lies on a zone edge")
    return _refusal("phase" if _past_cutoff(winding) else "ratio", v, n2, wL, winding, r2)


def _phase_time_columns(v: float, n2: np.ndarray, r2: np.ndarray, s: np.ndarray,
                        wL: float) -> tuple[np.ndarray, np.ndarray]:
    """normalized_phase_time_numeric at every n2 of a float64 array, given
    (r2, s) = kinematics._rho_n2_columns(v, n2): (ratio, winding).

    winding = floor(q_n wL / pi + 1/2), 0 off the oscillatory zones.  The
    ratio is nan where the oracle refuses (_numeric_refusal names why): on
    a zone edge by kinematics._edges (kappa rounds to 0 only there and at
    v = 2, n2 < 2e-16), at wL = 0, past the phase cutoff, where cmath.exp
    of a huge q_n wL is an arbitrary unit number, and wherever it is inf
    or nan.  Raises DomainError for wL < 0 or nan.
    """
    if not (wL >= 0.0):
        raise DomainError(f"wL must be >= 0, got {wL}")
    root = np.sqrt(np.abs(r2))
    osc = r2 < 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 at wL = inf
        winding = np.floor(np.where(osc, root, 0.0) * wL / math.pi + 0.5)
    ratio = np.full(r2.shape, math.nan)
    keep = ~(np.logical_or(*_edges(v, n2)) | _past_cutoff(winding))
    if wL != 0.0 and np.count_nonzero(keep):
        with np.errstate(all="ignore"):
            ratio[keep] = _solve_columns(v, n2[keep], root[keep], osc[keep], s[keep], wL)
        ratio[~np.isfinite(ratio)] = math.nan
    return ratio, winding


class _Pair:
    """Complex columns, float64 arrays re and im, whose binary +, -, *, /
    (either order, with a _Pair, float, complex or float64 array), unary -
    and exp() give each entry the bytes of CPython 3.11's complex arithmetic:
    a real x is complex(x, 0.0), * is _Py_c_prod, / _Py_c_quot and exp is
    cmath.exp, mapped (numpy's complex128 * and / round differently in up to
    half the entries).  __array_ufunc__ = None sends ndarray op _Pair here."""

    __array_ufunc__ = None

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __add__(self, b):
        b = _as_pair(b)
        return _Pair(self.re + b.re, self.im + b.im)

    def __sub__(self, b):
        b = _as_pair(b)
        return _Pair(self.re - b.re, self.im - b.im)

    def __mul__(self, b):
        b = _as_pair(b)
        return _Pair(self.re * b.re - self.im * b.im, self.re * b.im + self.im * b.re)

    # float sums do not depend on the order of their terms, nor then _Py_c_prod
    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, b):
        # Smith's division by the part of b of larger magnitude, per entry: p
        # divides, br + bi*ratio or br*ratio + bi (the same sum commuted); a
        # nan takes the second branch (nan, as in CPython), a zero b gives nan
        b = _as_pair(b)
        big = np.abs(b.re) >= np.abs(b.im)
        p, q = np.where(big, b.re, b.im), np.where(big, b.im, b.re)
        ratio = q / p
        denom = p + q * ratio
        c, d = np.where(big, self.re, self.im), np.where(big, self.im, self.re)
        return _Pair((c + d * ratio) / denom, np.where(big, d - c * ratio, c * ratio - d) / denom)

    def __rsub__(self, a):
        return _as_pair(a) - self

    def __rtruediv__(self, a):
        return _as_pair(a) / self

    def __neg__(self):
        return _Pair(-self.re, -self.im)

    def exp(self) -> _Pair:
        re, im = np.broadcast_arrays(self.re, self.im)
        z = np.fromiter(map(cmath.exp, map(complex, re.tolist(), im.tolist())), complex, re.size)
        return _Pair(z.real, z.imag)


def _as_pair(x) -> _Pair:
    """An operand of _Pair as a _Pair; a float's or a float64 array's imag is 0.0."""
    return x if isinstance(x, _Pair) else _Pair(x.real, x.imag)


def _solve_columns(v: float, n2: np.ndarray, root: np.ndarray, osc: np.ndarray,
                   s: np.ndarray, wL: float) -> np.ndarray:
    """The oracle over columns, root = |rho_n|: scattering._matched on _Pair
    columns, then its n2-derivative, each entry the scalar formulas' bytes."""
    n = np.sqrt(n2)
    i = _Pair(0.0, 1.0)  # 1j: a complex literal would meet float arrays by numpy's rules
    # kappa = complex(rho_n) or 1j * q_n = (0.0, q_n); n a _Pair for _matched's 1j * n
    kappa = _Pair(np.where(osc, 0.0, root), np.where(osc, root, 0.0))
    g1, g2, u2, Qk, P, det = _matched(_Pair(n, 0.0), kappa, (-kappa * wL).exp())
    dn = 0.5 / n
    dkappa = (v / s - 1.0) / (2.0 * kappa)
    # dg2 = d(i n/kappa)/2 = -dg1, and d(u2) = -2 wL dkappa u2
    dg2 = 0.5 * (i * (dn - n * dkappa / kappa) / kappa)
    g2du2 = g2 * (-2.0 * wL * dkappa * u2)
    dP = dg2 * (u2 - 1.0) + g2du2
    dQ = dkappa * Qk + kappa * (dg2 * (u2 + 1.0) + g2du2)
    ddet = dQ + i * (dn * P + n * dP)
    # d log T = dn/n - d det/det - wL dkappa, and dn/n is real
    return 2.0 * n / wL * (-(ddet / det).im - wL * dkappa.im)


# ---------------------------------------------------------------------------
# limit formulas
# ---------------------------------------------------------------------------
# each raises DomainError where its result is nan or inf (_finite)

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
    return _finite((4.0 / 3.0) * num / den, "the small-rho ratio", f"v={v}, n2={n2}")


def _finite(value: float, name: str, at: str) -> float:
    """value, or the DomainError of a limit formula whose value is nan or inf at its point."""
    if not math.isfinite(value):
        raise DomainError(f"{name} evaluates to {value} at {at}")
    return value


def _check_edge(v: float, edge: str) -> float:
    if edge not in ("lower", "upper"):
        raise DomainError(f"edge must be 'lower' or 'upper', got {edge!r}")
    if v < 0.0:  # a nan v is left to _finite
        raise DomainError(f"v must be >= 0, got {v}")
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
    ratio = -(4.0 / 3.0) / (1.0 + 2.0 * n2 if edge == "lower" else 1.0 - 2.0 * n2)
    return _finite(ratio, "the edge limit ratio", f"v={v}, edge={edge}")


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
    if math.isinf(n2 * wL * wL):
        # num and den divided by wL^2, whose inverse is 0 where wL^2 overflows too
        w2 = 1.0 / (wL * wL)
        num = (0.5 - sgn / (v - sgn)) * w2 - sgn * n2 / (v - sgn) / 3.0
        ratio = num / (w2 + 0.25 * n2)
    elif math.isinf(3.0 * (v - sgn)):
        # 3 (v -+ 1) overflows: the n2 wL^2 term over v above and below, where
        # 1 -+ 1/v rounds to 1
        num = 0.5 - sgn / (v - sgn) - sgn * (n2 / v) * wL * wL / 3.0
        ratio = num / (1.0 + 0.25 * n2 * wL * wL)
    else:
        num = 0.5 - sgn / (v - sgn) - sgn * n2 * wL * wL / (3.0 * (v - sgn))
        ratio = num / (1.0 + 0.25 * n2 * wL * wL)
    return _finite(ratio, "the edge ratio", f"v={v}, wL={wL}, edge={edge}")


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
    if math.isinf(den) or math.isinf(wL * wL / den):
        # past an overflow, the same (1 + a^2)^(-1/2) with a = wL/sqrt(den),
        # and den = 2 (v -+ 2) where 2v -+ 4 overflows
        a = (wL / math.sqrt(2.0) / math.sqrt(v - 2.0 if edge == "lower" else v + 2.0)
             if math.isinf(den) else wL / math.sqrt(den))
        magnitude = 1.0 / a if math.isinf(a * a) else 1.0 / math.sqrt(1.0 + a * a)
    else:
        magnitude = 1.0 / math.sqrt(1.0 + wL * wL / den)
    return _finite(magnitude, "the edge NR-prefactor |T|", f"v={v}, wL={wL}, edge={edge}")
