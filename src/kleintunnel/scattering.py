"""Exact boundary matching and closed forms for the rectangular barrier.

The stationary ansatz is

    phi1 = exp(ikx) + R exp(-ikx)          x < 0
    phi2 = alpha exp(-rho x) + beta exp(+rho x)   0 < x < L
    phi3 = T exp(ik(x - L))                x > L

with the oscillatory interior basis {exp(-iqx), exp(+iqx)} in the Klein
and above-barrier zones and the degenerate basis {1, xi}, xi = w x, where
rho_n^2 = kinematics.rho_n2(v, n2) is 0 (its sign decides, not a zone
tag; n2 is read directly, never through E).  Matching phi and phi' at
x = 0 and x = L fixes (R, alpha, beta, T); this module solves that
system exactly and also provides the closed forms it implies.

Every point function takes the dimensionless barrier (v, n2, wL) and
nothing else: with k = n w, rho x = rho_n xi and kL = n wL, the matched
solution depends on no other number, and a v = 0 barrier (the
Schroedinger one) is as reachable as any other.

The closed form is what the library reports; :func:`match_boundaries`
stays as its independent check and returns amplitudes only (a mode's
zone tag is kinematics.classify_zone's).  One entire function of rho_n^2 gives
the exact magnitude in every zone and on both edges,

    |T|^-2 = 1 + X^2,   X = ((n2 + rho_n^2) / (2 n)) wL sinhc(rho_n^2 wL^2),

with sinhc(d^2) = sinh(d)/d continued to sin(t)/t for d^2 = -t^2 < 0; at
rho_n = 0 it is |2/(2 - i n wL)|.  :func:`transmission_magnitude_nr_form`
keeps the non-relativistic prefactor 1/(4 n2 rho_n^2) (exact when
k^2 + rho^2 = w^2, i.e. for the Schroedinger dispersion, but too large
here); it is retained to document the discrepancy.  The transmitted
phase is

    arg T = arctan[((n2 - rho_n^2)/(2 n rho_n)) tanh(rho_n wL)],

continued the same way and unwrapped to be continuous in n2, anchored at
phase -> 0 for L -> 0.  The reflected amplitude is R = -i X T.  One core,
_closed_forms, evaluates all of this over a whole n2 grid per call, as
float64 columns: numpy does the +, -, *, / and sqrt, which round exactly
like float arithmetic, and math every transcendental, so a grid gives
the bytes of its one-point calls.  The columns are real (magnitude,
phase, winding, X, rho_n^2, s = E/m, ratio), with X nan on the opaque
asymptote; the complex T and R are built from them by _amplitude_pair,
for the callers that need them (transmission_closed_form and the
wave-packet amplitudes).  A sweep hands the returned rho_n^2 on to its
other columns, so each point computes it once.  The one-point entry
points call the same core with a one-element array and return Python
scalars.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DomainError, KleinTunnelError, ZeroLengthError, ZoneCrossingError, ZoneError
from .kinematics import Zone, _edges, _in_domain, _rho_n2_columns, _zone


@dataclass(frozen=True)
class ScatteringSolution:
    """Exact amplitudes of the matched stationary solution.

    alpha and beta are the interior coefficients in the basis the sign of
    rho_n^2 (kinematics.rho_n2) picks: {exp(-rho x), exp(+rho x)}, else
    {exp(-iqx), exp(+iqx)}, else {1, xi} with xi = w x where it is 0, so
    every coefficient is in units of w (beta = i n T on an edge, and
    dphi/dx = w beta there).  The solution
    carries no zone tag; kinematics.classify_zone gives a mode's.  arg_T
    is the principal argument of T, kept even where T underflows to 0
    (rho L > ~745).
    """

    R: complex
    T: complex
    alpha: complex
    beta: complex
    arg_T: float


@dataclass(frozen=True)
class TransmissionPoint:
    """|T|, unwrapped phase, |T|^2 and the complex amplitudes at one mode.

    phase is continuous in n2 along a sweep and ->0 as L->0; winding is
    the integer number of pi steps added to the principal arctangent
    (always 0 in the tunneling zone), so the principal value is
    phase - winding*pi.  T = |T| exp(i phase) and R = -i X T with the
    real X of the magnitude formula.
    """

    magnitude: float
    phase: float
    probability: float
    T: complex
    R: complex
    winding: int = 0


# ---------------------------------------------------------------------------
# exact matching
# ---------------------------------------------------------------------------

def _matched(n, kappa, u):
    """The reduced 2x2 matching solve in units of w: (g1, g2, u2, Qk, P, det).

    kappa is rho_n in the evanescent zone and i q_n in the oscillatory
    ones, the caller's u = exp(-kappa wL), u2 = u^2 and g1,2 = (1 -+ i n/kappa)/2.
    With S = T/u, phi(0) = S P and phi'(0) = S Q, P = g1 + g2 u^2,
    Q = kappa Qk, Qk = g2 u^2 - g1; matching to 1 + R and i n (1 - R) gives
    S = 2 i n / det, det = Q + i n P.  Only u^2 enters P and Q, so
    nothing overflows and an opaque barrier (u underflowing to 0) is fine.
    It uses only +, -, * and /, so it runs on phasetime._Pair columns too.
    """
    ir = 1j * n / kappa
    g1 = 0.5 * (1.0 - ir)
    g2 = 0.5 * (1.0 + ir)
    u2 = u * u
    g2u2 = g2 * u2
    P = g1 + g2u2
    Qk = g2u2 - g1
    det = kappa * Qk + 1j * n * P
    return g1, g2, u2, Qk, P, det


def match_boundaries(v: float, n2: float, wL: float) -> ScatteringSolution:
    """Solve the four continuity equations exactly at (v, n2, wL).

    The 4x4 system is reduced analytically: the interior pair is
    eliminated at x = L, leaving the 2x2 solve of :func:`_matched` for
    (R, T) in units of w.  The transmission is solved as S = T*exp(rho L)
    (an O(1) quantity) and rescaled at the end.  The basis follows the
    sign of rho_n^2 = kinematics.rho_n2(v, n2), and every coefficient is
    in units of w (see ScatteringSolution).  Raises the domain's
    DomainError outside it, and past the phase cutoff, where
    exp(-i q_n wL) is noise, the closed form's refusal of the phase, with
    the same text.
    """
    _in_domain(v=v, n2=n2, wL=wL)
    r2 = _rho_n2_columns(v, np.array([n2], dtype=float))[0].item()
    n = math.sqrt(n2)

    if r2 == 0.0:
        # interior a + b*xi, xi = w*x; per unit T: b = i n, a = 1 - i n wL
        nwL = n * wL
        T = 2.0 / (2.0 - 1j * nwL)
        R = -1j * nwL / (2.0 - 1j * nwL)
        return ScatteringSolution(R=R, T=T, alpha=(1.0 - 1j * nwL) * T,
                                  beta=1j * n * T, arg_T=cmath.phase(T))

    if _past_cutoff(_winding(r2, wL)):
        raise _refusal("phase", v, n2, wL, r2)
    # the principal root: rho_n where rho_n^2 > 0, else i q_n = i sqrt(-rho_n^2)
    kappa = cmath.sqrt(r2)
    u = cmath.exp(-kappa * wL)  # |u| <= 1 in both zones
    g1, g2, _, _, P, det = _matched(n, kappa, u)
    S = 2j * n / det
    T = S * u
    # u is real and positive in the evanescent zone, so arg T = arg S there
    arg_T = cmath.phase(S if r2 > 0.0 else T)
    return ScatteringSolution(R=S * P - 1.0, T=T, alpha=g1 * S, beta=g2 * S * u * u,
                              arg_T=arg_T)


# ---------------------------------------------------------------------------
# closed forms (checked against the matcher)
# ---------------------------------------------------------------------------

# Maclaurin coefficients of h(d2) = d(tanh(d)/d)/d(d2) = -1/3 + 4 d2/15 - ...,
# summed below _H_SERIES_CUT where (sech^2 - tanh(d)/d)/(2 d2) cancels
_H_SERIES = (-1.0 / 3.0, 4.0 / 15.0, -17.0 / 105.0, 248.0 / 2835.0, -1382.0 / 31185.0,
             43688.0 / 2027025.0, -929569.0 / 91216125.0)
_H_SERIES_CUT = 1e-2

# Even functions of d continue through d2 = rho_n^2 wL^2 < 0 (sinh into sin,
# tanh into tan) across the oscillatory zones.  Below SERIES_CUT in |d2| the
# Maclaurin series is exact to double precision and avoids 0/0 at rho_n = 0;
# past LARGE_D2 so are the exp(-d) asymptotes, which replace sinh before it
# overflows.
SERIES_CUT = 1e-6
LARGE_D2 = 350.0**2

# q_n wL is about winding*pi; past this winding it exceeds 3e15, where one
# ulp of it is 0.5 rad or more and the phase modulo pi is no longer resolved
_MAX_WINDING = 10 ** 15


def _past_cutoff(winding):
    """Where a winding count of _winding (array or scalar) is past the phase
    cutoff: the one test of it, for the core, the matcher and the oracle."""
    return winding > _MAX_WINDING


def _winding(r2, wL: float):
    """The winding floor(q_n wL/pi + 1/2) at every r2 = rho_n^2 of a float
    or a float64 array (a float64 scalar or array of integral values), with
    q_n wL = sqrt(-d2) from d2 = rho_n^2 wL^2 as _closed_forms forms it,
    and 0 where d2 >= 0.  The one winding count: the core's phase, the
    matcher's, the NR-prefactor form's and the oracle's cutoff, and
    _refusal's naming, all read it."""
    return np.floor(np.sqrt(np.maximum(-(r2 * wL * wL), 0.0)) / math.pi + 0.5)


def _phase_blind(winding, n2, r2):
    """Where |T| and t_phi/tau depend on the phase the cutoff leaves
    unresolved (arrays or scalars, like _past_cutoff).

    Past the cutoff (rho_n^2 < 0 there) X = A sin(q_n wL) is known only up
    to its amplitude A = (n2 + rho_n^2)/(2 n |rho_n|), and t_phi/tau only to
    about A^2, relative.  Where 1 + A^2 rounds to 1 (n2 far above the
    barrier), |T| = 1/hypot(1, X) = 1 and t_phi/tau are resolved at every
    phase and are kept; elsewhere past the cutoff both are refused.
    """
    far = _past_cutoff(winding)
    if not np.any(far):
        return far
    with np.errstate(all="ignore"):  # read only past the cutoff
        a = (n2 + r2) / (2.0 * np.sqrt(n2) * np.sqrt(-r2))
    return far & ~(np.abs(a) < 2.0 ** -27)


class _Columns(NamedTuple):
    """The closed forms at every n2 of a grid, one float64 array each.

    See _closed_forms.  winding holds integral values, X is nan on the
    LARGE_D2 asymptote, s = sqrt(1 + 2 n2 v)
    = E/m, and ratio is None unless it was asked for.
    """

    mag: np.ndarray
    phase: np.ndarray
    winding: np.ndarray
    X: np.ndarray
    r2: np.ndarray
    s: np.ndarray
    ratio: np.ndarray | None


def _map(f, x: np.ndarray) -> np.ndarray:
    """f, a math function of one argument, at every entry of x.

    Every transcendental of the closed forms comes from math (or cmath),
    mapped over plain lists: through here, or directly where it takes two
    arguments (hypot, rect).  None comes from numpy, whose SIMD exp, sin,
    tanh, atan and the like round differently from math in up to 14 % of
    samples and would move dataset bytes.
    """
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _squared(x: np.ndarray) -> np.ndarray:
    """x ** 2 at every entry, by pow as in float arithmetic (x * x rounds
    differently in about 1e-3 of samples)."""
    return np.fromiter(map(pow, x.tolist(), repeat(2.0)), float, x.size)


def _closed_forms(v: float, n2: np.ndarray, wL: float, *, ratio: bool = False,
                  columns: tuple[str, ...] = ()) -> _Columns:
    """The closed forms at every n2 of the float64 array n2, as columns.

    The one arithmetic path of the closed forms, a whole grid per call,
    for v, n2 and wL in the input domain (the callers check it).  numpy
    carries only +, -, *, / and sqrt, which round exactly like float
    arithmetic, in the operation order of the one-point formulas; the
    series, tanh, tan and LARGE_D2 branches are chosen per entry by
    masks, and every transcendental comes from math (_map).  So each
    entry is what the formulas give at that n2 alone, whatever the rest
    of the grid.  Overflow and invalid operations give +-inf and nan
    without a warning; a division by zero still warns.

    The columns: magnitude |T| = 1/hypot(1, X) with the real
    X = ((n2 + rho_n^2)/(2n)) wL sinhc(d2), nan on the LARGE_D2 asymptote
    where sinh overflows; the phase, winding, r2 = rho_n^2 and s from
    kinematics._rho_n2_columns, for callers that need them again.  The
    complex T and R are built from (magnitude, phase, X) by
    _amplitude_pair, only where they are wanted.  One phase expression
    serves all zones, phase = arctan(Y) + winding*pi with
    Y = ((n2 - rho_n^2)/(2n)) wL tc, tc = tanh(d)/d continued through
    rho_n^2 < 0 where tanh turns into tan and the branch count
    N = floor(q_n wL / pi + 1/2) restores continuity in n2.  On the
    LARGE_D2 asymptote tanh(d) = 1, so tc = 1/d.

    With ratio=True the ratio column is t_phi/tau, the chain-rule
    n2-derivative of that phase (see the phasetime module); otherwise
    None; on the LARGE_D2 asymptote its term in h = dtc/d(d2) = -tc/(2 d2)
    is formed as wL^2 h = -tc/(2 rho_n^2), which does not lose digits as
    wL grows.  Every entry the core cannot vouch for is nan, the one
    decision of each refused cell; the first among the named columns is
    raised as its _refusal.  At wL = 0 there is no barrier: |T| = 1 and
    the phase is 0 at every n2.
    """
    r2, s = _rho_n2_columns(v, n2)
    two_n = 2.0 * np.sqrt(n2)
    # tc = tanh(d)/d and sc = sinh(d)/d, continued in d2 (tan, sin for d2 < 0);
    # th = tanh(d) or tan(d) off the series, sc unused past LARGE_D2.  A
    # branch no entry takes is skipped (count_nonzero is the cheapest test).
    tc, sc, th, mag, X = np.empty((5,) + r2.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = r2 * wL * wL
        winding = _winding(r2, wL)
        series = np.abs(d2) < SERIES_CUT
        pos = d2 >= SERIES_CUT
        neg = d2 <= -SERIES_CUT
        large = d2 > LARGE_D2
        fin = ~large
        if np.count_nonzero(series):
            x = d2[series]
            tc[series] = 1.0 - x / 3.0 * (1.0 - 2.0 * x / 5.0)
            sc[series] = 1.0 + x / 6.0 * (1.0 + x / 20.0)
        if np.count_nonzero(pos):
            d = np.sqrt(d2[pos])
            th[pos] = t = _map(math.tanh, d)
            tc[pos] = t / d
            mid = pos & fin
            d = np.sqrt(d2[mid])
            sc[mid] = _map(math.sinh, d) / d
        if np.count_nonzero(neg):
            d = np.sqrt(-d2[neg])
            th[neg] = t = _map(math.tan, d)
            tc[neg] = t / d
            sc[neg] = _map(math.sin, d) / d
        Y = (n2 - r2) / two_n * wL * tc
        opaque = np.count_nonzero(large)
        if opaque:
            # sinh(d)^2 ~ exp(2d)/4; relative error exp(-2d), far below roundoff
            a, b = n2[large], r2[large]
            mag[large] = 4.0 * np.sqrt(a * b) * _map(math.exp, -np.sqrt(d2[large])) / (a + b)
            X[large] = math.nan
            X[fin] = (n2[fin] + r2[fin]) / two_n[fin] * wL * sc[fin]
        else:
            X = (n2 + r2) / two_n * wL * sc
        phase = _map(math.atan, Y) + winding * math.pi
        phase[_past_cutoff(winding)] = math.nan  # unresolved past the cutoff
        x = X[fin]
        mag[fin] = 1.0 / np.fromiter(map(math.hypot, repeat(1.0), x.tolist()), float, x.size)
        blind = _phase_blind(winding, n2, r2)
        mag[blind] = math.nan
        t_ratio = None
        if ratio:
            # h = d tc / d(d2); sech^2 turns into sec^2 = 1 + tan^2 for d2 < 0
            h = np.empty_like(r2)
            near = np.abs(d2) < _H_SERIES_CUT
            if np.count_nonzero(near):
                x, acc = d2[near], 0.0
                for c in reversed(_H_SERIES):
                    acc = acc * x + c
                h[near] = acc
            far = d2 >= _H_SERIES_CUT
            if np.count_nonzero(far):
                t = th[far]
                h[far] = ((1.0 - t) * (1.0 + t) - tc[far]) / (2.0 * d2[far])
            far = d2 <= -_H_SERIES_CUT
            if np.count_nonzero(far):
                t = th[far]
                h[far] = (1.0 + t * t - tc[far]) / (2.0 * d2[far])
            # u = n2 - rho_n^2 and P = 1/s - v/2 + 2 n2, both free of
            # cancellation at v = 2, n2 -> 0 and on the zone edges
            hv, pv, qv = 0.5 * v, 1.0 - 0.5 * v, 2.0 - v
            m2, s1 = 2.0 * n2, s + 1.0
            u = (4.0 * n2 * n2 + (hv - 1.0) * (hv + 1.0)) / (m2 + hv + s)
            P = pv + m2 * (qv + m2 * v * (s + 2.0) / s1) / (s * s1)
            u_rho = u * (v / s - 1.0)  # u rho', rho' = d rho_n^2/dn2
            t_ratio = (P * tc / m2 + u_rho * wL * wL * h) / (1.0 + Y * Y)
            if opaque:
                # tanh(d) = 1 on the asymptote, so h = -tc/(2 d2): wL^2 h is
                # formed as -tc/(2 rho_n^2), free of the roundings of wL^2 and d2
                y, k = Y[large], -tc[large] / (2.0 * r2[large])
                t_ratio[large] = ((P[large] * tc[large] / m2[large] + u_rho[large] * k)
                                  / (1.0 + y * y))
            # tau = 0 at wL = 0; blind: unresolved past the cutoff
            t_ratio[~np.isfinite(t_ratio) | (wL == 0.0) | blind] = math.nan
    cols = _Columns(mag, phase, winding, X, r2, s, t_ratio)
    for column in columns:
        for i in np.flatnonzero(np.isnan(getattr(cols, column)))[:1].tolist():
            raise _refusal(column, v, n2[i].item(), wL, r2[i])
    return cols


def _refusal(column: str, v: float, n2: float, wL: float, r2: float = 0.0) -> KleinTunnelError:
    """The error naming why a cell of column is nan at (v, n2, wL), given the
    entry's r2 = rho_n^2 (unread at wL = 0), whose winding it counts itself:
    the one namer of every refused cell.  column is "mag", "phase" or
    "ratio" for _closed_forms, "nr" for _nr_form_from_r2 and "numeric" for
    the oracle (phasetime._phase_time_columns), which also refuses a zone
    edge by kinematics._edges and every cell past the phase cutoff."""
    noun = {"mag": "|T|", "phase": "the phase", "ratio": "t_phi/tau", "nr": "the NR-prefactor |T|",
            "numeric": "t_phi/tau"}
    at = f"at v={v}, n2={n2}, wL={wL}"
    if column == "numeric" and any(_edges(v, n2)):
        return ZoneCrossingError(f"n2={n2} lies on a zone edge")
    if column in ("ratio", "numeric") and wL == 0.0:
        return ZeroLengthError("wL=0: tau=0 and t_phi/tau is undefined")
    winding = _winding(r2, wL)
    if _past_cutoff(winding) and (column in ("phase", "numeric")
                                  or _phase_blind(winding, n2, r2)):
        return DomainError(f"q_n*wL is too large to resolve the phase modulo pi {at}")
    return DomainError(f"{noun[column]} is not finite {at}")


def _amplitude_pair(mag: float, phase: float, X: float) -> tuple[complex, complex]:
    """(T, R) from one _closed_forms entry: T = rect(mag, phase), R = -i X T.

    On the LARGE_D2 asymptote (X nan, where X > 0) R = -i rect(1, phase):
    |R| = 1 to double precision there.
    """
    T = cmath.rect(mag, phase)
    if math.isnan(X):
        return T, -1j * cmath.rect(1.0, phase)
    return T, -1j * X * T


def transmission_closed_form(v: float, n2: float, wL: float) -> TransmissionPoint:
    """Closed-form T, R, |T| and unwrapped phase at (v, n2, wL), any zone and edge.

    magnitude = 1/hypot(1, X) with the real
    X = ((n2+rho_n^2)/(2n)) wL sinhc(d2), d2 = rho_n^2 wL^2, which is 1 at
    the oscillatory resonances and [1 + (kL/2)^2]^(-1/2) at rho_n = 0;
    the phase is unwrapped to be continuous in n2 (winding counts the pi
    steps added), T = rect(magnitude, phase) and R = -i X T.
    The prefactor (n2+rho_n^2)^2 is required for agreement with
    match_boundaries (the Wronskian-conserving solution); see
    transmission_magnitude_nr_form for the variant without it.  At v = 0
    (rho_n^2 = 1 - n2, n2 = E_NR/V0) this is the Schroedinger barrier.
    Raises the domain's DomainError outside it, and the core's refusal of
    the magnitude or the phase (_refusal).
    """
    _in_domain(v=v, n2=n2, wL=wL)
    point = _closed_forms(v, np.array([n2], dtype=float), wL, columns=("mag", "phase"))
    mag, phase = point.mag.item(), point.phase.item()
    T, R = _amplitude_pair(mag, phase, point.X.item())
    return TransmissionPoint(magnitude=mag, phase=phase, probability=mag * mag,
                             T=T, R=R, winding=int(point.winding.item()))


# the zones transmission_magnitude_nr_form is defined in (and the sweep's
# T2_nr_form rows)
_NR_ZONES = (Zone.TUNNELING, Zone.EDGE_LOWER, Zone.EDGE_UPPER)


def transmission_magnitude_nr_form(v: float, n2: float, wL: float) -> float:
    """|T| with the non-relativistic prefactor 1/(4 n2 rho_n^2) at (v, n2, wL).

    For Schroedinger kinematics k^2 + rho^2 = w^2 makes this identical to
    the exact form; with the relativistic dispersion it overestimates the
    transmission (e.g. 0.463 instead of 0.103 at v=10, n2=5, wL=2pi).
    Provided solely so the discrepancy can be quantified.  Defined in the
    tunneling zone and on both edges, where rho_n = 0 gives the limit
    [1 + wL^2/(4 n2)]^(-1/2); raises ZoneError in the oscillatory zones
    and _refusal where the result is not finite or, on a snapped edge
    where rho_n^2 rounds below 0, past the phase cutoff; the domain's
    DomainError outside it.
    """
    _in_domain(v=v, n2=n2, wL=wL)
    n2s = np.array([n2], dtype=float)
    r2 = _rho_n2_columns(v, n2s)[0]
    zone = _zone(v, n2)
    if zone not in _NR_ZONES:
        raise ZoneError(
            f"transmission_magnitude_nr_form needs the tunneling zone or an edge, got {zone}")
    mag = _nr_form_from_r2(n2s, r2, wL).item()
    if math.isnan(mag):
        raise _refusal("nr", v, n2, wL, r2.item())
    return mag


def _nr_form_from_r2(n2: np.ndarray, r2: np.ndarray, wL: float) -> np.ndarray:
    """transmission_magnitude_nr_form at every (n2, rho_n^2 = r2) of two
    float64 arrays, with no zone check; as in _closed_forms, numpy does
    the arithmetic and math the transcendentals.  Where the prefactor's
    product with sinh^2 overflows (a tiny n2 and a wide barrier),
    1/sqrt(1 + c sinh^2) is formed as 2 sqrt(n2) sqrt(|rho_n^2|) over
    sqrt(|4 n2 rho_n^2 + sinh^2|) instead, so |T| does not drop to 0.
    Where rho_n^2 rounds below 0, an entry past the phase cutoff is nan."""
    out = np.empty_like(r2)
    edge = r2 == 0.0
    out[edge] = 1.0 / np.sqrt(1.0 + wL * wL / (4.0 * n2[edge]))
    n2, r2 = n2[~edge], r2[~edge]
    with np.errstate(over="ignore", invalid="ignore"):
        c = 1.0 / (4.0 * n2 * r2)
        d2 = r2 * wL * wL
        large = d2 > LARGE_D2
        # sinh(d)^2 continued in d2: -sin(t)^2 for d2 = -t^2 < 0 (a snapped
        # edge can round rho_n^2 to a tiny negative value)
        s2 = np.empty_like(d2)
        series = np.abs(d2) < SERIES_CUT
        x = d2[series]
        s2[series] = x * (1.0 + x / 3.0 * (1.0 + 2.0 * x / 15.0))
        pos = (d2 >= SERIES_CUT) & ~large
        s2[pos] = _squared(_map(math.sinh, np.sqrt(d2[pos])))
        neg = d2 <= -SERIES_CUT
        d = np.sqrt(-d2[neg])
        # sin(d) is noise past the cutoff
        d[_past_cutoff(_winding(r2[neg], wL))] = math.nan
        s2[neg] = -_squared(_map(math.sin, d))
        mag = np.empty_like(d2)
        # sinh^2 ~ exp(2d)/4; relative error exp(-2d), far below roundoff
        mag[large] = 2.0 * _map(math.exp, -np.sqrt(d2[large])) / np.sqrt(c[large])
        fin = ~large
        cs2 = c[fin] * s2[fin]
        mag[fin] = 1.0 / np.sqrt(1.0 + cs2)
        over = np.zeros_like(large)
        over[fin] = np.isinf(cs2)
        if over.any():
            # 1 + c s2 = c (4 n2 rho_n^2 + s2), and 1/sqrt(c) = 2 sqrt(n2) sqrt(|rho_n^2|)
            n2, r2 = n2[over], r2[over]
            mag[over] = (2.0 * np.sqrt(n2) * np.sqrt(np.abs(r2))
                         / np.sqrt(np.abs(4.0 * n2 * r2 + s2[over])))
    out[~edge] = mag
    return out
