"""Transmitted wave packet at x = L, its arrival time and spectral distortion.

A positive-energy packet with a symmetric momentum amplitude g(k - k0)
(Gaussian here, truncated at support_halfwidth sigmas) impinges on the
barrier so its free peak would reach x = 0 at t = 0.  The transmitted
field at the barrier's exit x = L is

    psi_T(L, t) = integral g(k-k0) T(k) exp(-i E(k) t) dk,

with T(k) taken per node from the closed form, which holds in every zone
and on both edges, so spectra may span several energy zones, and
E(k) = +sqrt(k^2 + m^2) (negative-energy components excluded by
construction).  The integral is done with a nested composite Simpson
rule whose step is halved until the reported intensities move by less
than a relative tolerance; each level keeps the previous level's nodes,
so every node is evaluated once.  The field is sampled on a uniform time
grid, whose phase factors exp(-i E t) come from two tables of running
products, three complex exponentials per node.  Each ladder level costs
one phase-sum call over all of its new nodes at once, and one call of
the closed-form core; the base grid and the first two levels, which
every field needs, share one core call over their 129 nodes.

The peak arrival time at x = L is compared against the closed-form
stationary-phase prediction t_phi(k0), defined on the zone edges too;
the distortion metrics quantify how much the barrier filters the
spectrum (transmitted norm, L2 shape distance of the renormalized
transmitted spectrum, centroid shift toward high k).  They are formed on
the same node ladder from the field's T, so they call the closed form
only at nodes finer than the field's final level.  run_packet is the one
entry point for all three.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClippedWindowError,
    DomainError,
    NoPeakError,
    QuadratureError,
    SupportError,
)
from .kinematics import BarrierSetup, IncidentMode
from .phasetime import classical_tau, normalized_phase_time
from .scattering import _closed_forms, _squared

_BASE_INTERVALS = 64
_MAX_LEVELS = 12
_BLOCK = 64
_FIELD_TOL = 1e-8  # the field's relative intensity tolerance
_METRICS_TOL = 1e-10  # the distortion metrics' tolerance
# The largest x whose square x ** 2 is finite (pow raises OverflowError past it)
_SQRT_MAX = math.sqrt(sys.float_info.max)
# Past 2**53 a double is not resolved to 1, so a phase t*E beyond it is noise
_PHASE_MAX = 2.0 ** 53


@dataclass(frozen=True)
class SpectrumSpec:
    """Gaussian momentum amplitude centered at k0 with width sigma_k.

    amplitude(k) = exp(-(k-k0)^2 / (2 sigma_k^2)), truncated to
    |k - k0| <= support_halfwidth * sigma_k.  The support must stay at
    positive momenta (positive-energy packet), else SupportError.
    """

    k0: float
    sigma_k: float
    support_halfwidth: float = 6.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.k0):
            raise DomainError(f"k0 must be finite, got {self.k0}")
        if not (self.sigma_k > 0.0 and math.isfinite(self.sigma_k)):
            raise DomainError(f"sigma_k must be positive and finite, got {self.sigma_k}")
        if not (self.support_halfwidth > 0.0 and math.isfinite(self.support_halfwidth)):
            raise DomainError(
                f"support_halfwidth must be positive and finite, got {self.support_halfwidth}")
        if not (self.k0 - self.support_halfwidth * self.sigma_k > 0.0):
            raise SupportError(
                f"spectrum support reaches k <= 0 "
                f"(k0={self.k0}, halfwidth={self.support_halfwidth * self.sigma_k})")

    @property
    def support(self) -> tuple[float, float]:
        half = self.support_halfwidth * self.sigma_k
        return (self.k0 - half, self.k0 + half)

    def amplitude(self, k):
        """g(k - k0); accepts scalars or arrays."""
        u = (np.asarray(k, dtype=float) - self.k0) / self.sigma_k
        return np.exp(-0.5 * u * u)


@dataclass(frozen=True)
class ArrivalEstimate:
    """Measured vs predicted peak arrival at x = L.

    t_peak is the parabolic-refined argmax of the intensity samples,
    t_predicted the stationary-phase time t_phi(k0), and relative_gap
    |t_peak - t_predicted| / max(|t_predicted|, tau(k0)).  clipped is
    always False: a clipped window raises ClippedWindowError instead.
    """

    t_peak: float
    t_predicted: float
    relative_gap: float
    clipped: bool = False


@dataclass(frozen=True)
class QuadratureReport:
    """How a step-halved Simpson ladder on the k support converged.

    levels = Simpson levels formed (level l has 64 * 2**(l-1) intervals);
    nodes = the size of the final grid (final intervals + 1); the field
    and the metrics share their nodes, so each node is evaluated once
    across both;
    change = the final level-to-level change relative to its scale, the
    number compared against the tolerance (for the field the largest
    intensity change over the peak intensity, against _FIELD_TOL; for the
    metrics the largest of the three metric changes over their scales,
    against _METRICS_TOL).
    """

    levels: int
    nodes: int
    change: float


@dataclass(frozen=True)
class DistortionMetrics:
    """Filter-effect metrics of the transmitted spectrum.

    transmitted_norm = int |T g|^2 / int |g|^2 in [0, 1];
    shape_distance = L2 distance between the unit-normalized |T(k)| g
    and g in [0, sqrt(2)]; mean_k_shift = centroid(|T g|^2) -
    centroid(|g|^2) (> 0 when the high-k tail passes preferentially);
    quadrature says how they converged.
    """

    transmitted_norm: float
    shape_distance: float
    mean_k_shift: float
    quadrature: QuadratureReport


@dataclass(frozen=True, eq=False)
class PacketRun:
    """One transmitted-packet experiment at x = L."""

    setup: BarrierSetup
    spectrum: SpectrumSpec
    time_window: tuple[float, float]
    times: np.ndarray = field(repr=False)
    intensities: np.ndarray = field(repr=False)
    arrival: ArrivalEstimate
    distortion: DistortionMetrics
    field_quadrature: QuadratureReport


# ---------------------------------------------------------------------------
# quadrature core
# ---------------------------------------------------------------------------

def _simpson_weights(nodes: np.ndarray) -> np.ndarray:
    n = len(nodes) - 1  # even by construction
    h = (nodes[-1] - nodes[0]) / n
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def _simpson_levels(spectrum: SpectrumSpec):
    """(nodes, weights, g) on the k support, halving the step each level."""
    lo, hi = spectrum.support
    n = _BASE_INTERVALS
    for _ in range(_MAX_LEVELS):
        ks = np.linspace(lo, hi, n + 1)
        yield ks, _simpson_weights(ks), spectrum.amplitude(ks)
        n *= 2


def _amplitudes(setup: BarrierSetup, ks: np.ndarray) -> np.ndarray:
    """Closed-form T at the nodes ks, in one closed-form call that raises its
    refusal of any node's |T| or phase."""
    cols = _closed_forms(setup.v, _squared(ks / setup.w), setup.wL, columns=("mag", "phase"))
    return np.fromiter(map(cmath.rect, cols.mag.tolist(), cols.phase.tolist()), complex, len(ks))


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Values on the level-2n nodes from level n's (even nodes) and the new odd ones."""
    full = np.empty(len(even) + len(odd), dtype=even.dtype)
    full[::2] = even
    full[1::2] = odd
    return full


def _integrand(setup: BarrierSetup, spectrum: SpectrumSpec,
               ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, g T, T) at the nodes ks, with psi_T(L, t) = integral g T exp(-i E t) dk."""
    g = spectrum.amplitude(ks)
    T = _amplitudes(setup, ks)
    return np.sqrt(ks * ks + setup.m * setup.m), g * T, T


def _powers(first, ratio: np.ndarray, count: int) -> np.ndarray:
    """The count x N table first * ratio**r (r < count) by running products:
    each pass doubles the rows, rows [k, 2k) being rows [0, k) times
    ratio**k (a repeated square), so row r carries about r roundings."""
    rows = np.empty((count, len(ratio)), dtype=complex)
    rows[0] = first
    k, step = 1, ratio
    while k < count:
        np.multiply(rows[:min(k, count - k)], step, out=rows[k:2 * k])
        k, step = 2 * k, step * step
    return rows


def _phase_sums(E: np.ndarray, c: np.ndarray, t0: float, dt: float, count: int) -> np.ndarray:
    """sum_k c_k exp(-i t_j E_k) at t_j = t0 + j dt (j < count).

    The times fall into blocks of B = min(_BLOCK, count): t_j = t_b + r dt
    with r < B.  One B x N table exp(-i r dt E) serves every block, and
    block b's seed is exp(-i t0 E) exp(-i b B dt E) c; both tables are
    running products (_powers) of exp(-i dt E) and exp(-i B dt E), so
    three exponentials per node replace count, and the sums are one
    matrix product.  The chained roundings move the sums from a direct sum
    by about 1e-14 of their peak.
    """
    rows = min(_BLOCK, count)
    blocks = -(-count // rows)
    table = _powers(1.0, np.exp(-1j * dt * E), rows)
    seeds = _powers(np.exp(-1j * t0 * E) * c, np.exp(-1j * (rows * dt) * E), blocks)
    return (seeds @ table.T).reshape(-1)[:count]


def _field_on_times(setup: BarrierSetup, spectrum: SpectrumSpec, t0: float, dt: float,
                    count: int) -> tuple[np.ndarray, QuadratureReport, np.ndarray]:
    """(psi, report, T): psi_T(L, t_j) on the uniform grid t_j = t0 + j dt (j < count),
    with T at every node of the final level, in natural node order.

    Nested Simpson ladder on the k support: level l has 64 * 2**(l-1)
    intervals and keeps every node of level l - 1, so the closed form, g
    and the phase sums are evaluated once per node, at the new odd nodes
    only.  With P_n the running trapezoid sum (end nodes halved, step not
    applied) the Simpson value is S_2n = (4 T_2n - T_n) / 3 =
    (h_2n / 3) (4 P_2n - 2 P_n).  The time dependence comes from the
    block phase table of _phase_sums, one call per level.

    Convergence: successive levels change no reported intensity by more
    than _FIELD_TOL relative to the window's peak intensity (with an absolute
    floor at roundoff of the integrand scale, 1e-14 (Simpson-weighted
    sum |c|)^2), within _MAX_LEVELS levels, else QuadratureError.
    """
    lo, hi = spectrum.support
    n = _BASE_INTERVALS // 2
    # the first convergence test comes at level 2, so the base grid and the
    # new nodes of levels 1 and 2 are always needed: one integrand call (one
    # closed-form call) covers their 129 nodes, read per level by stride
    E_first, c_first, T = _integrand(setup, spectrum, np.linspace(lo, hi, 4 * n + 1))
    c_first[0] *= 0.5  # the base's end nodes
    c_first[-1] *= 0.5
    strides = {1: slice(2, None, 4), 2: slice(1, None, 2)}
    P = _phase_sums(E_first[::4], c_first[::4], t0, dt, count)
    Q = float(np.sum(np.abs(c_first[::4])))  # the same running sum of |c|, for the floor
    prev_I = None
    for level in range(1, _MAX_LEVELS + 1):
        n *= 2
        if level in strides:
            E, c_new = E_first[strides[level]], c_first[strides[level]]
        else:
            E, c_new, T_odd = _integrand(setup, spectrum, np.linspace(lo, hi, n + 1)[1::2])
            T = _interleave(T, T_odd)
        P2 = P + _phase_sums(E, c_new, t0, dt, count)
        Q2 = Q + float(np.sum(np.abs(c_new)))
        h3 = (hi - lo) / n / 3.0
        psi = h3 * (4.0 * P2 - 2.0 * P)
        scale = (h3 * (4.0 * Q2 - 2.0 * Q)) ** 2
        P, Q = P2, Q2
        I = np.abs(psi) ** 2
        if prev_I is not None:
            err = float(np.max(np.abs(I - prev_I)))
            peak = float(I.max())
            if err <= _FIELD_TOL * peak + 1e-14 * scale:
                return psi, QuadratureReport(levels=level, nodes=n + 1,
                                             change=err / peak if peak > 0.0 else err), T
        prev_I = I
    raise QuadratureError(
        f"intensity did not converge to {_FIELD_TOL} within {_MAX_LEVELS} halvings")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _estimate_arrival(times: np.ndarray, intensities: np.ndarray,
                      t_predicted: float, tau: float) -> ArrivalEstimate:
    """Peak arrival from sampled intensity, 3-point parabolic refinement.

    Raises NoPeakError if the intensity is monotone over the window and
    ClippedWindowError if the argmax sits on the window boundary.
    """
    times = np.asarray(times, dtype=float)
    I = np.asarray(intensities, dtype=float)
    j = int(np.argmax(I))
    d = np.diff(I)
    if np.all(d >= 0.0) or np.all(d <= 0.0):
        raise NoPeakError("intensity is monotone over the window")
    if j == 0 or j == len(I) - 1:
        raise ClippedWindowError("intensity argmax sits on the window boundary")
    denom = I[j - 1] - 2.0 * I[j] + I[j + 1]
    dt = times[1] - times[0]
    t_peak = times[j]
    if denom != 0.0:
        t_peak += 0.5 * dt * (I[j - 1] - I[j + 1]) / denom
    gap = abs(t_peak - t_predicted) / max(abs(t_predicted), abs(tau), 1e-300)
    return ArrivalEstimate(t_peak=float(t_peak), t_predicted=t_predicted,
                           relative_gap=float(gap))


def _distortion(setup: BarrierSetup, spectrum: SpectrumSpec,
                T: np.ndarray) -> DistortionMetrics:
    """Filter-effect metrics on the step-halved Simpson ladder, converged to
    _METRICS_TOL, reading |T| from the field's ladder.

    T is T at every node of one ladder level (the field's final level), in
    natural node order.  A level it covers takes |T| from it at a stride;
    past it, each level keeps the previous level's |T| at its even nodes
    and calls the closed form only at the new odd nodes.  The nodes nest
    bitwise, so the metrics do not depend on where |T| came from.
    """
    prev = None
    absT = np.abs(T)
    for level, (ks, wts, g) in enumerate(_simpson_levels(spectrum), start=1):
        if len(absT) < len(ks):
            absT = _interleave(absT, np.abs(_amplitudes(setup, ks[1::2])))
        tg = absT[::(len(absT) - 1) // (len(ks) - 1)] * g
        norm_g2 = float(np.sum(wts * g * g))
        norm_tg2 = float(np.sum(wts * tg * tg))
        if norm_tg2 < sys.float_info.min:
            raise DomainError(f"the transmitted norm integral |T g|^2 = {norm_tg2} "
                              f"leaves the normal range at level {level}")
        u = tg / math.sqrt(norm_tg2)
        ref = g / math.sqrt(norm_g2)
        vals = (norm_tg2 / norm_g2,
                math.sqrt(max(0.0, float(np.sum(wts * (u - ref) ** 2)))),
                float(np.sum(wts * ks * tg * tg)) / norm_tg2
                - float(np.sum(wts * ks * g * g)) / norm_g2)
        if prev is not None:
            diffs = [abs(a - b) for a, b in zip(vals, prev)]
            scales = (max(1.0, abs(vals[0])), 2.0, max(spectrum.sigma_k, abs(vals[2])))
            if all(d <= _METRICS_TOL * sc for d, sc in zip(diffs, scales)):
                return DistortionMetrics(*vals, quadrature=QuadratureReport(
                    levels=level, nodes=len(ks),
                    change=max(d / sc for d, sc in zip(diffs, scales))))
        prev = vals
    raise QuadratureError(f"distortion metrics did not converge to {_METRICS_TOL}")


def run_packet(setup: BarrierSetup, spectrum: SpectrumSpec,
               n_times: int = 2001) -> PacketRun:
    """Full experiment: synthesize at x = L, locate the peak, measure distortion.

    The stationary-phase prediction is t_phi(k0) = normalized_phase_time *
    classical_tau at k0, from the closed-form ratio, which is defined in
    every zone and on both edges (both times are 0 at L = 0, where the
    ratio is refused); the search window is [-5, +5] * max(tau, |t_phi|)
    around it (falling back to the packet's own temporal width 6/sigma_k
    when both vanish at L = 0), sampled at n_times >= 3 uniform times.

    Raises DomainError, before any quadrature, where the top of the
    support overflows n2 = (k/w)^2 or E = sqrt(k^2 + m^2) (every node
    lies below it), and where a phase t*E over the window exceeds 2**53,
    where doubles no longer resolve it.
    """
    if (isinstance(n_times, bool) or not isinstance(n_times, numbers.Integral)
            or n_times < 3):
        raise DomainError(f"n_times must be an integer >= 3, got {n_times!r}")
    m, w, k0, k_top = setup.m, setup.w, spectrum.k0, spectrum.support[1]
    E_top = math.sqrt(k_top * k_top + m * m)
    if k_top / w > _SQRT_MAX or math.isinf(E_top):
        raise DomainError(f"n2 = (k/w)^2 or E = sqrt(k^2 + m^2) overflows at the top of "
                          f"the support, k={k_top}, w={w}, m={m}")
    if setup.L == 0.0:  # no barrier: t_phi = tau = 0, and t_phi/tau is undefined
        tau = t_pred = 0.0
    else:
        n2 = (k0 / w) ** 2
        tau = classical_tau(setup, IncidentMode(E=math.sqrt(k0 * k0 + m * m), k=k0, n2=n2))
        t_pred = normalized_phase_time(setup.v, n2, setup.wL) * tau
    half = 5.0 * max(tau, abs(t_pred))
    if half == 0.0:
        half = 6.0 / spectrum.sigma_k
    window = (t_pred - half, t_pred + half)
    if not (abs(t_pred) + half) * E_top < _PHASE_MAX:
        raise DomainError(f"the phase t*E over the window {window} reaches "
                          f"{(abs(t_pred) + half) * E_top:.3g}, past 2**53")
    times, dt = np.linspace(window[0], window[1], n_times, retstep=True)
    psi, field_quadrature, T = _field_on_times(setup, spectrum, window[0], dt, n_times)
    intensities = np.abs(psi) ** 2
    tau_ref = tau if tau > 0.0 else half / 5.0
    arrival = _estimate_arrival(times, intensities, t_pred, tau_ref)
    metrics = _distortion(setup, spectrum, T)
    return PacketRun(setup=setup, spectrum=spectrum, time_window=window,
                     times=times, intensities=intensities,
                     arrival=arrival, distortion=metrics,
                     field_quadrature=field_quadrature)
