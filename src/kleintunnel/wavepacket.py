"""Wave-packet synthesis, arrival-time measurement and spectral distortion.

A positive-energy packet with a symmetric momentum amplitude g(k - k0)
(Gaussian here, truncated at support_halfwidth sigmas) impinges on the
barrier so its free peak would reach x = 0 at t = 0.  The transmitted
field at x >= L is

    psi_T(x, t) = integral g(k-k0) T(k) exp(i[k(x-L) - E(k) t]) dk,

with T(k) taken per node from the closed form, which holds in every zone
and on both edges, so spectra may span several energy zones, and
E(k) = +sqrt(k^2 + m^2) (negative-energy components excluded by
construction).  The integral is done with a nested composite Simpson
rule whose step is halved until the reported intensities move by less
than a relative tolerance; each level keeps the previous level's nodes,
so every node is evaluated once.  The field is sampled on a uniform time
grid, whose phase factors exp(-i E t) come from one block phase table.
Each ladder level costs one call of the closed-form core, over all of
its new nodes at once; the base grid and the first two levels, which
every field needs, share one call.

The peak arrival time at x = L is compared against the closed-form
stationary-phase prediction t_phi(k0), defined on the zone edges too;
the distortion metrics quantify how much the barrier filters the
spectrum (transmitted norm, L2 shape distance of the renormalized
transmitted spectrum, centroid shift toward high k).  They are formed on
the same node ladder; run_packet hands them the field's T, so they call
the closed form only at nodes finer than the field's final level.
"""

from __future__ import annotations

import cmath
import math
import numbers
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
from .phasetime import phase_time_closed_form
from .scattering import _amplitude_pair, _closed_forms, _squared

_BASE_INTERVALS = 64
_MAX_LEVELS = 12
_BLOCK = 64
_METRICS_TOL = 1e-10  # distortion's tolerance, also under run_packet


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
    |t_peak - t_predicted| / max(|t_predicted|, tau(k0)).
    """

    t_peak: float
    t_predicted: float
    relative_gap: float
    clipped: bool = False


@dataclass(frozen=True)
class QuadratureReport:
    """How a step-halved Simpson ladder on the k support converged.

    levels = Simpson levels formed (level l has 64 * 2**(l-1) intervals);
    nodes = the size of the final grid (final intervals + 1); under
    run_packet the field and the metrics share their nodes, so each node
    is evaluated once across both;
    change = the final level-to-level change relative to its scale, the
    number compared against tol (for the field the largest intensity
    change over the peak intensity, for distortion the largest of the
    three metric changes over their scales).
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

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.times.tolist(), self.intensities.tolist()))


# ---------------------------------------------------------------------------
# quadrature core
# ---------------------------------------------------------------------------

def _check_tol(tol: float) -> None:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


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


def _amplitudes(setup: BarrierSetup, ks: np.ndarray, reflected: bool = False) -> np.ndarray:
    """Closed-form T (R if reflected) at the nodes ks, in one closed-form call."""
    cols = _closed_forms(setup.v, _squared(ks / setup.w), setup.wL)
    mag, phase = cols.mag.tolist(), cols.phase.tolist()
    if reflected:
        return np.array([_amplitude_pair(m, p, X)[1]
                         for m, p, X in zip(mag, phase, cols.X.tolist())], dtype=complex)
    return np.array(list(map(cmath.rect, mag, phase)), dtype=complex)


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Values on the level-2n nodes from level n's (even nodes) and the new odd ones."""
    full = np.empty(len(even) + len(odd), dtype=even.dtype)
    full[::2] = even
    full[1::2] = odd
    return full


def _integrand(setup: BarrierSetup, spectrum: SpectrumSpec, x: float, kind: str,
               ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(E, c, a) at the nodes ks, with psi(x, t) = integral c(k) exp(-i E(k) t) dk.

    a is the barrier amplitude inside c: T, R, or None for the free packet.
    """
    g = spectrum.amplitude(ks)
    if kind == "transmitted":
        a = _amplitudes(setup, ks)
        c = g * a * np.exp(1j * ks * (x - setup.L))
    elif kind == "incident":
        a = None
        c = g * np.exp(1j * ks * x)
    elif kind == "reflected":
        a = _amplitudes(setup, ks, reflected=True)
        c = g * a * np.exp(-1j * ks * x)
    else:  # pragma: no cover
        raise ValueError(kind)
    return np.sqrt(ks * ks + setup.m * setup.m), c, a


def _phase_rows(step: float, count: int, E: np.ndarray) -> np.ndarray:
    """The count x N table exp(-i r step E) for r < count.

    With m = ceil(sqrt(count)) and r = a m + b, each row is the product of
    exp(-i a m step E) and exp(-i b step E), so two tables of about m rows
    take 2 m N exponentials instead of count N.
    """
    m = math.isqrt(count - 1) + 1
    fine = np.exp(-1j * np.outer(step * np.arange(m), E))
    coarse = np.exp(-1j * np.outer((m * step) * np.arange(-(-count // m)), E))
    return (coarse[:, None, :] * fine[None, :, :]).reshape(-1, len(E))[:count]


def _phase_sums(E: np.ndarray, c: np.ndarray, t0: float, dt: float,
                count: int) -> np.ndarray:
    """sum_k c_k exp(-i t_j E_k) at t_j = t0 + j dt for j < count.

    The times fall into blocks of B = min(_BLOCK, count): t_j = t_b + r dt
    with r < B.  One B x N table exp(-i r dt E) serves every block, and
    block b's seed is exp(-i t0 E) exp(-i b B dt E); both tables come from
    _phase_rows, so about 2 (sqrt(B) + sqrt(blocks)) N + N exponentials
    replace count N, and the sum is one matrix product.
    """
    rows = min(_BLOCK, count)
    blocks = -(-count // rows)
    table = _phase_rows(dt, rows, E)
    seeds = np.exp(-1j * t0 * E) * _phase_rows(rows * dt, blocks, E)
    return ((seeds * c) @ table.T).reshape(-1)[:count]


def _field_on_times(setup: BarrierSetup, spectrum: SpectrumSpec, x: float,
                    t0: float, dt: float, count: int, kind: str, tol: float
                    ) -> tuple[np.ndarray, QuadratureReport, np.ndarray | None]:
    """(psi, report, a): psi(x, t_j) on the uniform grid t_j = t0 + j dt (j < count).

    a is the barrier amplitude (T, R, or None for the free packet) at
    every node of the final level, in natural node order.

    Nested Simpson ladder on the k support: level l has 64 * 2**(l-1)
    intervals and keeps every node of level l - 1, so the closed form, g
    and the phase sums are evaluated once per node, at the new odd nodes
    only.  With P_n the running trapezoid sum (end nodes halved, step not
    applied) the Simpson value is S_2n = (4 T_2n - T_n) / 3 =
    (h_2n / 3) (4 P_2n - 2 P_n).  The time dependence comes from the
    block phase table of _phase_sums.

    Convergence: successive levels change no reported intensity by more
    than tol relative to the window's peak intensity (with an absolute
    floor at roundoff of the integrand scale, 1e-14 (Simpson-weighted
    sum |c|)^2), within _MAX_LEVELS levels, else QuadratureError.
    """
    _check_tol(tol)
    lo, hi = spectrum.support
    n = _BASE_INTERVALS // 2
    # the first convergence test comes at level 2, so the base grid and the
    # new nodes of levels 1 and 2 are always needed: one integrand call (one
    # closed-form call) covers them, and each level takes its slice
    E2, c2, a = _integrand(setup, spectrum, x, kind, np.linspace(lo, hi, 4 * n + 1))
    E, c = E2[::4], c2[::4].copy()
    c[0] *= 0.5
    c[-1] *= 0.5
    P = _phase_sums(E, c, t0, dt, count)
    Q = float(np.sum(np.abs(c)))  # the same running sum of |c|, for the floor
    prev_I = None
    for level in range(1, _MAX_LEVELS + 1):
        n *= 2
        if level <= 2:
            new = slice(2, None, 4) if level == 1 else slice(1, None, 2)
            E, c = E2[new], c2[new]
        else:
            E, c, a_odd = _integrand(setup, spectrum, x, kind,
                                     np.linspace(lo, hi, n + 1)[1::2])
            if a is not None:
                a = _interleave(a, a_odd)
        P2 = P + _phase_sums(E, c, t0, dt, count)
        Q2 = Q + float(np.sum(np.abs(c)))
        h3 = (hi - lo) / n / 3.0
        psi = h3 * (4.0 * P2 - 2.0 * P)
        scale = (h3 * (4.0 * Q2 - 2.0 * Q)) ** 2
        P, Q = P2, Q2
        I = np.abs(psi) ** 2
        if prev_I is not None:
            err = float(np.max(np.abs(I - prev_I)))
            peak = float(I.max())
            if err <= tol * peak + 1e-14 * scale:
                return psi, QuadratureReport(levels=level, nodes=n + 1,
                                             change=err / peak if peak > 0.0 else err), a
        prev_I = I
    raise QuadratureError(
        f"intensity did not converge to {tol} within {_MAX_LEVELS} halvings")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def synthesize_transmitted(setup: BarrierSetup, spectrum: SpectrumSpec,
                           x: float, t: float, tol: float = 1e-8) -> complex:
    """Transmitted amplitude psi_T(x, t) for x >= L."""
    if x < setup.L:
        raise DomainError(f"transmitted field is defined for x >= L, got x={x}")
    return complex(_field_on_times(setup, spectrum, x, t, 0.0, 1, "transmitted", tol)[0][0])


def synthesize_incident(setup: BarrierSetup, spectrum: SpectrumSpec,
                        x: float, t: float, tol: float = 1e-8) -> complex:
    """Free reference packet psi_I(x, t) (same spectrum, T = 1, phase kx)."""
    return complex(_field_on_times(setup, spectrum, x, t, 0.0, 1, "incident", tol)[0][0])


def synthesize_reflected(setup: BarrierSetup, spectrum: SpectrumSpec,
                         x: float, t: float, tol: float = 1e-8) -> complex:
    """Reflected amplitude psi_R(x, t) for x <= 0 (exposed for completeness)."""
    if x > 0.0:
        raise DomainError(f"reflected field is defined for x <= 0, got x={x}")
    return complex(_field_on_times(setup, spectrum, x, t, 0.0, 1, "reflected", tol)[0][0])


def estimate_arrival(times: np.ndarray, intensities: np.ndarray,
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


def distortion(setup: BarrierSetup, spectrum: SpectrumSpec,
               tol: float = _METRICS_TOL) -> DistortionMetrics:
    """Filter-effect metrics on the (step-halved) quadrature grid."""
    return _distortion(setup, spectrum, tol, None)


def _distortion(setup: BarrierSetup, spectrum: SpectrumSpec, tol: float,
                T: np.ndarray | None) -> DistortionMetrics:
    """The metrics ladder, reading T wherever a known grid covers a level.

    T is None or T at every node of one ladder level, in natural node
    order (the field's final level under run_packet).  A level it covers
    takes |T| from it at a stride; past it, each level keeps the previous
    level's |T| at its even nodes and calls the closed form only at the
    new odd nodes.  The nodes nest bitwise, so the metrics do not depend
    on where |T| came from.
    """
    _check_tol(tol)
    prev = None
    absT = None if T is None else np.abs(T)
    for level, (ks, wts, g) in enumerate(_simpson_levels(spectrum), start=1):
        if absT is None:
            absT = np.abs(_amplitudes(setup, ks))
        elif len(absT) < len(ks):
            absT = _interleave(absT, np.abs(_amplitudes(setup, ks[1::2])))
        tg = absT[::(len(absT) - 1) // (len(ks) - 1)] * g
        norm_g2 = float(np.sum(wts * g * g))
        norm_tg2 = float(np.sum(wts * tg * tg))
        u = tg / math.sqrt(norm_tg2)
        ref = g / math.sqrt(norm_g2)
        vals = (norm_tg2 / norm_g2,
                math.sqrt(max(0.0, float(np.sum(wts * (u - ref) ** 2)))),
                float(np.sum(wts * ks * tg * tg)) / norm_tg2
                - float(np.sum(wts * ks * g * g)) / norm_g2)
        if prev is not None:
            diffs = [abs(a - b) for a, b in zip(vals, prev)]
            scales = (max(1.0, abs(vals[0])), 2.0, max(spectrum.sigma_k, abs(vals[2])))
            if all(d <= tol * sc for d, sc in zip(diffs, scales)):
                return DistortionMetrics(*vals, quadrature=QuadratureReport(
                    levels=level, nodes=len(ks),
                    change=max(d / sc for d, sc in zip(diffs, scales))))
        prev = vals
    raise QuadratureError(f"distortion metrics did not converge to {tol}")


def run_packet(setup: BarrierSetup, spectrum: SpectrumSpec,
               n_times: int = 2001, tol: float = 1e-8) -> PacketRun:
    """Full experiment: synthesize at x = L, locate the peak, measure distortion.

    The stationary-phase prediction t_phi(k0) and tau(k0) come from the
    closed-form phase time, which is defined in every zone and on both
    edges; the search window is [-5, +5] * max(tau, |t_phi|) around it
    (falling back to the packet's own temporal width 6/sigma_k when both
    vanish at L = 0), sampled at n_times >= 3 uniform times.
    """
    if (isinstance(n_times, bool) or not isinstance(n_times, numbers.Integral)
            or n_times < 3):
        raise DomainError(f"n_times must be an integer >= 3, got {n_times!r}")
    m, w = setup.m, setup.w
    k0 = spectrum.k0
    mode0 = IncidentMode(E=math.sqrt(k0 * k0 + m * m), k=k0, n2=(k0 / w) ** 2)
    pt = phase_time_closed_form(setup, mode0)
    t_pred = pt.t_phi
    half = 5.0 * max(pt.tau, abs(pt.t_phi))
    if half == 0.0:
        half = 6.0 / spectrum.sigma_k
    window = (t_pred - half, t_pred + half)
    times, dt = np.linspace(window[0], window[1], n_times, retstep=True)
    psi, field_quadrature, T = _field_on_times(setup, spectrum, setup.L, window[0], dt,
                                               n_times, "transmitted", tol)
    intensities = np.abs(psi) ** 2
    tau_ref = pt.tau if pt.tau > 0.0 else half / 5.0
    arrival = estimate_arrival(times, intensities, t_pred, tau_ref)
    metrics = _distortion(setup, spectrum, _METRICS_TOL, T)
    return PacketRun(setup=setup, spectrum=spectrum, time_window=window,
                     times=times, intensities=intensities,
                     arrival=arrival, distortion=metrics,
                     field_quadrature=field_quadrature)
