"""Independent reference values for the benchmark's correctness gate.

Nothing here imports kleintunnel.  Every value comes from the textbook
transfer form of the rectangular-barrier transmission, written in the
normalized sweep variables x = n2 = k^2/w^2 and lengths in units of 1/w:

    1/T = D(x) = cos(sqrt(U)) - i * a(x) * sin(sqrt(U))/sqrt(U),
    U = u(x) * wL^2,   a(x) = (x + u) * wL / (2 sqrt(x)),

where u = K^2/w^2 is the squared interior wavenumber (u < 0 inside the
tunneling zone).  For v > 0 the Klein-Gordon dispersion gives
u = ((E - V0)^2 - m^2)/w^2; for v = 0 the Schroedinger pipeline uses
u = x - 1.  Both D terms are entire in U, so one expression covers every
zone and the edges (U = 0).  The transmitted phase is -arg D, and the
normalized phase time is t_phi/tau = 2 sqrt(x) (d arg T/dx) / wL for both
dispersions.

Two evaluators share that definition: a vectorized float64 one over whole
grids (`grid_values`) and a 40-digit mpmath one for spot checks
(`mp_values`), whose derivative is taken numerically by mpmath so it
does not share the float64 evaluator's algebra.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

MP_DIGITS = 40

# |U| below which the entire functions are summed as series; beyond it
# the closed forms lose at most ~eps/|U| to cancellation.
_SERIES_U = 1e-2
_SERIES_TERMS = 10
_FACT = [math.factorial(2 * j + 1) for j in range(_SERIES_TERMS + 1)]


def _u_of_x(v: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u = K^2/w^2, du/dx and E/m on the grid (m = 1 units)."""
    if v == 0.0:
        return x - 1.0, np.ones_like(x), np.full_like(x, np.nan)
    E = np.sqrt(1.0 + 2.0 * x * v)
    # conjugate-factored so u is exact down to the zone edges
    u = -(1.0 - x + 0.5 * v) * (1.0 + x - 0.5 * v) / (E + x + 0.5 * v)
    return u, (E - v) / E, E


def _entire(U: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos(sqrt U), sin(sqrt U)/sqrt U and the U-derivative of the latter."""
    c = np.empty_like(U)
    s = np.empty_like(U)
    ds = np.empty_like(U)
    pos, neg = U > 0.0, U < 0.0
    r = np.sqrt(U[pos])
    c[pos], s[pos] = np.cos(r), np.sin(r) / r
    r = np.sqrt(-U[neg])
    c[neg], s[neg] = np.cosh(r), np.sinh(r) / r
    c[U == 0.0], s[U == 0.0] = 1.0, 1.0
    small = np.abs(U) < _SERIES_U
    big = ~small
    ds[big] = (c[big] - s[big]) / (2.0 * U[big])
    Us = U[small]
    s_ser = np.zeros_like(Us)
    ds_ser = np.zeros_like(Us)
    for j in range(_SERIES_TERMS, -1, -1):
        s_ser = s_ser * (-Us) + 1.0 / _FACT[j]
        if j >= 1:
            ds_ser = ds_ser * (-Us) - j / _FACT[j]
    s[small] = s_ser
    ds[small] = ds_ser
    return c, s, ds


def grid_values(v: float, wL: float, x: np.ndarray) -> dict[str, np.ndarray]:
    """Float64 reference columns at normalized energies x (any zone).

    Returns T2 (= |T|^2), T2_nr (the NR-prefactor form, nan outside the
    tunneling zone and its edges), phase (principal arg T), ratio
    (t_phi/tau) and E (E/m, nan for v = 0).
    """
    x = np.asarray(x, dtype=float)
    u, du, E = _u_of_x(v, x)
    U = u * wL * wL
    c, s, ds = _entire(U)
    sq = np.sqrt(x)
    a = (x + u) * wL / (2.0 * sq)
    da = wL * ((1.0 + du) / (2.0 * sq) - (x + u) / (4.0 * x * sq))
    dU = wL * wL * du
    D = c - 1j * a * s
    dD = -0.5 * s * dU - 1j * (da * s + a * ds * dU)
    dphi = -np.imag(dD / D)
    # NR-prefactor form: 1/(1 + sinh^2(d)/(4 x rho^2)) with rho^2 = -u,
    # i.e. sinh^2(d)/rho^2 = wL^2 * s^2 on the evanescent side
    t2_nr = 1.0 / (1.0 + wL * wL * s * s / (4.0 * x))
    t2_nr[U > 0.0] = np.nan
    return {
        "T2": 1.0 / np.abs(D) ** 2,
        "T2_nr": t2_nr,
        "phase": -np.angle(D),
        "ratio": 2.0 * sq * dphi / wL,
        "E": E,
    }


def continuous_phase(v: float, wL: float, x: float) -> float:
    """arg T at (x, wL), continued from 0 at wL = 0 along the width.

    This fixes the branch of the unwrapped phase without using any
    winding-count formula: |D| >= 1 never vanishes, so arg D is
    continuous in the width and the sampled ramp is unwrapped.
    """
    u, _, _ = _u_of_x(v, np.array([x]))
    rate = math.sqrt(abs(float(u[0]))) + math.sqrt(x) + 1.0
    samples = int(16.0 * rate * wL) + 1000
    ramp = np.linspace(0.0, wL, samples)
    U = float(u[0]) * ramp * ramp
    c, s, _ = _entire(U)
    a = (x + float(u[0])) * ramp / (2.0 * math.sqrt(x))
    return float(np.unwrap(-np.angle(c - 1j * a * s))[-1])


# ---------------------------------------------------------------------------
# 40-digit spot checks
# ---------------------------------------------------------------------------

def _mp_u(v, x):
    if v == 0:
        return x - 1
    E = mp.sqrt(1 + 2 * x * v)
    return ((E - v) ** 2 - 1) / (2 * v)


def _mp_D(v, wL, x):
    u = _mp_u(v, x)
    U = u * wL * wL
    if U == 0:
        c, s = mp.mpf(1), mp.mpf(1)
    else:
        r = mp.sqrt(mp.mpc(U))
        c, s = mp.cos(r), mp.sin(r) / r
    a = (x + u) * wL / (2 * mp.sqrt(x))
    return c - 1j * a * s


def mp_values(v: float, wL: float, x: float) -> dict[str, float]:
    """40-digit reference at one grid point (same keys as grid_values)."""
    with mp.workdps(MP_DIGITS):
        mv, mwL, mx = mp.mpf(v), mp.mpf(wL), mp.mpf(x)
        D = _mp_D(mv, mwL, mx)
        dD = mp.diff(lambda t: _mp_D(mv, mwL, t), mx)
        u = _mp_u(mv, mx)
        if u < 0:
            rho2 = -u
            sh2 = mp.sinh(mp.sqrt(rho2) * mwL) ** 2 / rho2
            t2_nr = float(1 / (1 + sh2 / (4 * mx)))
        elif u == 0:
            t2_nr = float(1 / (1 + mwL * mwL / (4 * mx)))
        else:
            t2_nr = math.nan
        return {
            "T2": float(1 / abs(D) ** 2),
            "T2_nr": t2_nr,
            "phase": float(-mp.arg(D)),
            "ratio": float(2 * mp.sqrt(mx) * -mp.im(dD / D) / mwL),
            "E": math.nan if v == 0 else float(mp.sqrt(1 + 2 * mx * mv)),
        }


def mp_phase_time(m: float, V0: float, L: float, k: float) -> tuple[float, float]:
    """40-digit (t_phi, tau) of the Klein-Gordon barrier at momentum k."""
    with mp.workdps(MP_DIGITS):
        mm, mV0, mL, mk = mp.mpf(m), mp.mpf(V0), mp.mpf(L), mp.mpf(k)

        def D(E):
            kk = mp.sqrt(E * E - mm * mm)
            K2 = (E - mV0) ** 2 - mm * mm
            U = K2 * mL * mL
            if U == 0:
                c, s = mp.mpf(1), mp.mpf(1)
            else:
                r = mp.sqrt(mp.mpc(U))
                c, s = mp.cos(r), mp.sin(r) / r
            return c - 1j * (kk * kk + K2) * mL / (2 * kk) * s

        E0 = mp.sqrt(mk * mk + mm * mm)
        t_phi = -mp.im(mp.diff(D, E0) / D(E0))
        return float(t_phi), float(mL * E0 / mk)


def packet_transmission(m: float, V0: float, L: float, k: np.ndarray) -> np.ndarray:
    """Float64 T(k) of the Klein-Gordon barrier (phase referenced at x = L)."""
    w = math.sqrt(2.0 * m * V0)
    x = (k / w) ** 2
    u, _, _ = _u_of_x(V0 / m, x)
    wL = w * L
    c, s, _ = _entire(u * wL * wL)
    a = (x + u) * wL / (2.0 * np.sqrt(x))
    return 1.0 / (c - 1j * a * s)
