"""Correctness gate for task outputs, independent of the code under test.

Sweep CSVs are parsed by the benchmark's own reader (not
``kleintunnel.sweep.read_csv``) and every point is compared with the
float64 transfer-form reference in ``oracle``; a few points per task are
also compared with the 40-digit mpmath reference, and ``fig1`` panels
additionally with the stored seed outputs in ``reference/fig1.json.gz``.
A point fails when its zone tag, grid value or empty-cell pattern is
wrong, or when any checked value is outside tolerance.

Packets are compared with a Gauss-Legendre synthesis of the same
spectrum from the reference T(k), an mpmath stationary-phase time and
reference distortion integrals.  One packet is one operation.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

import oracle

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

CSV_COLUMNS = ("n2", "E_over_m", "zone", "T2_exact", "T2_nr_form", "phase_rad",
               "ratio_closed", "ratio_numeric", "nudged")
VALUE_COLUMNS = CSV_COLUMNS[3:8]
EDGE_ZONES = ("EdgeLower", "EdgeUpper")

# (relative tolerance, absolute tolerance as a share of the panel's
# largest |reference|): well above the seed's measured deviations
# (<= 3e-14 for T2, <= 2e-11 for ratio_closed, <= 3e-9 for the Richardson
# oracle) and far below any physically meaningful error.
TOL = {
    "E_over_m": (1e-13, 0.0),
    "T2_exact": (1e-10, 0.0),
    "T2_nr_form": (1e-10, 0.0),
    "ratio_closed": (1e-8, 1e-10),
    "ratio_numeric": (1e-6, 1e-8),
}
ORACLE_KEY = {"E_over_m": "E", "T2_exact": "T2", "T2_nr_form": "T2_nr",
              "ratio_closed": "ratio", "ratio_numeric": "ratio"}
PHASE_ATOL = 1e-9  # rad, plus 1e-13 * |phase|
# grid points this close (relative) to a zone edge may be snapped onto it
SNAP_RTOL = 1e-9
MP_POINTS_PER_TASK = 4


@dataclass
class SweepRows:
    n2: np.ndarray
    zone: np.ndarray
    nudged: np.ndarray
    cols: dict[str, np.ndarray]  # nan marks an empty cell
    sha256: str


def read_sweep_csv(path: str) -> SweepRows:
    """Parse the CSV contract; raises ValueError on any format violation."""
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8")
    if not text.endswith("\n"):
        raise ValueError("missing final newline")
    lines = text[:-1].split("\n")
    if lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"bad header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(CSV_COLUMNS) for r in rows):
        raise ValueError("malformed row")
    cells = list(zip(*rows))

    def num(col):
        return np.array([float(c) if c else math.nan for c in col])

    cols = {name: num(cells[i]) for i, name in enumerate(CSV_COLUMNS)
            if name not in ("n2", "zone", "nudged")}
    nudged = np.array([c == "true" for c in cells[8]])
    if any(c not in ("", "true") for c in cells[8]):
        raise ValueError("bad nudged cell")
    return SweepRows(n2=num(cells[0]), zone=np.array(cells[2]), nudged=nudged,
                     cols=cols, sha256=hashlib.sha256(data).hexdigest())


def _zone_ok(v: float, x: np.ndarray, zone: np.ndarray, nudged: np.ndarray) -> np.ndarray:
    if v == 0.0:
        interior = np.where(x < 1.0, "Tunneling", "AboveBarrier")
        edges = [(1.0, "EdgeUpper")]
    else:
        lo, hi = 0.5 * v - 1.0, 0.5 * v + 1.0
        interior = np.where(x < lo, "Klein", np.where(x > hi, "AboveBarrier", "Tunneling"))
        edges = ([(lo, "EdgeLower")] if lo > 0.0 else []) + [(hi, "EdgeUpper")]
    ok = (zone == interior) & ~nudged
    for e, name in edges:
        near = np.abs(x - e) <= SNAP_RTOL * max(1.0, e)
        ok |= near & (zone == name)
    return ok


def _close(a, ref, col, scale):
    rtol, afrac = TOL[col]
    return np.abs(a - ref) <= rtol * np.abs(ref) + afrac * scale


def _phase_close(a, ref):
    d = (a - ref) / (2.0 * math.pi)
    return np.abs(d - np.round(d)) * 2.0 * math.pi <= PHASE_ATOL + 1e-13 * np.abs(a)


def check_sweep(path: str, task, rng, stored: dict | None = None):
    """Check one sweep CSV; returns (failed mask, Counter of reasons, sha256)."""
    reasons: Counter = Counter()
    try:
        rows = read_sweep_csv(path)
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        reasons[f"unreadable: {exc}"] = task.count
        return np.ones(task.count, dtype=bool), reasons, None
    if len(rows.n2) != task.count:
        reasons["row count"] = task.count
        return np.ones(task.count, dtype=bool), reasons, rows.sha256
    v, wL, x = task.v, task.wL, rows.n2
    failed = np.zeros(task.count, dtype=bool)

    def flag(mask, reason):
        mask = np.asarray(mask, dtype=bool)
        if mask.any():
            reasons[reason] += int(mask.sum())
            failed[mask] = True

    grid = task.grid()
    tol = np.where(rows.nudged, SNAP_RTOL * np.maximum(1.0, grid), 1e-12 * grid)
    flag(np.abs(x - grid) > tol, "grid")
    flag(~_zone_ok(v, x, rows.zone, rows.nudged), "zone")

    edge = np.isin(rows.zone, EDGE_ZONES)
    expect = {"E_over_m": np.full(task.count, v > 0.0)}
    for col in VALUE_COLUMNS:
        want = np.full(task.count, col in task.outputs)
        if col == "T2_nr_form":
            want &= (rows.zone == "Tunneling") | edge
        elif col == "ratio_numeric":
            want &= ~edge
        expect[col] = want
    for col, want in expect.items():
        flag(~np.isnan(rows.cols[col]) != want, f"empty cells: {col}")

    ref = oracle.grid_values(v, wL, x)
    for col, key in ORACLE_KEY.items():
        a, present = rows.cols[col], expect[col] & ~np.isnan(rows.cols[col])
        if present.any():
            scale = float(np.nanmax(np.abs(ref[key][present])))
            flag(present & ~_close(a, ref[key], col, scale), f"value: {col}")
    phase = rows.cols["phase_rad"]
    if "phase_rad" in task.outputs and not np.isnan(phase).any():
        flag(~_phase_close(phase, ref["phase"]), "value: phase_rad")
        jumps = np.abs(np.diff(phase)) > math.pi * (1.0 + 1e-12)
        flag(np.concatenate(([False], jumps)), "phase continuity")
        anchor = oracle.continuous_phase(v, wL, float(x[0]))
        if abs(phase[0] - anchor) > 1e-8 * max(1.0, abs(anchor)):
            flag(np.ones(task.count, dtype=bool), "phase branch")

    for i in rng.sample(range(task.count), MP_POINTS_PER_TASK):
        point = np.arange(task.count) == i
        mp_ref = oracle.mp_values(v, wL, float(x[i]))
        for col, key in ORACLE_KEY.items():
            a = rows.cols[col][i]
            if expect[col][i] and not math.isnan(a):
                scale = float(np.nanmax(np.abs(ref[key][expect[col]])))
                if not _close(a, mp_ref[key], col, scale):
                    flag(point, f"mpmath: {col}")
        if expect["phase_rad"][i] and not _phase_close(phase[i], mp_ref["phase"]):
            flag(point, "mpmath: phase_rad")

    if stored is not None:
        _check_stored(rows, stored, flag)
    return failed, reasons, rows.sha256


def _check_stored(rows: SweepRows, stored: dict, flag) -> None:
    """Compare with the seed outputs (values stored to 12 digits)."""
    flag(rows.zone != np.array(stored["zone"]), "reference: zone")
    flag(rows.nudged != np.array(stored["nudged"], dtype=bool), "reference: nudged")
    for col, values in stored["cols"].items():
        ref = np.array([math.nan if c is None else c for c in values])
        a = rows.cols[col]
        flag(np.isnan(a) != np.isnan(ref), f"reference empty cells: {col}")
        both = ~np.isnan(a) & ~np.isnan(ref)
        if not both.any():
            continue
        if col == "phase_rad":
            bad = np.abs(a - ref) > PHASE_ATOL + 1e-11 * np.abs(ref)
        else:
            scale = float(np.max(np.abs(ref[both])))
            bad = ~_close(a, ref, col, scale)
        flag(both & bad, f"reference: {col}")


def load_fig1_reference() -> dict:
    with gzip.open(os.path.join(REFERENCE_DIR, "fig1.json.gz"), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def load_baseline() -> dict:
    with open(os.path.join(REFERENCE_DIR, "baseline.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# packets
# ---------------------------------------------------------------------------

_GL_PANELS = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)


def _gauss_nodes(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(lo, hi, _GL_PANELS + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    k = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    return k, w


class _PacketReference:
    """psi_T(L, t) = int g(k - k0) T(k) exp(-i E(k) t) dk by Gauss-Legendre."""

    def __init__(self, task, halfwidth: float):
        half = halfwidth * task.sigma_k
        self.k, self.w = _gauss_nodes(task.k0 - half, task.k0 + half)
        self.g = np.exp(-0.5 * ((self.k - task.k0) / task.sigma_k) ** 2)
        self.T = oracle.packet_transmission(task.m, task.V0, task.L, self.k)
        self.E = np.sqrt(self.k ** 2 + task.m ** 2)
        self.coeff = self.w * self.g * self.T

    def psi(self, t: np.ndarray) -> np.ndarray:
        return np.exp(-1j * np.outer(t, self.E)) @ self.coeff

    def slope(self, t: float) -> float:
        """d|psi|^2/dt at t (sign only matters)."""
        phase = np.exp(-1j * self.E * t)
        psi = phase @ self.coeff
        dpsi = (-1j * self.E * phase) @ self.coeff
        return float(np.real(np.conj(psi) * dpsi))

    def peak(self, lo: float, hi: float) -> float:
        """Root of the intensity slope in [lo, hi] by bisection."""
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.slope(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def distortion(self, sigma_k: float) -> tuple[float, float, float]:
        g, w, k = self.g, self.w, self.k
        tg = np.abs(self.T) * g
        ng, ntg = float(np.sum(w * g * g)), float(np.sum(w * tg * tg))
        shape = math.sqrt(float(np.sum(w * (tg / math.sqrt(ntg) - g / math.sqrt(ng)) ** 2)))
        shift = float(np.sum(w * k * tg * tg)) / ntg - float(np.sum(w * k * g * g)) / ng
        return ntg / ng, shape, shift


# intensity agreement relative to the peak (the library converges to
# 1e-8; the seed deviates by 2e-12) and the peak time relative to the
# window half-width (the seed deviates by <= 2e-7)
PACKET_INTENSITY_RTOL = 1e-6
PACKET_PEAK_RTOL = 1e-5


def check_packet(run, task, halfwidth: float) -> list[str]:
    """Failed checks of one PacketRun (empty when it is correct)."""
    bad = []
    ref = _PacketReference(task, halfwidth)
    t_phi, tau = oracle.mp_phase_time(task.m, task.V0, task.L, task.k0)
    arr = run.arrival
    if abs(arr.t_predicted - t_phi) > 1e-7 * max(abs(t_phi), tau):
        bad.append("t_predicted vs mpmath")
    half = 5.0 * max(tau, abs(arr.t_predicted))
    lo, hi = run.time_window
    if abs(lo - (arr.t_predicted - half)) > 1e-9 * half or abs(hi - (arr.t_predicted + half)) > 1e-9 * half:
        bad.append("time window")
    times = np.asarray(run.times)
    inten = np.asarray(run.intensities)
    if times.shape != inten.shape or len(times) < 3:
        return bad + ["sample shape"]
    if np.max(np.abs(times - np.linspace(lo, hi, len(times)))) > 1e-12 * half:
        bad.append("time grid")
    j = int(np.argmax(inten))
    idx = np.unique(np.concatenate((np.linspace(0, len(times) - 1, 48).astype(int),
                                    [max(j - 1, 0), j, min(j + 1, len(times) - 1)])))
    ref_I = np.abs(ref.psi(times[idx])) ** 2
    if np.max(np.abs(inten[idx] - ref_I)) > PACKET_INTENSITY_RTOL * np.max(ref_I):
        bad.append("intensities")
    coarse = np.arange(0, len(times), 8)
    jc = int(coarse[np.argmax(np.abs(ref.psi(times[coarse])) ** 2)])
    if 0 < jc < len(times) - 1:
        t_true = ref.peak(times[max(jc - 8, 0)], times[min(jc + 8, len(times) - 1)])
        if abs(arr.t_peak - t_true) > PACKET_PEAK_RTOL * half:
            bad.append("t_peak")
    else:
        bad.append("reference peak on window boundary")
    if arr.clipped:
        bad.append("clipped")
    gap = abs(arr.t_peak - arr.t_predicted) / max(abs(arr.t_predicted), tau)
    if abs(arr.relative_gap - gap) > 1e-9 * max(gap, 1e-12):
        bad.append("relative_gap")
    norm, shape, shift = ref.distortion(task.sigma_k)
    dist = run.distortion
    if abs(dist.transmitted_norm - norm) > 1e-8 * norm:
        bad.append("transmitted_norm")
    if abs(dist.shape_distance - shape) > 1e-8:
        bad.append("shape_distance")
    if abs(dist.mean_k_shift - shift) > 1e-8 * max(task.sigma_k, abs(shift)):
        bad.append("mean_k_shift")
    return bad
