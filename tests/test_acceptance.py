"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 4 and 5 are marked xfail(strict=True): the width-independent
zone-edge limit of the normalized phase time and the claimed quadratic
small-rho error law do not hold at finite wL (the limit value is only
reached as wL -> infinity; see notes in the test bodies).  The tests
implement the criteria exactly as stated, print full diagnostics, and
are expected to fail for that documented mathematical reason.
"""

import cmath
import hashlib
import math
import os
import tempfile

import numpy as np
import pytest

from kleintunnel import (
    BarrierSetup,
    SpectrumSpec,
    Zone,
    classify_zone,
    edge_limit_magnitude_nr_form,
    edge_phase_time_ratio,
    match_boundaries,
    mode_from_energy,
    mode_from_n2,
    normalized_phase_time,
    normalized_phase_time_numeric,
    read_csv,
    run_packet,
    small_rho_ratio,
    transmission_closed_form,
    transmission_magnitude_nr_form,
)
from kleintunnel.cli import main as cli_main
from kleintunnel.sweep import CSV_COLUMNS, fig1_request, run_sweep

WL = 2.0 * math.pi


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. unitarity
# ---------------------------------------------------------------------------

def test_criterion_01_unitarity():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for i in range(10_000):
        v = float(rng.uniform(0.0, 100.0)) or 1e-6
        wL = float(rng.uniform(0.0, 20.0))
        n2 = float(rng.uniform(1e-4, 0.5 * v + 4.0))
        setup = BarrierSetup.from_dimensionless(v, wL)
        sol = match_boundaries(setup.v, n2, setup.wL)
        worst = max(worst, abs(abs(sol.R) ** 2 + abs(sol.T) ** 2 - 1.0))
    ok = worst <= 1e-10
    report(1, ok, f"max ||R|^2+|T|^2 - 1| = {worst:.3e} over 10^4 draws (tol 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 2. closed forms vs exact matching
# ---------------------------------------------------------------------------

def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_mag = worst_phase = 0.0
    count = 0
    for v in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0):
        lo = max(0.0, 0.5 * v - 1.0)
        hi = 0.5 * v + 1.0
        for i in range(200):
            n2 = lo + (hi - lo) * (i + 0.5) / 200
            wL = WL if i % 2 == 0 else float(rng.uniform(0.0, 12.0))
            setup = BarrierSetup.from_dimensionless(v, wL)
            mode = mode_from_n2(setup, n2)
            point = transmission_closed_form(setup.v, mode.n2, setup.wL)
            sol = match_boundaries(setup.v, mode.n2, setup.wL)
            worst_mag = max(worst_mag, abs(point.magnitude - abs(sol.T)) / abs(sol.T))
            worst_phase = max(worst_phase, abs(point.phase - cmath.phase(sol.T)))
            count += 1
    ok = worst_mag <= 1e-10 and worst_phase <= 1e-10
    report(2, ok, f"closed form vs matcher over {count} tunneling points: "
                  f"mag rel {worst_mag:.3e}, phase abs {worst_phase:.3e} (tol 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 3. closed-form phase time vs numeric derivative oracle
# ---------------------------------------------------------------------------

def test_criterion_03_phase_time_consistency():
    failures = []
    worst = 0.0
    for v in (1.0, 2.0, 5.0, 10.0, 100.0):
        setup = BarrierSetup.from_dimensionless(v, WL)
        lo = max(0.0, 0.5 * v - 1.0)
        hi = 0.5 * v + 1.0
        for i in range(50):
            n2 = lo + (hi - lo) * (i + 0.5) / 50
            mode = mode_from_n2(setup, n2)
            closed = normalized_phase_time(setup.v, mode.n2, setup.wL)
            numeric = normalized_phase_time_numeric(setup.v, mode.n2, setup.wL)
            rel = abs(closed - numeric) / max(abs(closed), abs(numeric))
            worst = max(worst, rel)
            if rel > 1e-6:
                failures.append((v, n2, closed, numeric, rel))
    if failures:
        # transcription contingency: emit the diagnostic grid; the numeric
        # oracle then defines the shipped ratio
        path = os.path.join(tempfile.gettempdir(), "phase_time_diagnostic_grid.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("v,n2,ratio_closed,ratio_numeric,rel_diff\n")
            for row in failures:
                fh.write(",".join(repr(x) for x in row) + "\n")
        report(3, False, f"{len(failures)} grid points exceed 1e-6; diagnostics: {path}")
        raise AssertionError(f"closed-form/numeric disagreement; see {path}")
    report(3, True, f"50x5 grid at wL=2pi: worst rel diff {worst:.3e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 4. width-independent edge limits (asymptotic-only statement)
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="the n2->edge limit of t_phi/tau at finite wL is "
           "[1/2 -+ 1/(v-+1) -+ n2 wL^2/(3(v-+1))]/(1+n2 wL^2/4); the "
           "width-independent values -4/27 and +4/33 are its wL->infinity "
           "limit only.  At the sweep's wL=2pi the error plateaus at "
           "1.3e-2 (lower) / 7.8e-3 (upper) instead of decaying to zero, "
           "and on the upper edge it grows with the offset.  Verified "
           "against a 50-digit evaluation and an independent numeric "
           "derivative of the matched phase.")
def test_criterion_04_edge_limit_values():
    rows = []
    ok = True
    for edge, base, sgn, target in (("lower", 4.0, 1.0, -4.0 / 27.0),
                                    ("upper", 6.0, -1.0, 4.0 / 33.0)):
        errs = []
        for j in range(3, 9):
            val = normalized_phase_time(10.0, base + sgn * 10.0**-j, WL)
            errs.append(abs(val - target))
            rows.append(f"  {edge} n2={base + sgn * 10.0**-j:.9f}: ratio={val:+.9f} "
                        f"err vs {target:+.6f} = {errs[-1]:.3e}")
        monotone = all(a > b for a, b in zip(errs, errs[1:]))
        converged = errs[-1] < 1e-6
        rows.append(f"  {edge}: monotone decay {monotone}, final err {errs[-1]:.3e} "
                    f"(finite-wL edge value {edge_phase_time_ratio(10.0, WL, edge):+.9f})")
        ok = ok and monotone and converged
    report(4, ok, "edge-limit reproduction at wL=2pi (expected to fail; "
                  "limit values hold only for wL->infinity)")
    for row in rows:
        print(row)
    assert ok, "edge values at finite wL differ from the width-independent limits"


def test_criterion_04_companion_edge_limits_recovered_at_large_width():
    # the physics the criterion is after, stated correctly: the edge value
    # of the ratio approaches -4/27 / +4/33 as wL grows
    gaps_l = [abs(edge_phase_time_ratio(10.0, wl, "lower") - (-4.0 / 27.0))
              for wl in (WL, 30.0, 300.0, 3000.0)]
    gaps_u = [abs(edge_phase_time_ratio(10.0, wl, "upper") - (4.0 / 33.0))
              for wl in (WL, 30.0, 300.0, 3000.0)]
    ok = (all(a > b for a, b in zip(gaps_l, gaps_l[1:])) and gaps_l[-1] < 1e-6
          and all(a > b for a, b in zip(gaps_u, gaps_u[1:])) and gaps_u[-1] < 1e-6)
    report(4, ok, "companion: width-independent limits recovered as wL->infinity "
                  f"(gap at 2pi {gaps_l[0]:.2e} -> at 3000 {gaps_l[-1]:.2e})")
    assert ok


# ---------------------------------------------------------------------------
# 5. small-rho error order (asymptotic-only statement)
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="away from the zone edges the small-rho term is not the "
           "wL->0 limit of the closed form (the zero-order brackets of "
           "f and g only vanish at the edges), so the error saturates "
           "at 0.484 for small wL instead of scaling as (rho wL)^2; "
           "the measured log-log slope at v=10, n2=5 is about -1.28.")
def test_criterion_05_small_rho_error_order():
    v, n2 = 10.0, 5.0
    target = small_rho_ratio(v, n2)
    wls = [WL / 2**j for j in range(6, -1, -1)]
    errs = [abs(normalized_phase_time(v, n2, wl) - target) for wl in wls]
    x = np.log(wls)
    y = np.log(errs)
    slope = float(np.polyfit(x, y, 1)[0])
    for wl, err in zip(wls, errs):
        print(f"  wL={wl:9.5f}: |closed - small_rho| = {err:.6e}")
    ok = abs(slope - 2.0) <= 0.1
    report(5, ok, f"log-log slope over wL in [2pi/64, 2pi] = {slope:.3f} "
                  "(criterion wants 2 +- 0.1; expected to fail)")
    assert ok, f"slope {slope:.3f} is not 2 +- 0.1"


def test_criterion_05_companion_error_structure():
    # what actually holds on that grid: the gap shrinks monotonically as
    # wL grows toward 2pi, saturating near 0.484 at the small-wL end
    v, n2 = 10.0, 5.0
    target = small_rho_ratio(v, n2)
    wls = [WL / 2**j for j in range(6, -1, -1)]
    errs = [abs(normalized_phase_time(v, n2, wl) - target) for wl in wls]
    ok = all(a > b for a, b in zip(errs, errs[1:])) and abs(errs[0] - 0.4843) < 2e-3
    report(5, ok, f"companion: error saturates at {errs[0]:.4f} for small wL and "
                  f"decreases to {errs[-1]:.2e} at wL=2pi")
    assert ok


# ---------------------------------------------------------------------------
# 6. NR-prefactor edge magnitude vs exact edge value
# ---------------------------------------------------------------------------

def test_criterion_06_edge_magnitudes():
    v = 10.0
    setup = BarrierSetup.from_dimensionless(v, WL)
    # (a) rho->0 limit of the NR-prefactor magnitude equals the
    #     width-formula value [1 + wL^2/(2v-4)]^(-1/2)
    lim = edge_limit_magnitude_nr_form(v, WL, "lower")
    near = transmission_magnitude_nr_form(setup.v, 4.0 + 1e-9, setup.wL)
    err_a = abs(near - lim)
    # (b) exact matcher at the edge equals |2/(2 - i k L)|
    mode_edge = mode_from_energy(setup, 9.0)
    sol = match_boundaries(setup.v, mode_edge.n2, setup.wL)
    kL = mode_edge.k * setup.L
    exact_edge = 2.0 / math.sqrt(4.0 + kL * kL)
    err_b = abs(abs(sol.T) - exact_edge)
    ok = err_a <= 1e-8 and err_b <= 1e-10 and abs(lim - 0.53702927214631508) < 1e-12
    # (c) the numeric gap between the two descriptions, reported not hidden
    report(6, ok, f"NR-form edge magnitude {lim:.6f} vs exact edge {exact_edge:.6f} "
                  f"(gap {lim - exact_edge:+.6f}); limit residuals "
                  f"{err_a:.2e} (tol 1e-8), {err_b:.2e} (tol 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 7. Schroedinger reduction and Hartman plateau
# ---------------------------------------------------------------------------

def test_criterion_07_nr_reduction():
    v = 1e-8
    setup = BarrierSetup.from_dimensionless(v, WL)
    worst = 0.0
    for n2 in (0.1, 0.5, 0.9):
        mode = mode_from_n2(setup, n2)
        # the Schroedinger barrier is the closed forms at v = 0, n2 = E_NR/V0
        n2_nr = n2 * setup.V0 / setup.V0
        t2_nr = transmission_closed_form(0.0, n2_nr, setup.wL).magnitude**2
        ratio_nr = normalized_phase_time(0.0, n2_nr, setup.wL)
        t2_rel = transmission_closed_form(setup.v, mode.n2, setup.wL).probability
        ratio_rel = normalized_phase_time(setup.v, mode.n2, setup.wL)
        worst = max(worst,
                    abs(t2_rel - t2_nr) / t2_nr,
                    abs(ratio_rel - ratio_nr) / abs(ratio_nr))
    # Hartman plateau at kappa*L = 20: the phase time t_phi saturates in L
    # (the tau-normalized ratio scales as 1/L by definition, so the
    # criterion's plateau statement is implemented on t_phi,
    # ratio * tau_NR with tau_NR = L*m/k and k = sqrt(2 m E_NR))
    V0, e_nr = 1.0, 0.5
    kappa = math.sqrt(2.0 * (V0 - e_nr))
    L = 20.0 / kappa
    t_phi = []
    for s in (BarrierSetup(m=1.0, V0=V0, L=L), BarrierSetup(m=1.0, V0=V0, L=2.0 * L)):
        k = math.sqrt(2.0 * s.m * e_nr)
        t_phi.append(normalized_phase_time(0.0, e_nr / s.V0, s.wL) * s.L * s.m / k)
    t1, t2 = t_phi
    plateau_gap = abs(t1 - t2)
    ok = worst <= 1e-6 and plateau_gap < 1e-6
    report(7, ok, f"v=1e-8 vs v=0 worst rel diff {worst:.3e} (tol 1e-6); "
                  f"Hartman |t_phi(L)-t_phi(2L)| = {plateau_gap:.3e} at kappa*L=20")
    assert ok


# ---------------------------------------------------------------------------
# 8. transmission / phase-time curve properties at v=10, wL=2pi
# ---------------------------------------------------------------------------

def test_criterion_08_curve_properties():
    v = 10.0
    setup = BarrierSetup.from_dimensionless(v, WL)
    details = []

    # (a) the tunneling zone occupies exactly n2 in (4, 6)
    eps = 1e-6
    zone_of = lambda n2: classify_zone(setup, mode_from_n2(setup, n2).E)
    ok_zone = (zone_of(4.0 + eps) is Zone.TUNNELING and zone_of(6.0 - eps) is Zone.TUNNELING
               and zone_of(4.0 - eps) is Zone.KLEIN and zone_of(6.0 + eps) is Zone.ABOVE_BARRIER
               and zone_of(4.0) is Zone.EDGE_LOWER and zone_of(6.0) is Zone.EDGE_UPPER)
    details.append(f"zone interval (4,6): {ok_zone}")

    # (b) ratio negative near the lower edge, positive near the upper,
    #     with a single sign change inside the zone
    records = run_sweep(fig1_request(v))
    tz = [(r.n2, r.ratio_closed) for r in records
          if r.zone == Zone.TUNNELING.value and r.ratio_closed is not None]
    signs = [1 if r > 0 else -1 for _, r in tz]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    ok_sign = tz[0][1] < 0.0 and tz[-1][1] > 0.0 and changes == 1
    details.append(f"sign structure: first {tz[0][1]:+.4f}, last {tz[-1][1]:+.4f}, "
                   f"{changes} change(s)")

    # (c) above-barrier resonances exactly at sin(qL) = 0 and nowhere else
    def sin_qL(n2):
        q_n2 = -(1.0 - (n2 - 0.5 * v) ** 2) / (math.sqrt(1.0 + 2.0 * n2 * v) + n2 + 0.5 * v)
        return math.sin(math.sqrt(q_n2) * WL)

    above = [r.n2 for r in records if r.zone == Zone.ABOVE_BARRIER.value]
    roots = []
    for a, b in zip(above, above[1:]):
        fa, fb = sin_qL(a), sin_qL(b)
        if fa == 0.0 or fa * fb > 0.0:
            continue
        for _ in range(200):  # bisection to the floating floor
            mid = 0.5 * (a + b)
            fm = sin_qL(mid)
            if fa * fm <= 0.0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    res_ok = len(roots) == 1
    for root in roots:
        t2 = abs(match_boundaries(setup.v, root, setup.wL).T) ** 2
        res_ok = res_ok and abs(t2 - 1.0) <= 1e-8
        details.append(f"resonance at n2={root:.6f}: T^2-1 = {t2 - 1.0:.2e}")
    for r in records:
        if r.zone == Zone.ABOVE_BARRIER.value and abs(sin_qL(r.n2)) > 1e-3:
            res_ok = res_ok and r.t2_exact < 1.0 - 1e-8

    # (d) v=0 dataset equals the closed forms at v=0 (the Schroedinger barrier)
    nr_records = run_sweep(fig1_request(0.0))
    ok_nr = all(
        r.t2_exact == transmission_closed_form(0.0, r.n2, WL).probability
        and r.ratio_closed == normalized_phase_time(0.0, r.n2, WL)
        for r in nr_records)
    details.append(f"v=0 file == closed forms at v=0: {ok_nr}")

    ok = ok_zone and ok_sign and res_ok and ok_nr
    report(8, ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 9. wave-packet stationary phase and filter metrics
# ---------------------------------------------------------------------------

def test_criterion_09_wave_packet():
    details = []
    # stationary-phase arrival: v=10, n2(k0)=5, mL=0.1
    setup = BarrierSetup(m=1.0, V0=10.0, L=0.1)
    gaps = []
    for frac in (0.1, 0.05, 0.02):
        run = run_packet(setup, SpectrumSpec(k0=10.0, sigma_k=frac * 10.0))
        gaps.append(run.arrival.relative_gap)
    ok_gap = gaps[-1] < 0.05 and gaps[0] > gaps[1] > gaps[2]
    details.append(f"relative gaps over sigma/k0 = 0.1/0.05/0.02: "
                   f"{gaps[0]:.4f} > {gaps[1]:.4f} > {gaps[2]:.4f} (< 0.05)")

    # negligible spectral distortion in the narrow/transparent-width
    # regime (mL=0.05, v=100, mid-zone); sigma_k = 0.01*k0 keeps the
    # spectrum inside the flat part of |T(k)|
    setup_t1 = BarrierSetup(m=1.0, V0=100.0, L=0.05)
    k0 = setup_t1.w * math.sqrt(50.0)
    d_t1 = run_packet(setup_t1, SpectrumSpec(k0=k0, sigma_k=0.01 * k0)).distortion
    ok_shape = d_t1.shape_distance < 0.01
    details.append(f"shape_distance (mL=0.05, v=100) = {d_t1.shape_distance:.5f} (< 0.01)")

    # NR opaque filter effect at kappa*L = 10: high-k tail preferred
    v_nr = 1e-4
    w = math.sqrt(2.0 * v_nr)
    k_nr = w * math.sqrt(0.5)
    setup_nr = BarrierSetup(m=1.0, V0=v_nr, L=10.0 / k_nr)
    d_nr = run_packet(setup_nr, SpectrumSpec(k0=k_nr, sigma_k=0.02 * k_nr)).distortion
    ok_nr = d_nr.mean_k_shift > 0.0
    details.append(f"NR opaque mean_k_shift = {d_nr.mean_k_shift:+.3e} (> 0), "
                   f"transmitted_norm = {d_nr.transmitted_norm:.2e}")

    ok = ok_gap and ok_shape and ok_nr
    report(9, ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 10. preset determinism across runs and worker counts
# ---------------------------------------------------------------------------

# SHA-256 of the five fig1 CSV files, and per column (in CSV_COLUMNS
# order) the first 12 hex digits of the SHA-256 of its cells joined by
# newlines, so a failure names the columns that moved.  Only an accuracy
# fix that has been checked against mpmath may change these, and it must
# say so in CHANGES.md.
FIG1_DIGESTS = {
    "fig1_v0.csv": ("1f4e2bddaae3a46dc5ea56b23a7bdc5be4929998a8ad81baab9b765fabac1e9b", (
        "9d144e8dc337", "c29c1d72b7bd", "e06e9fec06e3", "95adafb95faf", "85c1fb301daa",
        "9376d3e8aac9", "713cddc514de", "b5288c6ac25d", "c29c1d72b7bd")),
    "fig1_v1.csv": ("de687b90dfdceea22e7715c1a80784314b66c4e3b0c93e80f74de61b5a3eb6ce", (
        "35bb58349a92", "ca330dcdb51b", "c6da6a16e9e7", "49e4c1643003", "e36a905139ce",
        "bba0cd7f2f76", "483e11edd535", "788fb7a92691", "c29c1d72b7bd")),
    "fig1_v2.csv": ("4bffb879bb56a4af9717287b8eb571faad5e11a55d476c4e86c323f6626ae3a9", (
        "8a28820d5e73", "ac05138b77c7", "e018efcb267d", "ec696e5d50ab", "3514f932b775",
        "f4f05a6479b0", "865637604008", "ea0b8c552c76", "8860c66d9946")),
    "fig1_v5.csv": ("2a42c1494a55e20becebba703cce19c76b1ce4c5fc8c1c88d9e302b51d190b83", (
        "8c945d1ce51b", "1b8ce22964cf", "69d604bb29b2", "50f17a47c98d", "65355d85c3bc",
        "ecf8fbfdca15", "f003db992975", "dbba6aa3ad98", "c29c1d72b7bd")),
    "fig1_v10.csv": ("419557c512951f1f15ab66972885a33537547fb02ff2485f9e2aaad545fc0559", (
        "d23e9e8ece56", "2bb7d76b58f4", "b3f31b446fcc", "13de50c1516e", "7c4694e06747",
        "ed4db5165d47", "769bf4fd0aa4", "4a965159f31f", "c14944055915")),
}


def _csv_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def _column_digests(path):
    return tuple(hashlib.sha256("\n".join(col).encode()).hexdigest()[:12]
                 for col in zip(*_csv_rows(path)))


def _first_difference(path_a, path_b):
    """'row i, column c' of the first cell where two CSV files differ."""
    rows_a, rows_b = _csv_rows(path_a), _csv_rows(path_b)
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b), start=1):
        for col, ca, cb in zip(CSV_COLUMNS, ra, rb):
            if ca != cb:
                return f"row {i}, column {col}: {ca!r} vs {cb!r}"
    return f"row counts {len(rows_a)} vs {len(rows_b)}"


def test_criterion_10_determinism(tmp_path):
    def digest(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        code = cli_main(["sweep", "--preset", "fig1", "--out-dir", str(d), "--json"])
        assert code == 0
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(FIG1_DIGESTS)
    problems = []
    for name in names:
        paths = [d / name for d in dirs]
        for other in paths[1:]:
            if digest(other) != digest(paths[0]):
                problems.append(f"{name} differs between reruns at "
                                f"{_first_difference(paths[0], other)}")
        pinned, pinned_columns = FIG1_DIGESTS[name]
        if digest(paths[0]) != pinned:
            moved = [col for col, got, want in zip(CSV_COLUMNS, _column_digests(paths[0]),
                                                   pinned_columns) if got != want]
            problems.append(f"{name} sha256 {digest(paths[0])} is not the pinned {pinned}; "
                            f"columns off their pinned digests: {', '.join(moved) or 'none'} "
                            f"(now {_column_digests(paths[0])})")
        # schema check while we are here
        records = read_csv(paths[0])
        assert len(records) == 2000
        with open(paths[0], "r", encoding="utf-8") as fh:
            assert fh.readline().rstrip("\n") == ",".join(CSV_COLUMNS)
    report(10, not problems, "; ".join(problems) or
           f"five datasets byte-identical across three reruns and to "
           f"the pinned digests (files: {', '.join(names)})")
    assert not problems, "\n".join(problems)
