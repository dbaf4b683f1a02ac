import cmath
import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kleintunnel import (
    BarrierSetup,
    DomainError,
    SweepRequest,
    Zone,
    ZoneError,
    barrier_channel,
    classify_zone,
    match_boundaries,
    mode_from_energy,
    mode_from_n2,
    run_sweep,
    transmission_closed_form,
    transmission_magnitude_nr_form,
)
from kleintunnel.phasetime import (
    edge_limit_magnitude_nr_form,
    edge_phase_time_ratio,
    normalized_phase_time,
)
from kleintunnel.kinematics import rho_n2
from kleintunnel.scattering import LARGE_D2, SERIES_CUT, _closed_forms
from test_phasetime import mp_ratio

# frozen with 50-digit arithmetic during development
MAG_V10_N5_WL2PI = 0.10293276472295702
PHASE_V10_N5_WL2PI = 1.3469012664666197
MAG_NR_FORM_V10_N5_WL2PI = 0.46314710078175544
MAG_OSC_E12_QL_HALFPI = 0.28373034489325999


def make(m=1.0, V0=10.0, L=1.0):
    return BarrierSetup(m=m, V0=V0, L=L)


def continuity_residuals(setup, mode, sol):
    """Relative continuity mismatch of (phi, phi') at x=0 and x=L.

    Evaluates both sides of each matching condition from the stored
    amplitudes and returns the larger relative residual per interface.
    Direct exponentials are used, so this check is meant for moderate
    rho*L (the growing term overflows near rho*L ~ 700).
    """
    k, L, w = mode.k, setup.L, setup.w
    r2 = rho_n2(setup.v, mode.n2)
    if r2 == 0.0:
        # the linear basis {1, xi}, xi = w*x: dphi/dx = w*beta
        def interior(x):
            return sol.alpha + sol.beta * (w * x), w * sol.beta
    else:
        kappa = w * cmath.sqrt(r2)
        def interior(x):
            e1 = cmath.exp(-kappa * x)
            e2 = cmath.exp(kappa * x)
            val = sol.alpha * e1 + sol.beta * e2
            der = -kappa * sol.alpha * e1 + kappa * sol.beta * e2
            return val, der

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    v0, d0 = interior(0.0)
    r0 = max(rel(1.0 + sol.R, v0), rel(1j * k * (1.0 - sol.R), d0))
    vL, dL = interior(L)
    rL = max(rel(sol.T, vL), rel(1j * k * sol.T, dL))
    return r0, rL


def brute_solve(setup, mode):
    """Independent oracle: assemble and solve the full 4x4 system.

    Uses the same bounded basis scaling as the production code but goes
    through an unreduced numpy solve, so it checks the analytic 2x2
    reduction rather than repeating it.
    """
    k, L = mode.k, setup.L
    ch = barrier_channel(setup, mode)
    ik = 1j * k
    if ch.kind == "linear":
        # unknowns (R, a, b, T), interior a + b x
        A = np.array([
            [-1.0, 1.0, 0.0, 0.0],
            [ik, 0.0, 1.0, 0.0],
            [0.0, 1.0, L, -1.0],
            [0.0, 0.0, 1.0, -ik],
        ], dtype=complex)
        rhs = np.array([1.0, ik, 0.0, 0.0], dtype=complex)
        R, a, b, T = np.linalg.solve(A, rhs)
        return R, T, a, b / setup.w  # the matcher's beta multiplies xi = w*x
    kappa = complex(ch.rho) if ch.kind == "evanescent" else 1j * ch.q
    u = cmath.exp(-kappa * L)
    # unknowns (R, c1, c2, T), interior c1 e^{-kx} + c2 e^{k(x-L)}
    A = np.array([
        [-1.0, 1.0, u, 0.0],
        [ik, -kappa, kappa * u, 0.0],
        [0.0, u, 1.0, -1.0],
        [0.0, -kappa * u, kappa, -ik],
    ], dtype=complex)
    rhs = np.array([1.0, ik, 0.0, 0.0], dtype=complex)
    R, c1, c2, T = np.linalg.solve(A, rhs)
    return R, T, c1, c2 * u


# the near-edge probe of the matcher: every edge of each v, at each offset
# (relative in n2) and each width
_PROBE_V = (1e-8, 1e-6, 1e-3, 0.67, 3.0, 10.0, 100.0)
_PROBE_WL = (1e-7, 1e-5, 1e-3, 0.5, 2.0 * math.pi, 60.0, 400.0)
_PROBE_OFFSETS = (0.0, 1e-15, -1e-15, 1e-11, -1e-11, 1e-7, -1e-7, 1e-3, -1e-3)


class TestMatchBoundaries:
    def test_no_barrier_is_transparent(self):
        s = make(L=0.0)
        for E in (1.001, 2.0, 9.0, 10.5, 11.0, 50.0):
            sol = match_boundaries(s.v, mode_from_energy(s, E).n2, s.wL)
            assert sol.T == pytest.approx(1.0, abs=1e-14)
            assert abs(sol.R) < 1e-14

    def test_against_brute_force_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            v = float(rng.uniform(0.2, 40.0))
            wL = float(rng.uniform(0.0, 8.0))
            s = BarrierSetup.from_dimensionless(v, wL)
            n2 = float(rng.uniform(1e-2, 0.5 * v + 3.0))
            if abs(abs(n2 - 0.5 * v) - 1.0) < 1e-7:
                continue
            mode = mode_from_n2(s, n2)
            sol = match_boundaries(s.v, mode.n2, s.wL)
            R, T, alpha, beta = brute_solve(s, mode)
            assert sol.R == pytest.approx(R, rel=1e-9, abs=1e-12)
            assert sol.T == pytest.approx(T, rel=1e-9, abs=1e-12)
            assert sol.alpha == pytest.approx(alpha, rel=1e-9, abs=1e-12)
            assert sol.beta == pytest.approx(beta, rel=1e-9, abs=1e-12)

    def test_edge_closed_form(self):
        # hand-solved degenerate matching: T = 2/(2 - ikL)
        s = make(L=0.7)
        mode = mode_from_energy(s, 9.0)
        sol = match_boundaries(s.v, mode.n2, s.wL)
        kL = mode.k * s.L
        expected = 2.0 / (2.0 - 1j * kL)
        assert sol.T == pytest.approx(expected, rel=1e-14)
        assert abs(sol.T) == pytest.approx(1.0 / math.sqrt(1.0 + 0.25 * kL * kL), rel=1e-14)

    def test_near_edges_against_50_digit_reference(self):
        # the basis follows the sign of rho_n2(v, n2), never the zone tag:
        # the linear basis {1, x} on a band of tagged edge points was 2.7e-3
        # off at v = 1e-6, wL = 400, 1e-7 (relative) below the upper edge,
        # and a basis built from E, which loses about eps/v relative in
        # n2, was 8.5e-4 off at v = 1e-8
        far = []
        for v, wL, offset in itertools.product(_PROBE_V, _PROBE_WL, _PROBE_OFFSETS):
            s = BarrierSetup.from_dimensionless(v, wL)
            for edge in [0.5 * v + 1.0] + ([0.5 * v - 1.0] if v > 2.0 else []):
                n2 = edge * (1.0 + offset)
                want = abs(mp_transmission(v, n2, wL, dps=50))
                got = abs(match_boundaries(s.v, n2, s.wL).T)
                if abs(got - want) > 1e-8 * want:
                    far.append((v, wL, n2, float(abs(got - want) / want)))
        assert far == []

    def test_continuity_residuals_small(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = float(rng.uniform(0.2, 30.0))
            s = BarrierSetup.from_dimensionless(v, float(rng.uniform(0.0, 10.0)))
            n2 = float(rng.uniform(1e-2, 0.5 * v + 3.0))
            mode = mode_from_n2(s, n2)
            sol = match_boundaries(s.v, mode.n2, s.wL)
            r0, rL = continuity_residuals(s, mode, sol)
            assert r0 < 1e-10
            assert rL < 1e-10

    def test_unitarity_spot(self):
        s = make(L=2.0 * math.pi / math.sqrt(20.0))
        for n2 in (0.5, 2.0, 4.5, 5.0, 5.9, 7.0, 30.0):
            sol = match_boundaries(s.v, n2, s.wL)
            assert abs(sol.R) ** 2 + abs(sol.T) ** 2 == pytest.approx(1.0, abs=1e-12)

    # exact edges (rho_n^2 == 0.0): v = 0, both edges of v = 10 and of v = 1e6
    @pytest.mark.parametrize("v, n2", [(0.0, 1.0), (10.0, 4.0), (10.0, 6.0),
                                       (1e6, 5e5 - 1.0), (1e6, 5e5 + 1.0)])
    @pytest.mark.parametrize("wL", [2.0 * math.pi, 400.0])
    def test_exact_edge_against_40_digit_reference(self, v, n2, wL):
        # the linear basis {1, xi}, xi = w*x: alpha = (1 - i n wL) T and
        # beta = i n T, in units of w.  The measured relative errors of T, R,
        # alpha and beta are at most 2.2e-16; the bound allows 2 ulp
        assert rho_n2(v, n2) == 0.0
        sol = match_boundaries(v, n2, wL)
        T = mp_transmission(v, n2, wL)
        with mpmath.workdps(40):
            n = mpmath.sqrt(mpmath.mpf(n2))
            refs = (T, mp_reflection(v, n2, wL, T), (1 - 1j * n * mpmath.mpf(wL)) * T, 1j * n * T)
        for got, ref in zip((sol.T, sol.R, sol.alpha, sol.beta), refs):
            assert abs(got - complex(ref)) <= 4e-16 * abs(complex(ref))

    @pytest.mark.parametrize("v, n2, name", [(10.0, 100.0, "q_n"), (2.0, 2.0, "n")])
    def test_infinite_phase_is_a_domain_error(self, v, n2, name):
        # q_n wL in the above-barrier zone, and n wL on the exact edge, overflow:
        # cmath.exp raised a bare ValueError, and the edge branch gave nan
        wL = 1.7e308
        msg = re.escape(f"{name}*wL is not finite at v={v}, n2={n2}, wL={wL}")
        with pytest.raises(DomainError, match=msg):
            match_boundaries(v, n2, wL)

    # past the phase cutoff (q_n wL above about 3e15) exp(-i q_n wL) is noise:
    # the matcher returned T = -0.99926-0.03797j at (10, 1, 1e17), where the
    # closed form refuses the phase.  Each cutoff wL is the first float whose
    # winding floor(q_n wL/pi + 1/2) passes 1e15, in the Klein zone (n2 = 1)
    # and above the barrier (n2 = 7); at 1e200 rho_n^2 wL^2 overflows
    @pytest.mark.parametrize("v, n2, wL, reason", [
        (10.0, 1.0, 1e17, "too large"), (10.0, 7.0, 1e17, "too large"),
        (1.0, 3.0, 5e15, "too large"), (10.0, 1.0, 3e15, "too large"),
        (10.0, 1.0, math.nextafter(2638760260094343.5, 0.0), None),
        (10.0, 1.0, 2638760260094343.5, "too large"),
        (10.0, 1.0, math.nextafter(2638760260094343.5, math.inf), "too large"),
        (10.0, 7.0, math.nextafter(8862473539882316.0, 0.0), None),
        (10.0, 7.0, 8862473539882316.0, "too large"),
        (10.0, 7.0, math.nextafter(8862473539882316.0, math.inf), "too large"),
        (10.0, 1.0, 1e200, "not finite")])
    def test_refuses_where_the_closed_form_refuses_the_phase(self, v, n2, wL, reason):
        if reason is None:
            transmission_closed_form(v, n2, wL)
            assert cmath.isfinite(match_boundaries(v, n2, wL).T)
            return
        text = {"too large": "q_n*wL is too large to resolve the phase modulo pi",
                "not finite": "q_n*wL is not finite"}[reason]
        msg = f"^{re.escape(f'{text} at v={v}, n2={n2}, wL={wL}')}$"
        for call in (transmission_closed_form, match_boundaries):
            with pytest.raises(DomainError, match=msg):
                call(v, n2, wL)

    def test_huge_barrier_width_no_overflow(self):
        # rho*L up to ~700: amplitudes stay finite, reflection saturates
        s = BarrierSetup(m=1.0, V0=10.0, L=700.0 / 0.2233)
        mode = mode_from_n2(s, 5.0)
        sol = match_boundaries(s.v, mode.n2, s.wL)
        assert math.isfinite(abs(sol.T))
        assert abs(sol.T) < 1e-250
        assert abs(sol.R) == pytest.approx(1.0, abs=1e-12)


class TestClosedForms:
    def test_frozen_point(self):
        s = BarrierSetup.from_dimensionless(10.0, 2.0 * math.pi)
        point = transmission_closed_form(s.v, 5.0, s.wL)
        assert point.magnitude == pytest.approx(MAG_V10_N5_WL2PI, rel=1e-12)
        assert point.phase == pytest.approx(PHASE_V10_N5_WL2PI, rel=1e-12)
        assert point.probability == pytest.approx(point.magnitude**2, rel=1e-15)
        assert point.winding == 0

    def test_matches_matcher_through_tunneling_zone(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            v = float(rng.uniform(0.3, 60.0))
            s = BarrierSetup.from_dimensionless(v, float(rng.uniform(0.0, 12.0)))
            lo, hi = max(0.0, 0.5 * v - 1.0), 0.5 * v + 1.0
            n2 = float(rng.uniform(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo)))
            mode = mode_from_n2(s, n2)
            point = transmission_closed_form(s.v, mode.n2, s.wL)
            sol = match_boundaries(s.v, mode.n2, s.wL)
            assert point.magnitude == pytest.approx(abs(sol.T), rel=1e-10)
            assert point.phase == pytest.approx(cmath.phase(sol.T), rel=1e-10, abs=1e-12)

    def test_zone_errors(self):
        s = make()
        with pytest.raises(ZoneError):
            transmission_magnitude_nr_form(s.v, mode_from_energy(s, 5.0).n2, s.wL)

    def test_nr_form_frozen_point_and_gap(self):
        s = BarrierSetup.from_dimensionless(10.0, 2.0 * math.pi)
        mode = mode_from_n2(s, 5.0)
        mag = transmission_magnitude_nr_form(s.v, mode.n2, s.wL)
        assert mag == pytest.approx(MAG_NR_FORM_V10_N5_WL2PI, rel=1e-12)
        # the NR prefactor overestimates the relativistic transmission
        assert mag > 4.0 * transmission_closed_form(s.v, mode.n2, s.wL).magnitude

    def test_nr_form_coincides_with_exact_at_v_to_zero(self):
        # k^2 + rho^2 = w^2 for Schroedinger kinematics: both prefactors agree
        s = BarrierSetup.from_dimensionless(1e-10, 2.0 * math.pi)
        for n2 in (0.1, 0.5, 0.9):
            mode = mode_from_n2(s, n2)
            assert transmission_magnitude_nr_form(s.v, mode.n2, s.wL) == pytest.approx(
                transmission_closed_form(s.v, mode.n2, s.wL).magnitude, rel=1e-9)

    def test_symmetric_schroedinger_value_at_v_to_zero(self):
        # v -> 0, n2 = 1/2: 4 n2 rho_n^2 = 1, so |T| -> [1 + sinh^2(wL/sqrt(2))]^(-1/2)
        for wL in (1.0, 2.0 * math.pi):
            s = BarrierSetup.from_dimensionless(1e-10, wL)
            mag = transmission_closed_form(s.v, 0.5, s.wL).magnitude
            expected = 1.0 / math.sqrt(1.0 + math.sinh(wL / math.sqrt(2.0)) ** 2)
            assert mag == pytest.approx(expected, rel=1e-8)

    def test_nr_form_small_rho_limit_matches_edge_formula(self):
        v, wL = 10.0, 2.0 * math.pi
        s = BarrierSetup.from_dimensionless(v, wL)
        for edge_n2, edge in ((4.0, "lower"), (6.0, "upper")):
            mode = mode_from_n2(s, edge_n2 + (1e-9 if edge == "lower" else -1e-9))
            assert transmission_magnitude_nr_form(s.v, mode.n2, s.wL) == pytest.approx(
                edge_limit_magnitude_nr_form(v, wL, edge), rel=1e-8)

    def test_transparent_width_limit_at_fixed_n2(self):
        # rho wL -> 0 via wL -> 0: |T| ~ [1 + (n wL/2)^2]^(-1/2) up to
        # O(rho^2) corrections that vanish toward the edge
        v = 10.0
        for n2, tol in ((4.0 + 1e-6, 1e-6), (5.0, 2e-2)):
            for wL in (1e-2, 1e-3):
                s = BarrierSetup.from_dimensionless(v, wL)
                mag = abs(match_boundaries(s.v, n2, s.wL).T)
                approx = 1.0 / math.sqrt(1.0 + 0.25 * n2 * wL * wL)
                assert abs(mag - approx) <= tol * wL * wL


    @pytest.mark.parametrize("n2, wL", [(1.0, 1e160), (1.0, 1e300), (8.0, 1e300)])
    def test_infinite_phase_argument_is_a_domain_error(self, n2, wL):
        # in the Klein (n2 = 1) and above-barrier (n2 = 8) zones q_n wL
        # overflows to inf, where tan(q_n wL) is undefined
        msg = re.escape(f"q_n*wL is not finite at v=10.0, n2={n2}, wL={wL}")
        with pytest.raises(DomainError, match=msg):
            transmission_closed_form(10.0, n2, wL)
        with pytest.raises(DomainError, match=msg):
            normalized_phase_time(10.0, n2, wL)
        with pytest.raises(DomainError, match=msg):
            run_sweep(SweepRequest(v=10.0, wL=wL, n2_min=n2, n2_max=n2 + 1.0, count=2))

    def test_overflowing_d2_refuses_the_phase(self):
        # d2 = rho_n^2 wL^2 = inf makes tc = 1/inf = 0, although wL tc tends
        # to 1/rho_n: the phase read 0.0 instead of 1.3717...
        assert transmission_closed_form(10.0, 5.0, 1e154).phase == 1.371705473018485
        text = ("rho_n^2*wL^2 overflows, so the phase is not resolved "
                "at v=10.0, n2=5.0, wL=1e+155")
        with pytest.raises(DomainError, match=re.escape(text)):
            transmission_closed_form(10.0, 5.0, 1e155)
        # the sweep empties and names the phase and keeps the exact |T| = 0
        rec = run_sweep(SweepRequest(v=10.0, wL=1e155, n2_min=5.0, n2_max=5.5, count=2))[0]
        assert rec.t2_exact == 0.0 and rec.phase_rad is None
        assert rec.error.startswith(f"phase_rad: {text}")


class TestOscillatory:
    def test_resonances_are_transparent(self):
        s0 = make()
        mode = mode_from_energy(s0, 12.0)
        q = barrier_channel(s0, mode).q
        for N in (1, 2, 5):
            s = make(L=N * math.pi / q)
            mode = mode_from_energy(s, 12.0)
            point = transmission_closed_form(s.v, mode.n2, s.wL)
            assert point.magnitude == pytest.approx(1.0, abs=1e-12)
            sol = match_boundaries(s.v, mode.n2, s.wL)
            assert abs(sol.T) == pytest.approx(1.0, abs=1e-10)

    def test_quarter_wave_point(self):
        q = math.sqrt(3.0)
        s = make(L=0.5 * math.pi / q)
        mode = mode_from_energy(s, 12.0)
        point = transmission_closed_form(s.v, mode.n2, s.wL)
        assert point.magnitude == pytest.approx(MAG_OSC_E12_QL_HALFPI, rel=1e-12)
        sol = match_boundaries(s.v, mode.n2, s.wL)
        assert point.magnitude == pytest.approx(abs(sol.T), rel=1e-10)

    def test_no_barrier(self):
        s = make(L=0.0)
        point = transmission_closed_form(s.v, mode_from_energy(s, 12.0).n2, s.wL)
        assert point.magnitude == 1.0
        assert point.phase == 0.0
        assert point.winding == 0

    def test_matches_matcher_in_both_oscillatory_zones(self):
        rng = np.random.default_rng(23)
        for _ in range(400):
            v = float(rng.uniform(2.5, 50.0))
            s = BarrierSetup.from_dimensionless(v, float(rng.uniform(0.0, 10.0)))
            if rng.random() < 0.5:  # Klein zone
                n2 = float(rng.uniform(1e-2, max(0.5 * v - 1.0 - 1e-3, 1e-2)))
            else:  # above barrier
                n2 = float(rng.uniform(0.5 * v + 1.0 + 1e-3, 0.5 * v + 6.0))
            mode = mode_from_n2(s, n2)
            zone = classify_zone(s, mode.E)
            if zone not in (Zone.KLEIN, Zone.ABOVE_BARRIER):
                continue
            point = transmission_closed_form(s.v, mode.n2, s.wL)
            sol = match_boundaries(s.v, mode.n2, s.wL)
            assert point.magnitude == pytest.approx(abs(sol.T), rel=1e-10)
            # phases agree modulo the winding bookkeeping
            assert cmath.exp(1j * point.phase) == pytest.approx(
                sol.T / abs(sol.T), rel=1e-9)


def checked_phase(s, mode):
    """Closed-form phase, checked against the matcher's arg T modulo 2*pi."""
    phase = transmission_closed_form(s.v, mode.n2, s.wL).phase
    assert math.remainder(phase - match_boundaries(s.v, mode.n2, s.wL).arg_T, 2.0 * math.pi) == \
        pytest.approx(0.0, abs=1e-9)
    return phase


class TestPhaseContinuity:
    def test_continuous_across_both_edges(self):
        eps = 1e-8
        s = make(L=2.0 * math.pi / math.sqrt(20.0))
        for edge_E in (9.0, 11.0):
            below = mode_from_energy(s, edge_E - eps)
            above = mode_from_energy(s, edge_E + eps)
            at = mode_from_energy(s, edge_E)
            mags = [abs(match_boundaries(s.v, md.n2, s.wL).T) for md in (below, at, above)]
            assert mags[0] == pytest.approx(mags[1], abs=1e-6)
            assert mags[2] == pytest.approx(mags[1], abs=1e-6)
            phases = [checked_phase(s, md) for md in (below, at, above)]
            assert phases[0] == pytest.approx(phases[1], abs=1e-6)
            assert phases[2] == pytest.approx(phases[1], abs=1e-6)

    def test_unwrapped_phase_continuous_over_dense_grid(self):
        s = BarrierSetup.from_dimensionless(10.0, 2.0 * math.pi)
        grid = np.linspace(0.01, 8.0, 4000)
        phases = []
        for n2 in grid:
            if abs(abs(n2 - 5.0) - 1.0) < 1e-12:
                continue
            phases.append(checked_phase(s, mode_from_n2(s, float(n2))))
        steps = np.abs(np.diff(phases))
        assert steps.max() < 0.5  # no branch jumps anywhere

    def test_anchor_at_zero_width(self):
        s = make(L=0.0)
        for n2 in (0.5, 3.0, 5.0, 7.5):
            assert checked_phase(s, mode_from_n2(s, n2)) == pytest.approx(0.0, abs=1e-14)


class TestSymmetryAndTrends:
    def test_left_right_transmission_symmetry(self):
        # incidence from the right on the same barrier: T must be equal
        # (solved independently by mirroring the brute-force system)
        rng = np.random.default_rng(31)
        for _ in range(100):
            v = float(rng.uniform(0.5, 30.0))
            s = BarrierSetup.from_dimensionless(v, float(rng.uniform(0.1, 8.0)))
            n2 = float(rng.uniform(1e-2, 0.5 * v + 3.0))
            if abs(abs(n2 - 0.5 * v) - 1.0) < 1e-7:
                continue
            mode = mode_from_n2(s, n2)
            sol = match_boundaries(s.v, mode.n2, s.wL)
            # mirrored problem x -> L - x leaves V(x) invariant, so the
            # right-incidence solution is the brute solve unchanged
            _R, T, _a, _b = brute_solve(s, mode)
            assert abs(sol.T) == pytest.approx(abs(T), rel=1e-10)

    def test_barrier_shift_leaves_T_and_R_magnitude_invariant(self):
        # moving the barrier to [a, a+L] multiplies R by exp(2ika) and
        # leaves T untouched (phase convention: transmitted phase measured
        # from the right face); solved independently per shift
        def shifted_solve(setup, mode, a):
            k, L = mode.k, setup.L
            ch = barrier_channel(setup, mode)
            kappa = complex(ch.rho) if ch.kind == "evanescent" else 1j * ch.q
            u = cmath.exp(-kappa * L)
            ik = 1j * k
            ea = cmath.exp(1j * k * a)
            # unknowns (R, c1, c2, T); interior basis anchored at [a, a+L]
            A = np.array([
                [-cmath.exp(-1j * k * a), 1.0, u, 0.0],
                [ik * cmath.exp(-1j * k * a), -kappa, kappa * u, 0.0],
                [0.0, u, 1.0, -1.0],
                [0.0, -kappa * u, kappa, -ik],
            ], dtype=complex)
            rhs = np.array([ea, ik * ea, 0.0, 0.0], dtype=complex)
            R, _c1, _c2, T = np.linalg.solve(A, rhs)
            return R, T

        rng = np.random.default_rng(41)
        for _ in range(60):
            v = float(rng.uniform(0.5, 30.0))
            s = BarrierSetup.from_dimensionless(v, float(rng.uniform(0.1, 6.0)))
            n2 = float(rng.uniform(0.05, 0.5 * v + 2.0))
            if abs(abs(n2 - 0.5 * v) - 1.0) < 1e-7:
                continue
            mode = mode_from_n2(s, n2)
            sol = match_boundaries(s.v, mode.n2, s.wL)
            a = float(rng.uniform(0.2, 3.0))
            R_shift, T_shift = shifted_solve(s, mode, a)
            # shifting to [a, a+L]: |R| and |T| invariant; R gains exp(2ika)
            # and T gains exp(ika) (incident phase referenced to x = 0)
            assert abs(R_shift) == pytest.approx(abs(sol.R), rel=1e-9, abs=1e-12)
            assert abs(T_shift) == pytest.approx(abs(sol.T), rel=1e-9, abs=1e-12)
            assert T_shift / sol.T == pytest.approx(cmath.exp(1j * mode.k * a), rel=1e-8)
            if abs(sol.R) > 1e-8:
                assert R_shift / sol.R == pytest.approx(cmath.exp(2j * mode.k * a), rel=1e-8)

    def test_exact_mid_zone_transmission_decreases_with_v_at_fixed_mL(self):
        # exact matching: raising the barrier at fixed mL suppresses |T|
        # mid-zone (k L = v mL grows); the width-only transparency claim
        # holds for the NR-prefactor form, tested below
        mL = 0.1
        mags = []
        for v in np.geomspace(10.0, 1e4, 7):
            s = BarrierSetup(m=1.0, V0=float(v), L=mL)
            mags.append(abs(match_boundaries(s.v, 0.5 * float(v), s.wL).T))
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_nr_form_edge_magnitude_approaches_width_only_value(self):
        # [1 + wL^2/(2v -+ 4)]^(-1/2) -> [1 + (mL)^2]^(-1/2) monotonically
        mL = 0.1
        target = 1.0 / math.sqrt(1.0 + mL * mL)
        vals = []
        for v in np.geomspace(10.0, 1e4, 7):
            wL = math.sqrt(2.0 * float(v)) * mL
            vals.append(edge_limit_magnitude_nr_form(float(v), wL, "lower"))
        errors = [abs(x - target) for x in vals]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert vals[-1] == pytest.approx(target, rel=1e-4)


class TestAnyZoneDispatch:
    def test_dispatch_covers_all_zones(self):
        s = make(L=0.3)
        for E, winding_zero in ((5.0, False), (9.0, True), (10.0, True), (12.0, True)):
            point = transmission_closed_form(s.v, mode_from_energy(s, E).n2, s.wL)
            assert 0.0 < point.magnitude <= 1.0
            if winding_zero:
                assert point.winding == 0


def mp_transmission(v, n2, wL, dps=40):
    """dps-digit T from 1/T = cosh(rho L) - i (k^2 - rho^2)/(2 k rho) sinh(rho L).

    Written in the normalized variables (rho L = rho_n wL, k = n w); rho_n
    is imaginary in the oscillatory zones and sinh(rho L)/rho -> L at
    rho = 0.  Independent of the library: rho_n^2 comes from the factored
    form of sqrt(1 + 2 n2 v) - n2 - v/2.
    """
    with mpmath.workdps(dps):
        v, n2, wL = mpmath.mpf(v), mpmath.mpf(n2), mpmath.mpf(wL)
        r2 = (1 - n2 + v / 2) * (1 + n2 - v / 2) / (mpmath.sqrt(1 + 2 * n2 * v) + n2 + v / 2)
        rho = mpmath.sqrt(mpmath.mpc(r2))
        sinh_over_rho = mpmath.sinh(rho * wL) / rho if r2 else wL
        inv_t = mpmath.cosh(rho * wL) - 1j * (n2 - r2) / (2 * mpmath.sqrt(n2)) * sinh_over_rho
        return 1 / inv_t


def mp_reflection(v, n2, wL, t_mp):
    """40-digit R = -i (k^2 + rho^2)/(2 k rho) sinh(rho L) T, same variables."""
    with mpmath.workdps(40):
        v, n2, wL = mpmath.mpf(v), mpmath.mpf(n2), mpmath.mpf(wL)
        r2 = (1 - n2 + v / 2) * (1 + n2 - v / 2) / (mpmath.sqrt(1 + 2 * n2 * v) + n2 + v / 2)
        rho = mpmath.sqrt(mpmath.mpc(r2))
        sinh_over_rho = mpmath.sinh(rho * wL) / rho if r2 else wL
        return -1j * (n2 + r2) / (2 * mpmath.sqrt(n2)) * sinh_over_rho * t_mp


def mp_nr_form(v, n2, wL):
    """40-digit |T| with the NR prefactor, 1/sqrt(1 + wL^2 sinhc(d2)^2 / (4 n2)).

    sinh(d)^2/(4 n2 rho_n^2) is written as wL^2 sinhc^2/(4 n2) with
    sinhc = sinh(d)/d continued to sin(t)/t for d2 = -t^2 < 0 and 1 at
    rho_n = 0; rho_n^2 is the factored form of mp_transmission.
    """
    with mpmath.workdps(40):
        v, n2, wL = mpmath.mpf(v), mpmath.mpf(n2), mpmath.mpf(wL)
        r2 = (1 - n2 + v / 2) * (1 + n2 - v / 2) / (mpmath.sqrt(1 + 2 * n2 * v) + n2 + v / 2)
        d = mpmath.sqrt(mpmath.mpc(r2 * wL * wL))
        sinhc = mpmath.re(mpmath.sinh(d) / d) if r2 else 1
        return 1 / mpmath.sqrt(1 + wL * wL * sinhc * sinhc / (4 * n2))


@st.composite
def barrier_points(draw):
    """(v, n2, wL) over all zones, both edges and wL from 0.3 to 400.

    v = 0 is the Schroedinger barrier, where rho_n^2 = 1 - n2 exactly.
    """
    v = draw(st.one_of(st.just(0.0), st.floats(0.3, 60.0)))
    wL = 10.0 ** draw(st.floats(math.log10(0.3), math.log10(400.0)))
    if draw(st.booleans()):
        return v, draw(st.floats(1e-3, 0.5 * v + 6.0)), wL
    edges = [0.5 * v + 1.0] + ([0.5 * v - 1.0] if v > 2.01 else [])
    edge = draw(st.sampled_from(edges))
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-15.0, -3.0))
    return v, edge * (1.0 + offset), wL


class TestSingleClosedForm:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(barrier_points())
    def test_matches_40_digit_reference(self, point):
        v, n2, wL = point
        closed = transmission_closed_form(v, n2, wL)
        ref = mp_transmission(v, n2, wL)
        assert closed.magnitude == pytest.approx(float(abs(ref)), rel=1e-11)
        gap = math.remainder(closed.phase - float(mpmath.arg(ref)), 2.0 * math.pi)
        assert abs(gap) <= 1e-11
        assert abs(closed.T - complex(ref)) <= 1e-11
        assert abs(closed.R - complex(mp_reflection(v, n2, wL, ref))) <= 1e-11

    @pytest.mark.parametrize("v", [0.5, 3.0, 10.0, 40.0])
    def test_exact_edge_identities(self, v):
        wL = 2.0 * math.pi
        s = BarrierSetup.from_dimensionless(v, wL)
        edges = [(0.5 * v + 1.0, "upper")] + ([(0.5 * v - 1.0, "lower")] if v > 2.0 else [])
        for n2, edge in edges:
            mode = mode_from_n2(s, n2)
            assert classify_zone(s, mode.E).value.startswith("Edge")
            # the matcher's linear branch T = 2/(2 - ikL)
            linear = 2.0 / (2.0 - 1j * mode.k * s.L)
            point = transmission_closed_form(s.v, mode.n2, s.wL)
            assert point.magnitude == pytest.approx(abs(linear), rel=1e-15)
            assert point.phase == pytest.approx(cmath.phase(linear), rel=1e-15)
            assert point.winding == 0
            assert match_boundaries(s.v, mode.n2, s.wL).T == pytest.approx(linear, rel=1e-15)
            assert transmission_magnitude_nr_form(s.v, mode.n2, s.wL) == pytest.approx(
                edge_limit_magnitude_nr_form(v, wL, edge), rel=1e-15)
            # the ratio has no edge branch: it lands on the edge value to roundoff
            ratio = normalized_phase_time(v, n2, wL)
            assert ratio == pytest.approx(edge_phase_time_ratio(v, wL, edge), rel=1e-14)
            assert ratio == pytest.approx(mp_ratio(v, n2, wL), rel=1e-14)

    # one point per branch of the NR form, each bound set from the measured
    # relative error of |T| (1.9e-16, 4.2e-17, 8.4e-15, 3.4e-14 and 3.0e-17);
    # the -sin^2 point is an upper edge where rho_n^2 rounds to -2.2e-17
    # (the series point sits 2e-9 below the edge: at 1e-9 the sweep snaps it)
    @pytest.mark.parametrize("v, n2, wL, branch, rtol", [
        (10.0, 6.0, 2.0 * math.pi, "edge", 5e-16),
        (10.0, 6.0 * (1.0 - 2e-9), 2.0 * math.pi, "series", 5e-16),
        (10.0, 5.0, 400.0, "sinh", 2e-14),
        (10.0, 5.0, 1600.0, "asymptote", 5e-14),
        (0.0137, 0.5 * 0.0137 + 1.0, 3e5, "-sin", 1e-16)])
    def test_nr_form_matches_40_digit_reference(self, v, n2, wL, branch, rtol):
        d2 = rho_n2(v, n2) * wL * wL
        assert branch == ("edge" if d2 == 0.0 else "series" if abs(d2) < SERIES_CUT
                          else "asymptote" if d2 > LARGE_D2 else "sinh" if d2 > 0.0 else "-sin")
        ref = mp_nr_form(v, n2, wL)
        s = BarrierSetup.from_dimensionless(v, wL)
        assert s.wL == wL
        mag = transmission_magnitude_nr_form(s.v, n2, s.wL)
        assert abs(mag - ref) <= rtol * ref
        # the sweep column at the same point; at wL = 1600 |T|^2 is subnormal
        # and keeps about 45 bits
        (rec, _) = run_sweep(SweepRequest(v=v, wL=wL, n2_min=n2, n2_max=n2 * 1.001, count=2,
                                          outputs=("T2_nr_form",)))
        assert rec.n2 == n2
        assert abs(rec.t2_nr_form - ref * ref) <= 2.0 * rtol * ref * ref + 5e-324

    # a tiny n2 overflows the prefactor 1/(4 n2 rho_n^2), or its product with sinh^2,
    # where |T| is about 3e-156 (and |T|^2 subnormal): both read 0.0 there before.
    # v = 2 reaches the rho_n^2 = 0 lane, as rho_n2(2, 1e-310) rounds to 0.0
    @pytest.mark.parametrize("v, n2, wL, rtol", [
        (1.0, 1e-310, 2.0 * math.pi, 5e-16),
        (2.0, 1e-310, 2.0 * math.pi, 5e-16),
        (0.5, 4e-308, 2.0 * math.pi, 5e-16),
        (1.0, 1e-310, 500.0, 5e-14)])
    def test_nr_form_where_the_prefactor_overflows(self, v, n2, wL, rtol):
        ref = mp_nr_form(v, n2, wL)
        s = BarrierSetup.from_dimensionless(v, wL)
        mag = transmission_magnitude_nr_form(s.v, n2, s.wL)
        assert mag > 0.0 and abs(mag - ref) <= rtol * ref
        (rec, _) = run_sweep(SweepRequest(v=v, wL=wL, n2_min=n2, n2_max=1e-3, count=2,
                                          outputs=("T2_nr_form",)))
        assert rec.n2 == n2
        assert abs(rec.t2_nr_form - ref * ref) <= 2.0 * rtol * ref * ref + 5e-324

    # on the snapped upper edge of v = 15.527620836643477 rho_n^2 rounds to
    # -5.4e-17, so the NR form takes its sin^2 lane: at wL = 1e154 it returned
    # 4.3445e-08 from a noise phase (|T| on the exact edge is about 5.9e-154), and at
    # 1e200 it raised a bare ValueError from math.sin(inf).  It refuses as
    # the closed form does, which has |T| refused there too
    @pytest.mark.parametrize("wL, text", [
        (1e154, "q_n*wL is too large to resolve the phase modulo pi"),
        (1e200, "q_n*wL is not finite")], ids=["cutoff", "infinite"])
    def test_nr_form_past_the_cutoff_on_a_snapped_edge(self, wL, text):
        v = 15.527620836643477
        n2 = 0.5 * v + 1.0
        assert -6e-17 < rho_n2(v, n2) < 0.0
        msg = f"^{re.escape(f'{text} at v={v}, n2={n2}, wL={wL}')}$"
        for call in (transmission_magnitude_nr_form, transmission_closed_form):
            with pytest.raises(DomainError, match=msg):
                call(v, n2, wL)

    # a tiny n2 overflows X = ((n2 + rho_n^2)/(2n)) wL sinhc(d2) itself, where |T| < 6e-309:
    # |T| read 0.0 and R nan there before.  |T| is subnormal, so the bound allows one
    # ulp of it (5e-324, 2e-11 relative at n2 = 5e-324)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n2", [1e-320, 1e-315, 5e-324])
    def test_magnitude_and_reflection_where_x_overflows(self, n2):
        v, wL = 1.0, 494.0
        ref = mp_transmission(v, n2, wL, dps=60)
        point = transmission_closed_form(v, n2, wL)
        assert abs(point.magnitude - float(abs(ref))) <= 1e-12 * float(abs(ref)) + 5e-324
        assert abs(point.T - complex(ref)) <= 1e-12 * float(abs(ref)) + 5e-324
        assert abs(point.R - complex(mp_reflection(v, n2, wL, ref))) <= 1e-12
        assert point.probability == 0.0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(barrier_points())
    def test_ratio_never_moves_the_amplitudes(self, point):
        # asking the core for t_phi/tau leaves T, R and the phase bitwise alone
        v, n2, wL = point
        with_ratio = _closed_forms(v, np.array([n2]), wL, ratio=True)
        without = _closed_forms(v, np.array([n2]), wL)
        assert _rows(with_ratio)[0][:-1] == _rows(without)[0][:-1]
        assert without.ratio is None


def _rows(columns):
    """The core's columns as one tuple of Python scalars per point, repr-comparable."""
    count = len(columns.mag)
    return list(zip(*(([None] * count) if col is None else col.tolist() for col in columns)))


@st.composite
def core_grids(draw):
    """(v, grid, wL): random n2 grids over every zone and both exact edges.

    v = 0, the v = 2 threshold with n2 down to 1e-13, and opaque wL = 400,
    where d2 passes LARGE_D2 in the tunneling zone at small v.
    """
    v = draw(st.one_of(st.just(0.0), st.just(2.0), st.floats(0.3, 60.0)))
    wL = draw(st.one_of(st.just(400.0),
                        st.floats(math.log10(0.3), math.log10(400.0)).map(lambda e: 10.0 ** e)))
    edges = [0.5 * v + 1.0] + ([0.5 * v - 1.0] if v > 2.0 else [])
    n2 = st.one_of(
        st.floats(1e-3, 0.5 * v + 6.0),
        st.sampled_from(edges),
        st.floats(-13.0, -1.0).map(lambda e: 10.0 ** e),
        st.tuples(st.sampled_from(edges), st.floats(-15.0, -3.0), st.booleans()).map(
            lambda t: t[0] * (1.0 + (-1.0 if t[2] else 1.0) * 10.0 ** t[1])))
    return v, draw(st.lists(n2, min_size=1, max_size=12)), wL


class TestGridCore:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(core_grids())
    @example((0.0, [1e-3, 0.2, 1.0, 3.0], 400.0))
    @example((2.0, [1e-13, 1e-7, 2.0], 1.0))
    def test_grid_is_the_one_point_calls(self, grid_point):
        # repr compares bitwise (signed zeros, nan and inf included)
        v, grid, wL = grid_point
        for ratio in (False, True):
            points = _rows(_closed_forms(v, np.array(grid), wL, ratio=ratio))
            one_by_one = [p for n2 in grid
                          for p in _rows(_closed_forms(v, np.array([n2]), wL, ratio=ratio))]
            assert repr(points) == repr(one_by_one)
            # no state carries from one point to the next
            assert repr(_rows(_closed_forms(v, np.array(grid[::-1]), wL, ratio=ratio))) == (
                repr(points[::-1]))
