import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kleintunnel import (
    BarrierSetup,
    DomainError,
    KleinTunnelError,
    SweepRecord,
    SweepRequest,
    match_boundaries,
    mode_from_n2,
    normalized_phase_time,
    normalized_phase_time_numeric,
    read_csv,
    run_sweep,
    transmission_closed_form,
    write_csv,
    write_json,
)
from kleintunnel.kinematics import rho_n2
from kleintunnel.scattering import _nr_form_from_r2
from kleintunnel.sweep import CSV_COLUMNS, fig1_request
from test_phasetime import mp_ratio


def nr_form(v, n2, wL):
    """The NR-prefactor |T| at one point and the requested wL."""
    return _nr_form_from_r2(np.array([n2]), np.array([rho_n2(v, n2)]), wL).item()


def small_request(**kw):
    base = dict(v=10.0, wL=2.0 * math.pi, n2_min=4.2, n2_max=5.8, count=5)
    base.update(kw)
    return SweepRequest(**base)


class TestRequestValidation:
    def test_rejects_bad_grids(self):
        with pytest.raises(DomainError):
            small_request(n2_min=0.0)
        with pytest.raises(DomainError):
            small_request(n2_max=4.0)
        with pytest.raises(DomainError):
            small_request(count=1)

    @pytest.mark.parametrize("field", ["v", "wL", "n2_max"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(DomainError):
            small_request(**{field: value})

    def test_rejects_empty_or_unknown_outputs(self):
        with pytest.raises(DomainError):
            small_request(outputs=())
        with pytest.raises(DomainError):
            small_request(outputs=("T2_exact", "bogus"))

    @pytest.mark.parametrize("count", [2.5, 3.0, True, "3"])
    def test_rejects_non_integer_count(self, count):
        with pytest.raises(DomainError, match="count must be an integer"):
            small_request(count=count)

    def test_accepts_numpy_integer_count(self):
        assert len(small_request(count=np.int64(3)).grid()) == 3

    def test_grid_is_inclusive_linear(self):
        grid = small_request(count=5).grid()
        assert grid[0] == 4.2 and grid[-1] == 5.8
        assert len(grid) == 5
        assert np.allclose(np.diff(grid), 0.4)


@st.composite
def sweep_requests(draw):
    """Small requests over every zone, both snapped edges, v = 0, the v = 2
    threshold down to n2 = 1e-13, an opaque wL = 400 and wL = 0."""
    v = draw(st.one_of(st.just(0.0), st.just(2.0), st.just(10.0), st.floats(0.3, 60.0)))
    wL = draw(st.one_of(st.just(0.0), st.just(400.0), st.just(2.0 * math.pi),
                        st.floats(-0.5, math.log10(400.0)).map(lambda e: 10.0 ** e)))
    edges = [0.5 * v + 1.0] + ([0.5 * v - 1.0] if v > 2.0 else [])
    # offsets below EDGE_SNAP_RTOL = 1e-9 are snapped onto the edge
    n2 = st.one_of(
        st.floats(1e-3, 0.5 * v + 6.0),
        st.floats(-13.0, -1.0).map(lambda e: 10.0 ** e),
        st.tuples(st.sampled_from(edges), st.floats(-15.0, -3.0), st.booleans()).map(
            lambda t: t[0] * (1.0 + (-1.0 if t[2] else 1.0) * 10.0 ** t[1])))
    lo, hi = sorted(draw(st.lists(n2, min_size=2, max_size=2, unique=True)))
    return SweepRequest(v=v, wL=wL, n2_min=lo, n2_max=hi, count=draw(st.integers(2, 6)))


class TestSweepIsAMap:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sweep_requests())
    @example(SweepRequest(v=2.0, wL=1.0, n2_min=1e-13, n2_max=3.0, count=3))
    @example(SweepRequest(v=10.0, wL=400.0, n2_min=0.004, n2_max=8.0, count=6))
    @example(SweepRequest(v=10.0, wL=2.0 * math.pi, n2_min=4.0 - 3e-10, n2_max=6.0 + 1e-10,
                          count=5))
    @example(SweepRequest(v=0.0, wL=2.0 * math.pi, n2_min=0.5, n2_max=1.0 + 1e-10, count=4))
    def test_single_points_match_direct_calls_bitwise(self, req):
        # every column is the public (or per-point) call at the row's n2,
        # compared by repr: bitwise, signed zeros included
        v, wL = req.v, req.wL
        for rec in run_sweep(req):
            n2 = rec.n2
            point = transmission_closed_form(v, n2, wL)
            assert repr(rec.t2_exact) == repr(point.probability)
            assert repr(rec.phase_rad) == repr(point.phase)
            # wL = 0 (tau = 0) leaves t_phi/tau undefined: both ratio columns refuse
            closed = None if wL == 0.0 else normalized_phase_time(v, n2, wL)
            assert repr(rec.ratio_closed) == repr(closed)
            edge_or_tunneling = 0.5 * v - 1.0 <= n2 <= 0.5 * v + 1.0
            t2_nr = None if not edge_or_tunneling else (
                point.probability if v == 0.0 else nr_form(v, n2, wL) ** 2)
            assert repr(rec.t2_nr_form) == repr(t2_nr)
            assert repr(rec.e_over_m) == repr(math.sqrt(1.0 + 2.0 * n2 * v) if v > 0.0 else None)
            zero_width = "wL=0: tau=0 and t_phi/tau is undefined"
            closed_error = [f"ratio_closed: {zero_width}"] if wL == 0.0 else []
            if rec.nudged:
                assert rec.zone.startswith("Edge") and rec.ratio_numeric is None
                assert rec.error == "; ".join(
                    closed_error + [f"ratio_numeric: n2={n2} lies on a zone edge"])
                continue
            try:
                numeric = normalized_phase_time_numeric(v, n2, wL)
            except KleinTunnelError:
                numeric = None
            assert repr(rec.ratio_numeric) == repr(numeric)
            if wL == 0.0:
                assert rec.error == "; ".join(closed_error + [f"ratio_numeric: {zero_width}"])
            else:
                assert rec.error is None

    def test_t2_exact_is_checked_by_the_matcher(self):
        # the matcher stays the independent check of the column
        setup = BarrierSetup.from_dimensionless(10.0, 2.0 * math.pi)
        for rec in run_sweep(small_request(n2_min=4.7, n2_max=5.3, count=2)):
            mode = mode_from_n2(setup, rec.n2)
            assert rec.t2_exact == pytest.approx(abs(match_boundaries(setup, mode).T) ** 2,
                                                 rel=1e-12)

    def test_one_rho_n2_per_grid_point(self, monkeypatch):
        # the closed form, the NR column and the oracle share the row's rho_n^2:
        # every n2 that any module evaluates it at, by either name, is counted
        import kleintunnel.kinematics as kin

        calls = []
        for fname in ("rho_n2", "_rho_n2_columns"):
            original = getattr(kin, fname)

            def counted(v, n2, original=original):
                calls.extend(np.atleast_1d(n2).tolist())
                return original(v, n2)

            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "kleintunnel" and getattr(module, fname, None) is original:
                    monkeypatch.setattr(module, fname, counted)
        # Klein, both edges, tunneling and above-barrier rows, every column
        req = SweepRequest(v=10.0, wL=2.0 * math.pi, n2_min=1.0, n2_max=8.0, count=15)
        recs = run_sweep(req)
        assert {r.zone for r in recs} == {"Klein", "EdgeLower", "Tunneling", "EdgeUpper",
                                         "AboveBarrier"}
        assert calls == [r.n2 for r in recs]

    def test_nr_form_at_the_requested_wL(self):
        # a barrier built from (v, wL) = (1, 2 pi) has w*L one ulp off 2 pi;
        # the sweep evaluates T2_nr_form, like every other column, at the
        # requested wL
        wL = 2.0 * math.pi
        assert BarrierSetup.from_dimensionless(1.0, wL).wL != wL
        req = SweepRequest(v=1.0, wL=wL, n2_min=0.01, n2_max=1.49, count=60,
                           outputs=("T2_nr_form",))
        for rec in run_sweep(req):
            assert rec.zone == "Tunneling"
            assert rec.t2_nr_form == nr_form(1.0, rec.n2, wL) ** 2

    @pytest.mark.parametrize("v, wL, n2_min, n2_max, count", [
        (10.0, 2.0 * math.pi, 0.5, 30.0, 2), (10.0, 400.0, 0.5, 3.5, 3)])
    def test_phase_is_the_closed_form_on_coarse_grids(self, v, wL, n2_min, n2_max, count):
        # the closed form's phase is continuous in n2 by construction; a grid
        # too coarse to follow it must not change it
        req = SweepRequest(v=v, wL=wL, n2_min=n2_min, n2_max=n2_max, count=count,
                           outputs=("phase_rad",))
        for rec in run_sweep(req):
            assert rec.phase_rad == transmission_closed_form(v, rec.n2, wL).phase

    def test_sweep_builds_no_transmission_point(self, monkeypatch):
        import kleintunnel.scattering

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep built a TransmissionPoint")

        monkeypatch.setattr(kleintunnel.scattering, "TransmissionPoint", refuse)
        # n2 = 2, 3, ..., 8 at v = 10: Klein, both edges, tunneling, above
        recs = run_sweep(SweepRequest(v=10.0, wL=2.0 * math.pi, n2_min=2.0, n2_max=8.0,
                                      count=7))
        assert [r.zone for r in recs] == ["Klein", "Klein", "EdgeLower", "Tunneling",
                                          "EdgeUpper", "AboveBarrier", "AboveBarrier"]
        assert all(r.t2_exact is not None and r.ratio_closed is not None for r in recs)

    def test_one_core_call_per_request(self, monkeypatch):
        import kleintunnel.sweep as sw

        grids = []
        original = sw._closed_forms

        def counted(v, n2s, wL, **kwargs):
            grids.append(n2s.tolist())
            return original(v, n2s, wL, **kwargs)

        monkeypatch.setattr(sw, "_closed_forms", counted)
        # both edges are snapped before the call, and every column is on
        recs = run_sweep(small_request(n2_min=3.9, n2_max=6.1, count=23))
        assert grids == [[rec.n2 for rec in recs]]
        del grids[:]
        run_sweep(small_request(outputs=("T2_exact",)))
        assert len(grids) == 1

    def test_record_is_an_immutable_tuple(self):
        rec = run_sweep(small_request(count=2))[0]
        with pytest.raises(AttributeError):
            rec.t2_exact = 0.0
        assert rec == tuple(rec)
        assert SweepRecord(1.0, None, "Klein") == (1.0, None, "Klein") + (None,) * 5 + (False, None)

    def test_requested_outputs_only(self):
        recs = run_sweep(small_request(outputs=("T2_exact",)))
        for rec in recs:
            assert rec.t2_exact is not None
            assert rec.phase_rad is None
            assert rec.ratio_closed is None


class TestEdgeHandling:
    def test_grid_point_on_edge_is_snapped_and_flagged(self):
        req = small_request(n2_min=4.0 - 3e-10, n2_max=5.0, count=2)
        recs = run_sweep(req)
        rec = recs[0]
        assert rec.nudged
        assert rec.n2 == 4.0
        assert rec.zone == "EdgeLower"
        # edge values: |T|^2 = 4/(4 + (kL)^2)
        kL = 2.0 * 2.0 * math.pi
        assert rec.t2_exact == pytest.approx(4.0 / (4.0 + kL * kL), rel=1e-12)
        assert rec.ratio_numeric is None
        assert "edge" in rec.error

    def test_near_edge_but_outside_tolerance_not_snapped(self):
        req = small_request(n2_min=4.0 + 1e-6, n2_max=5.0, count=2)
        recs = run_sweep(req)
        assert not recs[0].nudged
        assert recs[0].zone == "Tunneling"

    def test_errors_never_abort_the_sweep(self):
        req = small_request(n2_min=3.9, n2_max=6.1, count=23)  # hits both edges
        recs = run_sweep(req)
        assert len(recs) == 23

    def test_closed_ratio_refusal_keeps_the_row(self):
        # at v = 2 the lower edge is n2 = 0; within 1e-12 of it the closed
        # ratio is filled and exact (no edge refusal), and the row keeps every
        # other column.  The zone compares n2 with v/2 - 1 = 0, so n2 = 1e-13
        # is not an edge row even though E - (V0 - m) lies within EDGE_RTOL
        recs = []
        for n2 in (1e-13, 8e-13):
            first, last = run_sweep(SweepRequest(v=2.0, wL=1.0, n2_min=n2, n2_max=0.5, count=2))
            assert last.error is None
            recs.append(first)
        assert recs[0].ratio_closed == pytest.approx(2.9999999999988336e-13, rel=1e-12)
        for rec in recs:
            assert rec.zone == "Tunneling" and not rec.nudged
            assert rec.ratio_closed == pytest.approx(mp_ratio(2.0, rec.n2, 1.0), rel=1e-12)
            assert rec.ratio_numeric is not None and rec.error is None
            point = transmission_closed_form(2.0, rec.n2, 1.0)
            assert rec.e_over_m == pytest.approx(math.sqrt(1.0 + 4.0 * rec.n2), rel=1e-15)
            assert rec.t2_exact == point.probability
            assert rec.phase_rad == point.phase
            assert rec.t2_nr_form is not None


class TestOverflow:
    def test_rho_overflow_is_a_domain_error(self):
        # (1 - n2 + v/2)(1 + n2 - v/2) overflows to -inf at n2 = 1e300
        with pytest.raises(DomainError, match=r"rho_n\^2 is not finite"):
            run_sweep(small_request(n2_min=1.0, n2_max=1e300, count=2))

    def test_non_finite_ratio_empties_its_cell(self):
        # t_phi/tau -> 1 far above the barrier, and at n2 = 1e150 nothing
        # in the ratio overflows: the cell is filled (only phase_rad is
        # refused there, see test_unresolved_phase_is_refused)
        rec = run_sweep(small_request(n2_min=1.0, n2_max=1e150, count=2))[-1]
        assert rec.ratio_closed == pytest.approx(1.0, abs=1e-15)
        assert rec.error.startswith("phase_rad:") and "ratio_closed" not in rec.error
        assert None not in (rec.t2_exact, rec.ratio_numeric)

    def test_ratio_overflow_empties_its_cell(self):
        # just below where rho_n^2 itself overflows, the ratio's u and P do:
        # the cell is emptied and named, the row keeps the rest
        rec = run_sweep(small_request(n2_min=1.0, n2_max=1e154, count=2))[-1]
        assert rec.ratio_closed is None
        assert "; ratio_closed: t_phi/tau is not finite" in rec.error
        assert None not in (rec.t2_exact, rec.ratio_numeric)

    def test_unresolved_phase_is_refused(self):
        # at n2 = 1e150, q_n wL ~ 6e75 rad: one ulp of it dwarfs pi, so the
        # phase modulo pi is unknown; the cell is emptied and named and the
        # rest of the row, ratio_closed included, is kept
        req = SweepRequest(v=10, wL=2.0 * math.pi, n2_min=1, n2_max=1e150, count=2)
        first, last = run_sweep(req)
        assert first.error is None and first.phase_rad is not None
        assert last.phase_rad is None
        assert last.error == ("phase_rad: q_n*wL is too large to resolve the phase modulo pi "
                              f"at v=10, n2=1e+150, wL={2.0 * math.pi}")
        assert last.ratio_closed == pytest.approx(1.0, abs=1e-15)
        assert None not in (last.t2_exact, last.ratio_numeric)
        # the cutoff lies between q_n wL = 1e15 and 1e17 (q_n ~ n far above the barrier)
        first, last = run_sweep(SweepRequest(v=10.0, wL=1.0, n2_min=1e30, n2_max=1e34, count=2))
        assert first.phase_rad is not None and first.error is None
        assert last.phase_rad is None and last.error.startswith("phase_rad:")


class TestNRPipeline:
    def test_v0_matches_nr_functions(self):
        # v = 0 is the closed forms at v = 0 (the Schroedinger barrier)
        wL = 2.0 * math.pi
        req = SweepRequest(v=0.0, wL=wL, n2_min=0.1, n2_max=2.9, count=15)
        for rec in run_sweep(req):
            assert rec.e_over_m is None
            point = transmission_closed_form(0.0, rec.n2, wL)
            assert rec.t2_exact == point.probability
            assert rec.phase_rad == point.phase
            assert rec.ratio_closed == normalized_phase_time(0.0, rec.n2, wL)
            expected_zone = "Tunneling" if rec.n2 < 1.0 else "AboveBarrier"
            assert rec.zone == expected_zone
            assert rec.t2_nr_form == (point.probability if rec.n2 < 1.0 else None)

    def test_v0_edge_row_refused_by_the_oracle(self):
        wL = 2.0 * math.pi
        req = SweepRequest(v=0.0, wL=wL, n2_min=0.5, n2_max=1.0, count=2)
        rec = run_sweep(req)[-1]
        assert rec.nudged and rec.zone == "EdgeUpper"
        assert rec.ratio_closed == (1.5 + wL * wL / 3.0) / (1.0 + 0.25 * wL * wL)
        assert rec.ratio_numeric is None
        assert rec.error == "ratio_numeric: n2=1.0 lies on a zone edge"
        # the same refusal at v > 0
        rec = run_sweep(small_request(n2_min=4.0 - 3e-10, n2_max=5.0, count=2))[0]
        assert rec.nudged and rec.zone == "EdgeLower"
        assert rec.error == "ratio_numeric: n2=4.0 lies on a zone edge"

    def test_v0_phase_continuity(self):
        req = SweepRequest(v=0.0, wL=2.0 * math.pi, n2_min=0.01, n2_max=3.0, count=800)
        phases = [r.phase_rad for r in run_sweep(req)]
        assert max(abs(b - a) for a, b in zip(phases, phases[1:])) < 0.5

    def test_phase_continuity_through_edge_rows(self):
        # the snapped edge rows must not break the unwrapped phase column
        recs = run_sweep(fig1_request(10.0))
        assert sum(r.nudged for r in recs) == 2
        phases = [r.phase_rad for r in recs if r.phase_rad is not None]
        assert max(abs(b - a) for a, b in zip(phases, phases[1:])) < 0.2


class TestRatioZeroCrossing:
    def test_v10_crossing_located_by_bisection(self):
        # the phase-time ratio at v=10, wL=2pi is negative near n2=4 and
        # crosses zero exactly once inside the tunneling zone; bisection
        # on the sweep output must agree with the closed form
        wL = 2.0 * math.pi
        req = SweepRequest(v=10.0, wL=wL, n2_min=4.01, n2_max=5.99, count=400)
        recs = run_sweep(req)
        brackets = [(a.n2, b.n2) for a, b in zip(recs, recs[1:])
                    if a.ratio_closed * b.ratio_closed < 0.0]
        assert len(brackets) == 1
        lo, hi = brackets[0]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if normalized_phase_time(10.0, lo, wL) * normalized_phase_time(10.0, mid, wL) <= 0.0:
                hi = mid
            else:
                lo = mid
        crossing = 0.5 * (lo + hi)
        assert brackets[0][0] <= crossing <= brackets[0][1]
        assert abs(normalized_phase_time(10.0, crossing, wL)) < 1e-10
        assert 4.0 < crossing < 6.0


class TestZoneConsistency:
    # each grid crosses every edge that v has (v = 1 has only the upper one)
    @pytest.mark.parametrize("v, n2_min, n2_max", [
        (1.0, 0.01, 3.0), (2.5, 0.01, 4.5), (10.0, 0.5, 7.5), (100.0, 1.0, 76.0)])
    def test_zone_tags_reclassified_from_e_over_m(self, v, n2_min, n2_max):
        from kleintunnel import classify_zone
        req = SweepRequest(v=v, wL=2.0 * math.pi, n2_min=n2_min, n2_max=n2_max, count=200,
                           outputs=("T2_exact",))
        setup = BarrierSetup.from_dimensionless(v, 2.0 * math.pi)
        zones = set()
        for rec in run_sweep(req):
            if rec.nudged:
                continue
            zone = classify_zone(setup, rec.e_over_m * setup.m)
            assert rec.zone == zone.value
            zones.add(zone.value)
        assert zones == ({"Tunneling", "AboveBarrier"} if v < 2.0 else
                         {"Klein", "Tunneling", "AboveBarrier"})


class TestSerialization:
    def test_csv_round_trip_exact(self, tmp_path):
        recs = run_sweep(small_request(n2_min=3.9, n2_max=6.1, count=31))
        path = tmp_path / "sweep.csv"
        write_csv(recs, path)
        assert read_csv(path) == recs

    def test_csv_round_trip_random_records(self, tmp_path):
        rng = np.random.default_rng(17)
        recs = []
        for i in range(100):
            def maybe():
                return None if rng.random() < 0.3 else float(rng.standard_normal())
            recs.append(SweepRecord(
                n2=float(rng.uniform(0.1, 9.0)), e_over_m=maybe(), zone="Tunneling",
                t2_exact=maybe(), t2_nr_form=maybe(), phase_rad=maybe(),
                ratio_closed=maybe(), ratio_numeric=maybe(),
                nudged=bool(rng.random() < 0.1)))
        path = tmp_path / "rand.csv"
        write_csv(recs, path)
        back = read_csv(path)
        for a, b in zip(recs, back):
            assert a == pytest.approx(b) or a == b  # exact float round trip
        assert [r.n2 for r in back] == [r.n2 for r in recs]

    def test_csv_bytes_of_hand_built_records(self, tmp_path):
        full = dict(n2=1e-300, e_over_m=1.0, zone="Tunneling", t2_exact=0.25, t2_nr_form=-0.0,
                    phase_rad=3.141592653589793, ratio_closed=-1e-300, ratio_numeric=2.5,
                    nudged=True)
        # all cells empty, none empty, then each value column empty alone
        recs = [SweepRecord(n2=0.5, e_over_m=None, zone="Klein"), SweepRecord(**full)] + [
            SweepRecord(**{**full, field: None}) for field in (
                "e_over_m", "t2_exact", "t2_nr_form", "phase_rad", "ratio_closed",
                "ratio_numeric")]
        path = tmp_path / "hand.csv"
        write_csv(recs, path)
        assert path.read_bytes() == (
            b"n2,E_over_m,zone,T2_exact,T2_nr_form,phase_rad,ratio_closed,ratio_numeric,nudged\n"
            b"0.5,,Klein,,,,,,\n"
            b"1e-300,1.0,Tunneling,0.25,-0.0,3.141592653589793,-1e-300,2.5,true\n"
            b"1e-300,,Tunneling,0.25,-0.0,3.141592653589793,-1e-300,2.5,true\n"
            b"1e-300,1.0,Tunneling,,-0.0,3.141592653589793,-1e-300,2.5,true\n"
            b"1e-300,1.0,Tunneling,0.25,,3.141592653589793,-1e-300,2.5,true\n"
            b"1e-300,1.0,Tunneling,0.25,-0.0,,-1e-300,2.5,true\n"
            b"1e-300,1.0,Tunneling,0.25,-0.0,3.141592653589793,,2.5,true\n"
            b"1e-300,1.0,Tunneling,0.25,-0.0,3.141592653589793,-1e-300,,true\n")
        assert read_csv(path) == recs

    def test_opaque_klein_grid_digest_pinned(self, tmp_path):
        # wL = 400 reaches an opaque barrier (|T|^2 down to 3e-79) and about
        # 250 Klein windings, which the fig1 presets (wL = 2 pi) do not
        req = SweepRequest(v=10.0, wL=400.0, n2_min=0.004, n2_max=8.0, count=2000,
                           outputs=("T2_exact", "T2_nr_form", "phase_rad", "ratio_closed"))
        path = tmp_path / "wl400.csv"
        write_csv(run_sweep(req), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "3becc5405a8a30d8e4fa0d9f979ccb13554b694174afd811174f1ab0ffa3c997")

    def test_v100_grid_digest_pinned(self, tmp_path):
        # the fig1 pins stop at v = 10; at v = 100 and wL = 2 pi this grid has
        # 3698 Klein rows (up to 13 windings), 151 tunneling and 151
        # above-barrier rows.  Pinned before the sweep became a column pass.
        req = SweepRequest(v=100.0, wL=2.0 * math.pi, n2_min=53.0 / 4000, n2_max=53.0,
                           count=4000,
                           outputs=("T2_exact", "T2_nr_form", "phase_rad", "ratio_closed"))
        path = tmp_path / "v100.csv"
        write_csv(run_sweep(req), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ae7015dfaf89c31ec7374e4b168d94ccf78244dc4303828c4bfdf4a996fe433b")

    def test_header_and_line_endings(self, tmp_path):
        recs = run_sweep(small_request())
        path = tmp_path / "sweep.csv"
        write_csv(recs, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        first = raw.split(b"\n", 1)[0].decode("utf-8")
        assert first == ",".join(CSV_COLUMNS)
        assert first == "n2,E_over_m,zone,T2_exact,T2_nr_form,phase_rad,ratio_closed,ratio_numeric,nudged"

    def test_empty_records_error_and_no_file(self, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(DomainError):
            write_csv([], path)
        assert not path.exists()
        with pytest.raises(DomainError):
            write_json([], tmp_path / "never.json")

    def test_json_same_field_names(self, tmp_path):
        recs = run_sweep(small_request())
        path = tmp_path / "sweep.json"
        write_json(recs, path)
        data = json.loads(path.read_text())
        assert len(data) == len(recs)
        assert set(data[0]) == set(CSV_COLUMNS) | {"error"}
        for row, rec in zip(data, recs):
            assert row["n2"] == rec.n2
            assert row["T2_exact"] == rec.t2_exact

    def test_io_error_carries_path(self, tmp_path):
        recs = run_sweep(small_request())
        bad = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(KleinTunnelError, match="x.csv"):
            write_csv(recs, bad)


class TestFig1Request:
    def test_grid_covers_all_zones(self):
        req = fig1_request(10.0)
        assert req.count == 2000
        assert req.n2_max == 8.0
        assert req.n2_min == pytest.approx(0.004)
        assert req.wL == pytest.approx(2.0 * math.pi)
