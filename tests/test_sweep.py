import cmath
import dataclasses
import hashlib
import itertools
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kleintunnel import (
    BarrierSetup,
    DomainError,
    KleinTunnelError,
    SweepRecord,
    SweepRecords,
    SweepRequest,
    ZoneCrossingError,
    classify_zone,
    match_boundaries,
    mode_from_n2,
    normalized_phase_time,
    normalized_phase_time_numeric,
    read_csv,
    run_sweep,
    transmission_closed_form,
    transmission_magnitude_nr_form,
    write_csv,
    write_json,
)
from kleintunnel.kinematics import _edges, rho_n2
from kleintunnel.scattering import _MAX_WINDING, _closed_forms, _nr_form_from_r2
from kleintunnel.sweep import (
    _BLOCK,
    _ZONES,
    CSV_COLUMNS,
    FIG1_V_VALUES,
    VALUE_COLUMNS,
    _float_cells,
    _sweep_table,
    fig1_preset,
    fig1_request,
)
from test_phasetime import DOMAIN, mp_ratio, refused


def nr_form(v, n2, wL):
    """The NR-prefactor |T| at one point and the requested wL."""
    return _nr_form_from_r2(np.array([n2]), np.array([rho_n2(v, n2)]), wL).item()


def view_of(records):
    """A SweepRecords view over hand-made columns: the records' fields in
    the driver's layout (float64 with nan for None, zone codes, the nudged
    mask and the errors)."""
    n2, s, zone, *values, nudged, errors = zip(*records)

    def floats(column):
        return np.array([math.nan if x is None else x for x in column])

    return SweepRecords([floats(n2), floats(s), np.array([_ZONES.index(z) for z in zone]),
                         *map(floats, values), np.array(nudged), list(errors)])


def without_errors(records):
    """The records as read_csv gives them back: a CSV has no error column."""
    return [rec._replace(error=None) for rec in records]


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
    # offsets inside the edge band (1e-9 relative) are snapped onto the edge
    n2 = st.one_of(
        st.floats(1e-3, 0.5 * v + 6.0),
        st.floats(-13.0, -1.0).map(lambda e: 10.0 ** e),
        st.tuples(st.sampled_from(edges), st.floats(-15.0, -3.0), st.booleans()).map(
            lambda t: t[0] * (1.0 + (-1.0 if t[2] else 1.0) * 10.0 ** t[1])))
    lo, hi = sorted(draw(st.lists(n2, min_size=2, max_size=2, unique=True)))
    return SweepRequest(v=v, wL=wL, n2_min=lo, n2_max=hi, count=draw(st.integers(2, 6)))


def t2_point(v, n2, wL):
    """T2_exact at one point: transmission_closed_form's |T|^2.  Where the call
    refuses the phase alone, the sweep keeps |T|; it is then the one-element
    core's."""
    try:
        return transmission_closed_form(v, n2, wL).probability
    except KleinTunnelError:
        mag = _closed_forms(v, np.array([n2]), wL).mag.item()
        if math.isnan(mag):
            raise
        return mag * mag


class TestSweepIsAMap:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sweep_requests())
    @example(SweepRequest(v=2.0, wL=1.0, n2_min=1e-13, n2_max=3.0, count=3))
    @example(SweepRequest(v=10.0, wL=400.0, n2_min=0.004, n2_max=8.0, count=6))
    @example(SweepRequest(v=10.0, wL=2.0 * math.pi, n2_min=4.0 - 3e-10, n2_max=6.0 + 1e-10,
                          count=5))
    @example(SweepRequest(v=0.0, wL=2.0 * math.pi, n2_min=0.5, n2_max=1.0 + 1e-10, count=4))
    # the phase cutoff; an opaque barrier and the NR prefactor at wL = 0 at
    # the ends of the input domain
    @example(SweepRequest(v=10.0, wL=2.0 * math.pi, n2_min=1.0, n2_max=1e100, count=2))
    @example(SweepRequest(v=10.0, wL=1e100, n2_min=5.0, n2_max=5.5, count=2))
    @example(SweepRequest(v=1e100, wL=0.0, n2_min=1e-100, n2_max=1e-99, count=2))
    @example(SweepRequest(v=1.0, wL=0.0, n2_min=1e-100, n2_max=1e-99, count=2))
    # a snapped upper edge where the rho_n^2 expression rounds to -5.4e-17, not 0
    @example(SweepRequest(v=15.527620836643477, wL=2.0 * math.pi, n2_min=8.0,
                          n2_max=8.76381041832174, count=2))
    def test_single_points_match_direct_calls_bitwise(self, req):
        # every column is the public (or per-point) call at the row's n2,
        # compared by repr: bitwise, signed zeros included.  Where the call
        # refuses, the cell is empty and the row's error holds the call's text
        v, wL = req.v, req.wL
        for rec in run_sweep(req):
            n2 = rec.n2

            def agrees(column, value, call):
                try:
                    expected = call()
                except KleinTunnelError as exc:
                    assert value is None and f"{column}: " in rec.error, (column, rec)
                    assert str(exc) in rec.error, (column, rec, exc)
                else:
                    assert repr(value) == repr(expected), (column, rec)

            agrees("T2_exact", rec.t2_exact, lambda: t2_point(v, n2, wL))
            agrees("phase_rad", rec.phase_rad, lambda: transmission_closed_form(v, n2, wL).phase)
            agrees("ratio_closed", rec.ratio_closed, lambda: normalized_phase_time(v, n2, wL))
            # the oracle refuses a snapped edge row, and so does its one-point call
            agrees("ratio_numeric", rec.ratio_numeric,
                   lambda: normalized_phase_time_numeric(v, n2, wL))
            if rec.nudged:
                assert rec.zone.startswith("Edge") and rec.ratio_numeric is None
                assert f"ratio_numeric: n2={n2} lies on a zone edge" in rec.error
            # T2_nr_form is defined in the tunneling zone and on the edges only
            edge_or_tunneling = 0.5 * v - 1.0 <= n2 <= 0.5 * v + 1.0
            if not edge_or_tunneling:
                assert rec.t2_nr_form is None
            elif v == 0.0:
                agrees("T2_nr_form", rec.t2_nr_form, lambda: t2_point(v, n2, wL))
            elif math.isnan(nr_form(v, n2, wL)):
                assert rec.t2_nr_form is None and "T2_nr_form: " in rec.error
            else:
                assert repr(rec.t2_nr_form) == repr(nr_form(v, n2, wL) ** 2)
            # the row names its empty cells and nothing else
            empty = (rec.t2_exact, rec.phase_rad, rec.ratio_closed, rec.ratio_numeric).count(None)
            empty += edge_or_tunneling and rec.t2_nr_form is None
            assert len(rec.error.split("; ") if rec.error else []) == empty
            assert repr(rec.e_over_m) == repr(math.sqrt(1.0 + 2.0 * n2 * v) if v > 0.0 else None)

    @pytest.mark.parametrize("v", FIG1_V_VALUES)
    def test_t2_exact_is_checked_by_the_matcher(self, v):
        # the matcher stays the independent check of the column, at each fig1
        # panel's own (v, n2, wL), the v = 0 Schroedinger panel included.  The
        # worst relative gaps measured are 2.7e-15, 2.6e-15, 1.9e-15, 2.4e-15
        # and 2.5e-14 (v = 10): the bound leaves a margin of 4 over the worst
        req = fig1_request(v)
        for rec in run_sweep(req):
            t2 = abs(match_boundaries(v, rec.n2, req.wL).T) ** 2
            assert rec.t2_exact == pytest.approx(t2, rel=1e-13)

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
        # at v = 2 the tunneling zone starts at n2 = 0; within 1e-12 of it the
        # closed ratio is filled and exact (no edge refusal), and the row keeps
        # every other column.  The edge rule has no lower edge for v <= 2, so
        # n2 = 1e-13 is not an edge row
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


# (v, n2, wL) one winding inside the phase cutoff, with 40-digit
# bench/oracle.py mp_values there: |T|^2, the principal arg T and t_phi/tau
_AT_THE_CUTOFF = (
    ((23.573775999958354, 4.735029939578997, 2525749068505636.0),
     (0.8104812796617519, 1.031123334614265, -0.9448989168942155)),
    ((0.16356857408372522, 61.95489357951614, 414571499398507.7),
     (0.9995436873520802, 0.5979550769827464, 1.0021173802489332)),
)


def split_winding_cells(count, seed=37):
    """count cells (v, n2, wL) off the zone-edge band, seeded, where the
    winding floor(x/pi + 1/2) with x = sqrt(-rho_n^2 wL^2) and with
    x = sqrt(|rho_n^2|) wL fall on opposite sides of the phase cutoff."""
    rng = np.random.default_rng(seed)
    steps = 1.0 + np.arange(-64, 65) * 2.0 ** -52
    cells = []
    while len(cells) < count:
        v, n2 = (10.0 ** rng.uniform(-2.0, 2.0, 2)).tolist()
        r2 = rho_n2(v, n2)
        if r2 >= 0.0 or any(_edges(v, n2)):
            continue
        # wL where q_n wL / pi + 1/2 steps past the cutoff, and ulps around it
        wL = (_MAX_WINDING + 0.5) * math.pi / math.sqrt(-r2) * steps
        one = np.floor(np.sqrt(-(r2 * wL * wL)) / math.pi + 0.5) > _MAX_WINDING
        other = np.floor(math.sqrt(-r2) * wL / math.pi + 0.5) > _MAX_WINDING
        cells += [(v, n2, x) for x in wL[one != other][:1].tolist()]
    return cells


class TestOverflow:
    def test_rho_overflow_is_a_domain_error(self):
        # (1 - n2 + v/2)(1 + n2 - v/2) overflows to -inf at n2 = 1e300,
        # outside the input domain: the request is refused when it is built
        with pytest.raises(DomainError, match=refused("n2_max", 1e300)):
            small_request(n2_min=1.0, n2_max=1e300, count=2)

    def test_non_finite_ratio_empties_its_cell(self):
        # t_phi/tau -> 1 far above the barrier, and at n2 = 1e100 nothing
        # in the ratio overflows: the cell is filled (only phase_rad and the
        # oracle are refused there, see test_unresolved_phase_is_refused)
        rec = run_sweep(small_request(n2_min=1.0, n2_max=1e100, count=2))[-1]
        assert rec.ratio_closed == pytest.approx(1.0, abs=1e-15)
        assert rec.error.startswith("phase_rad:") and "ratio_closed" not in rec.error
        assert rec.t2_exact is not None and rec.ratio_numeric is None

    def test_ratio_overflow_empties_its_cell(self):
        # just below where rho_n^2 itself overflows, at n2 = 1e154, the
        # ratio's u and P did, and 0.8.0 emptied the cell.  That n2 is
        # outside the input domain, in which the ratio has a value wherever
        # the phase cutoff leaves it one (test_non_finite_ratio_empties_its_cell)
        with pytest.raises(DomainError, match=refused("n2_max", 1e154)):
            small_request(n2_min=1.0, n2_max=1e154, count=2)

    def test_unresolved_phase_is_refused(self):
        # at n2 = 1e100, q_n wL ~ 6e50 rad: one ulp of it dwarfs pi, so the
        # phase modulo pi is unknown, and so is the oracle's exp(-i q_n wL);
        # both cells are emptied and named and the rest of the row,
        # ratio_closed included, is kept
        req = SweepRequest(v=10, wL=2.0 * math.pi, n2_min=1, n2_max=1e100, count=2)
        first, last = run_sweep(req)
        assert first.error is None and first.phase_rad is not None
        assert last.phase_rad is None and last.ratio_numeric is None
        cutoff = f"q_n*wL is too large to resolve the phase modulo pi at v=10, n2=1e+100, wL={2.0 * math.pi}"
        assert last.error == f"phase_rad: {cutoff}; ratio_numeric: {cutoff}"
        assert last.ratio_closed == pytest.approx(1.0, abs=1e-15)
        assert last.t2_exact is not None
        # the cutoff lies between q_n wL = 1e15 and 1e17 (q_n ~ n far above the barrier)
        first, last = run_sweep(SweepRequest(v=10.0, wL=1.0, n2_min=1e30, n2_max=1e34, count=2))
        assert first.phase_rad is not None and first.error is None
        assert last.phase_rad is None and last.error.startswith("phase_rad:")

    def test_magnitude_and_ratio_past_the_cutoff_are_refused(self):
        # at v = 10, n2 = 1 and wL = 1e17 (q_n wL ~ 1.2e17) |T|^2 read 0.99996,
        # and 0.976 at 1.1e17: sin(q_n wL) is as unknown as the phase there
        cutoff = "q_n*wL is too large to resolve the phase modulo pi at v=10.0, n2=1.0"
        for wL in (1e17, 1.1e17):
            with pytest.raises(DomainError, match=re.escape(f"{cutoff}, wL={wL}")):
                transmission_closed_form(10.0, 1.0, wL)
            with pytest.raises(DomainError, match=re.escape(f"{cutoff}, wL={wL}")):
                normalized_phase_time(10.0, 1.0, wL)
        row = run_sweep(SweepRequest(v=10.0, wL=1e17, n2_min=1.0, n2_max=2.0, count=2))[0]
        assert (row.t2_exact, row.phase_rad, row.ratio_closed, row.ratio_numeric) == (None,) * 4
        text = "q_n*wL is too large to resolve the phase modulo pi at v=10.0, n2=1.0, wL=1e+17"
        assert row.error == "; ".join(f"{name}: {text}" for name in (
            "T2_exact", "phase_rad", "ratio_closed", "ratio_numeric"))
        # below the cutoff both are values
        assert transmission_closed_form(10.0, 1.0, 1e14).probability > 0.0
        assert math.isfinite(normalized_phase_time(10.0, 1.0, 1e14))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the phase cutoff _MAX_WINDING = 10**15 is too permissive: one winding inside it "
        "q_n wL ~ 3e15 has an ulp of 0.5 rad, and every column is off at the percent level"))
    @pytest.mark.parametrize("point, want", _AT_THE_CUTOFF)
    def test_at_the_cutoff_every_column_is_right_or_refused(self, point, want):
        t2, arg, ratio = want
        columns = {
            "closed |T|^2": (lambda: transmission_closed_form(*point).probability, t2),
            "closed arg T": (lambda: cmath.phase(transmission_closed_form(*point).T), arg),
            "matcher |T|^2": (lambda: abs(match_boundaries(*point).T) ** 2, t2),
            "matcher arg T": (lambda: match_boundaries(*point).arg_T, arg),
            "closed t_phi/tau": (lambda: normalized_phase_time(*point), ratio),
            "oracle t_phi/tau": (lambda: normalized_phase_time_numeric(*point), ratio),
        }
        wrong = {}
        for name, (call, expected) in columns.items():
            try:
                got = call()
            except KleinTunnelError:
                continue
            if got != pytest.approx(expected, rel=1e-9):
                wrong[name] = got
        assert wrong == {}

    def test_phase_and_oracle_share_one_cutoff(self):
        # the cells of _AT_THE_CUTOFF and a seeded sample off the edge band
        # where the winding counts from sqrt(-rho_n^2 wL^2) and from
        # sqrt(|rho_n^2|) wL lie on opposite sides of the cutoff: the row
        # keeps phase_rad and ratio_numeric together or refuses both
        cells = [point for point, _ in _AT_THE_CUTOFF] + split_winding_cells(12)
        kept = 0
        for v, n2, wL in cells:
            row = run_sweep(SweepRequest(v=v, wL=wL, n2_min=n2, n2_max=2.0 * n2, count=2))[0]
            assert row.n2 == n2
            if row.phase_rad is None:
                cutoff = f"q_n*wL is too large to resolve the phase modulo pi at v={v}, n2={n2}, wL={wL}"
                assert row.ratio_numeric is None, (v, n2, wL)
                assert f"phase_rad: {cutoff}" in row.error
                assert f"ratio_numeric: {cutoff}" in row.error
            else:
                assert row.ratio_numeric is not None, (v, n2, wL, row.error)
                kept += 1
        assert 0 < kept < len(cells)  # both sides of the cutoff are in the sample


# inputs at the ends of the float range, as (v, wL, n2 grid): each lies
# outside the input domain, where the request is refused, or at its ends
_EXTREMES = (
    # d2 = rho_n^2 wL^2 overflows, and tc = 1/inf = 0 would zero the phase
    (10.0, 1e155, (5.0, 5.5)),
    # an overflowed factor meets a zero: Y = inf * 0 and X = -inf * 0
    (1.0, 1e200, (1e-300, 2e-300)),
    (1e150, 0.0, (5e-324, 1e-300)),
    (1.0, 0.0, (5e-324, 1e-300)),  # the NR prefactor 1/(4 n2 rho_n^2) = inf
    # s = sqrt(1 + 2 n2 v) overflows, which would make rho_n^2 = 0
    (1e300, 1.0, (5e299 * (1.0 - 1e-12), 5e299 * (1.0 + 1e-12))),
    # the phase cutoff, wL = 0 and the ratio's overflow
    (10.0, 2.0 * math.pi, (1.0, 1e150)),
    (10.0, 0.0, (1.0, 6.0)),
    (10.0, 2.0 * math.pi, (1.0, 1e154)),
    # a snapped upper edge where rho_n^2 rounds to -5.4e-17: the NR form's
    # sin^2 lane past the phase cutoff, and where q_n wL overflows
    (15.527620836643477, 1e154, (8.76381041832174 * (1.0 - 1e-3), 8.76381041832174)),
    (15.527620836643477, 1e200, (8.76381041832174 * (1.0 - 1e-3), 8.76381041832174)),
    # the ends of the domain: an opaque barrier, tiny n2 at the widest and
    # at no barrier, the largest v, the phase cutoff and the snapped edge
    (10.0, 1e100, (5.0, 5.5)),
    (1.0, 1e100, (1e-100, 2e-100)),
    (1e100, 0.0, (1e-100, 1e-99)),
    (1.0, 0.0, (1e-100, 1e-99)),
    (1e100, 1.0, (5e99 * (1.0 - 1e-12), 5e99 * (1.0 + 1e-12))),
    (1e-100, 1e100, (1e-100, 1e100)),
    (10.0, 2.0 * math.pi, (1.0, 1e100)),
    (15.527620836643477, 1e100, (8.76381041832174 * (1.0 - 1e-3), 8.76381041832174)),
)


def outside_domain(v, wL, grid):
    """The first of v, wL and the grid's ends outside the input domain, as
    (name, value), or None."""
    for name, x, zero in (("v", v, True), ("wL", wL, True), ("n2_min", grid[0], False),
                          ("n2_max", grid[1], False)):
        if not (1e-100 <= x <= 1e100 or zero and x == 0.0):
            return name, x
    return None


class TestFiniteOrTyped:
    """Every number out is finite, or the cell is empty and named, or the call
    raises a KleinTunnelError (with no RuntimeWarning, which pytest makes an
    error).  Outside the input domain the call raises the domain's refusal."""

    @pytest.mark.parametrize("v, wL, grid", _EXTREMES)
    def test_sweep_writes_no_nan_and_names_every_empty_cell(self, v, wL, grid, tmp_path):
        outside = outside_domain(v, wL, grid)
        if outside:
            with pytest.raises(DomainError, match=refused(*outside)):
                SweepRequest(v=v, wL=wL, n2_min=grid[0], n2_max=grid[1], count=2)
            return
        recs = run_sweep(SweepRequest(v=v, wL=wL, n2_min=grid[0], n2_max=grid[1], count=2))
        write_csv(recs, tmp_path / "x.csv")
        cells = (tmp_path / "x.csv").read_text().replace("\n", ",").split(",")
        assert not {"nan", "inf", "-inf"} & set(cells)
        write_json(recs, tmp_path / "x.json")
        for row in json.loads((tmp_path / "x.json").read_text()):
            named = row["error"].split("; ") if row["error"] else []
            # T2_nr_form is defined in the tunneling zone and on the edges only
            tunneling_or_edge = 0.5 * v - 1.0 <= row["n2"] <= 0.5 * v + 1.0
            for column in ("T2_exact", "T2_nr_form", "phase_rad", "ratio_closed",
                           "ratio_numeric"):
                if row[column] is None and (column != "T2_nr_form" or tunneling_or_edge):
                    assert any(item.startswith(f"{column}: ") for item in named), (column, row)
            assert row["E_over_m"] is not None

    def test_nr_form_past_the_cutoff_on_a_snapped_edge_is_named(self):
        # T2_nr_form read 1.887501396735269e-15 from a noise phase on the
        # EdgeUpper row at wL = 1e154, where T2_exact, phase_rad and
        # ratio_closed are refused as past the cutoff (the edge value is
        # about 3.5e-307).  Inside the input domain the same row at wL = 1e100
        v, n2 = 15.527620836643477, 8.76381041832174
        rec = run_sweep(SweepRequest(v=v, wL=1e100, n2_min=n2 * (1.0 - 1e-3), n2_max=n2,
                                     count=2))[1]
        assert (rec.zone, rec.t2_exact, rec.t2_nr_form) == ("EdgeUpper", None, None)
        text = f"q_n*wL is too large to resolve the phase modulo pi at v={v}, n2={n2}, wL=1e+100"
        assert rec.error.split("; ")[:2] == [f"T2_exact: {text}", f"T2_nr_form: {text}"]

    @pytest.mark.parametrize("v, n2", [(1e150, 5e-324), (1e150, 1e-300), (1.0, 5e-324),
                                       (1e100, 1e-100), (1.0, 1e-100),
                                       (10.0, 5.0), (10.0, 1.0), (10.0, 9.0)])
    def test_zero_width_transmits_exactly(self, v, n2):
        # no barrier: T = 1, R = 0 and the phase 0 at every n2 of the input
        # domain.  0.8.0 kept lanes for prefactors that overflow (X = -inf * 0
        # was refused as |T| not finite) at inputs outside it, now refused
        if v > 1e100 or n2 < 1e-100:
            with pytest.raises(DomainError, match=f"{re.escape(DOMAIN)}$"):
                transmission_closed_form(v, n2, 0.0)
            return
        point = transmission_closed_form(v, n2, 0.0)
        assert (point.magnitude, point.phase, point.T, point.R) == (1.0, 0.0, 1.0, 0.0)
        rec = run_sweep(SweepRequest(v=v, wL=0.0, n2_min=n2, n2_max=2.0 * n2 + 1.0,
                                     count=2))[0]
        assert (rec.t2_exact, rec.phase_rad) == (1.0, 0.0)
        if 0.5 * v - 1.0 <= n2 <= 0.5 * v + 1.0:
            assert rec.t2_nr_form == 1.0
        assert rec.error.split("; ") == ["ratio_closed: wL=0: tau=0 and t_phi/tau is undefined",
                                         "ratio_numeric: wL=0: tau=0 and t_phi/tau is undefined"]

    @pytest.mark.parametrize("wL", [-1.0, math.nan])
    @pytest.mark.parametrize("call", [transmission_closed_form, normalized_phase_time,
                                      normalized_phase_time_numeric, match_boundaries,
                                      transmission_magnitude_nr_form])
    def test_one_point_calls_refuse_a_negative_or_nan_width(self, call, wL):
        # wL = -1 used to give the mirror of wL = +1 as ordinary values
        # (probability 0.4355, both ratios 0.2331); nan was refused only as
        # a non-finite |T|.  The matcher and the NR form take (v, n2, wL)
        # since 0.8.0 and refuse the same widths, by the input domain
        with pytest.raises(DomainError, match=refused("wL", wL)):
            call(10.0, 5.0, wL)

    @pytest.mark.parametrize("v, wL, grid", _EXTREMES)
    def test_one_point_calls_are_finite_or_typed(self, v, wL, grid):
        for n2 in grid:
            # each call with the width it reads (rho_n2 reads none)
            for call, width in ((lambda: transmission_closed_form(v, n2, wL), wL),
                                (lambda: normalized_phase_time(v, n2, wL), wL),
                                (lambda: normalized_phase_time_numeric(v, n2, wL), wL),
                                (lambda: match_boundaries(v, n2, wL), wL),
                                (lambda: transmission_magnitude_nr_form(v, n2, wL), wL),
                                (lambda: rho_n2(v, n2), 0.0)):
                outside = outside_domain(v, width, (n2, n2))
                try:
                    out = call()
                except KleinTunnelError as exc:
                    # the domain's refusal exactly where an input leaves it
                    assert str(exc).endswith(DOMAIN) == bool(outside), (v, n2, wL, exc)
                    continue
                assert not outside, (v, n2, wL, out)
                values = (out,) if isinstance(out, float) else dataclasses.astuple(out)
                assert all(cmath.isfinite(x) for x in values), (v, n2, wL, out)


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


@st.composite
def edge_band_probes(draw):
    """(v, n2, inside): n2 on a zone edge, 1 ulp off it, or 0.5, 0.9, 1.1 or 2
    times the band's half-width 1e-9 max(1, edge) off it, and whether n2
    lies inside the band.  classify_zone rounds n2 into E and back, which
    loses about eps/v relative, a fifth of the band at v = 1e-6, the
    smallest v drawn, so below v = 1e-3 the margins widen to 0.5 and 2."""
    v = draw(st.one_of(st.floats(1e-6, 2.0, exclude_max=True), st.just(2.0),
                       st.floats(2.0, 1e3, exclude_min=True),
                       st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e)))
    edge = draw(st.sampled_from([0.5 * v + 1.0] + ([0.5 * v - 1.0] if v > 2.0 else [])))
    sign = draw(st.sampled_from((1.0, -1.0)))
    where = draw(st.sampled_from(("on", "ulp") + ((0.5, 2.0) if v <= 1e-3 else
                                                  (0.5, 0.9, 1.1, 2.0))))
    if where == "on":
        return v, edge, True
    if where == "ulp":
        return v, math.nextafter(edge, sign * math.inf), True
    return v, edge + sign * where * 1e-9 * max(1.0, edge), where < 1.0


class TestZoneConsistency:
    # each grid crosses every edge that v has (v = 1 has only the upper one)
    @pytest.mark.parametrize("v, n2_min, n2_max", [
        (1.0, 0.01, 3.0), (2.5, 0.01, 4.5), (10.0, 0.5, 7.5), (100.0, 1.0, 76.0)])
    def test_zone_tags_reclassified_from_e_over_m(self, v, n2_min, n2_max):
        req = SweepRequest(v=v, wL=2.0 * math.pi, n2_min=n2_min, n2_max=n2_max, count=200,
                           outputs=("T2_exact",))
        setup = BarrierSetup.from_dimensionless(v, 2.0 * math.pi)
        zones = set()
        for rec in run_sweep(req):
            zone = classify_zone(setup, rec.e_over_m * setup.m)
            assert rec.zone == zone.value
            zones.add(zone.value)
        assert zones == ({"Tunneling", "AboveBarrier"} if v < 2.0 else
                         {"Klein", "Tunneling", "AboveBarrier"})

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(edge_band_probes())
    def test_one_edge_rule_at_the_band_borders(self, probe):
        # the zone tag, the sweep's snapping and the oracle's refusal read one
        # rule: n2 is an edge iff it lies inside the band
        v, n2, inside = probe
        assume(n2 > 0.0)
        wL = 2.0 * math.pi
        setup = BarrierSetup.from_dimensionless(v, wL)
        tag = classify_zone(setup, mode_from_n2(setup, n2).E).value
        rec = run_sweep(SweepRequest(v=v, wL=wL, n2_min=n2, n2_max=n2 + 1.0, count=2,
                                     outputs=("T2_exact",)))[0]
        try:
            normalized_phase_time_numeric(v, n2, wL)
            refused = False
        except ZoneCrossingError:
            refused = True
        assert (tag.startswith("Edge"), rec.nudged, refused) == (inside, inside, inside)
        assert rec.zone == tag


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
        write_csv(view_of(recs), path)
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
        # every notation repr and orjson's digits differ in: the decade
        # [1e-5, 1e-4), one-digit negative exponents, positive exponents and
        # integral floats below 1e16
        recs += [SweepRecord(3e-05, -1.5e-05, "Klein", 2.5e-07, 1e16, -1.2345e300,
                             9.999999999999999e-05, 1e15),
                 SweepRecord(1e-4, 1.2e-5, "Klein", -1e-10, 1.5e16, 1e-300, 2e-06, -9e-09)]
        path = tmp_path / "hand.csv"
        write_csv(view_of(recs), path)
        assert path.read_bytes() == (
            b"n2,E_over_m,zone,T2_exact,T2_nr_form,phase_rad,ratio_closed,ratio_numeric,nudged\n"
            b"0.5,,Klein,,,,,,\n"
            b"1e-300,1.0,Tunneling,0.25,-0.0,3.141592653589793,-1e-300,2.5,true\n"
            b"1e-300,,Tunneling,0.25,-0.0,3.141592653589793,-1e-300,2.5,true\n"
            b"1e-300,1.0,Tunneling,,-0.0,3.141592653589793,-1e-300,2.5,true\n"
            b"1e-300,1.0,Tunneling,0.25,,3.141592653589793,-1e-300,2.5,true\n"
            b"1e-300,1.0,Tunneling,0.25,-0.0,,-1e-300,2.5,true\n"
            b"1e-300,1.0,Tunneling,0.25,-0.0,3.141592653589793,,2.5,true\n"
            b"1e-300,1.0,Tunneling,0.25,-0.0,3.141592653589793,-1e-300,,true\n"
            b"3e-05,-1.5e-05,Klein,2.5e-07,1e+16,-1.2345e+300,9.999999999999999e-05,"
            b"1000000000000000.0,\n"
            b"0.0001,1.2e-05,Klein,-1e-10,1.5e+16,1e-300,2e-06,-9e-09,\n")
        assert read_csv(path) == recs

    @pytest.mark.parametrize("field, column, bad", [
        (field, column, bad) for bad in (math.inf, -math.inf) for field, column in (
            ("n2", "n2"), ("e_over_m", "E_over_m"), ("t2_exact", "T2_exact"),
            ("t2_nr_form", "T2_nr_form"), ("phase_rad", "phase_rad"),
            ("ratio_closed", "ratio_closed"), ("ratio_numeric", "ratio_numeric"))
    ] + [("n2", "n2", math.nan)])
    def test_non_finite_value_is_refused(self, tmp_path, field, column, bad):
        # a file never holds inf, nor an empty n2 (elsewhere a view's nan is
        # an empty cell; an empty n2 cell, once written, did not read back):
        # the cell's column is named, and each block of rows is checked
        # before it is written, so the file keeps the header and the blocks
        # before the refused one
        good = SweepRecord(n2=1.0, e_over_m=2.0, zone="Klein", t2_exact=0.5, t2_nr_form=0.5,
                           phase_rad=1.0, ratio_closed=1.5, ratio_numeric=1.5)
        path = tmp_path / "bad.csv"
        for before in (0, _BLOCK):
            recs = [good] * before + [good, good._replace(**{field: bad}), good]
            with pytest.raises(DomainError, match=f"^{column}: nan or inf cannot be written$"):
                write_csv(view_of(recs), path)
            lines = path.read_bytes().split(b"\n")
            assert lines[0] == ",".join(CSV_COLUMNS).encode()
            assert len(lines) == 2 + before and lines[-1] == b""
            assert set(lines[1:-1]) <= {b"1.0,2.0,Klein,0.5,0.5,1.0,1.5,1.5,"}
        # the JSON writer refuses it too (json.dump would write Infinity),
        # before it opens the file
        path = tmp_path / "bad.json"
        with pytest.raises(DomainError, match=f"^{column}: nan or inf cannot be written$"):
            write_json(view_of([good, good._replace(**{field: bad})]), path)
        assert not path.exists()

    @pytest.mark.parametrize("field, column", [
        ("e_over_m", "E_over_m"), ("t2_exact", "T2_exact"), ("t2_nr_form", "T2_nr_form"),
        ("phase_rad", "phase_rad"), ("ratio_closed", "ratio_closed"),
        ("ratio_numeric", "ratio_numeric")])
    def test_nan_in_a_view_is_an_empty_cell(self, tmp_path, field, column):
        # a view's nan is the empty value of every optional column: an empty
        # CSV cell and a JSON null, read back as None; its neighbours keep
        # their cells
        good = SweepRecord(n2=1.0, e_over_m=2.0, zone="Klein", t2_exact=0.5, t2_nr_form=0.5,
                           phase_rad=1.0, ratio_closed=1.5, ratio_numeric=1.5)
        recs = [good, good._replace(**{field: math.nan}), good]
        path = tmp_path / "nan.csv"
        write_csv(view_of(recs), path)
        lines = path.read_bytes().split(b"\n")
        cells = b"1.0,2.0,Klein,0.5,0.5,1.0,1.5,1.5,".split(b",")
        assert lines[1] == lines[3] == b",".join(cells)
        cells[CSV_COLUMNS.index(column)] = b""
        assert lines[2] == b",".join(cells)
        assert read_csv(path) == [good, good._replace(**{field: None}), good]
        path = tmp_path / "nan.json"
        write_json(view_of(recs), path)
        assert [row[column] for row in json.loads(path.read_text())] == [
            getattr(good, field), None, getattr(good, field)]

    def test_float64_array_cells_equal_repr_token_for_token(self):
        # over a million doubles, each column chunk passed as a float64
        # array, the sweep's columns' route: random 64-bit patterns (finite
        # only), log-uniform magnitudes in 1e-8 ... 1e20 of either sign, and
        # every switch of notation with its neighbours.  A later orjson that
        # writes another notation fails here, not in a digest
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2 ** 64, 600_000, dtype=np.uint64).view(np.float64)
        spread = 10.0 ** rng.uniform(-8.0, 20.0, 450_000) * rng.choice((-1.0, 1.0), 450_000)
        special = [0.0, 5e-324, sys.float_info.max, 1e-5, 1e-4, 1e16, 1e-7, 1e-10]
        special += [y for x in special for y in (math.nextafter(x, 0.0),
                                                 math.nextafter(x, math.inf))
                    if math.isfinite(y)]
        special += [10.0 ** k for k in range(-20, 23)] + [1e15, 2.0 ** 53, 123.0, 0.1]
        values = bits[np.isfinite(bits)].tolist() + spread.tolist() + special + [
            -x for x in special]
        assert len(values) >= 1_000_000
        for start in range(0, len(values), 100_000):
            chunk = values[start:start + 100_000]
            cells = _float_cells(np.array(chunk), "x")
            assert len(cells) == len(chunk)
            if b",".join(cells) != ",".join(map(repr, chunk)).encode():
                assert [(x, c) for x, c in zip(chunk, cells) if c != repr(x).encode()] == []

    @pytest.mark.parametrize("at", [0, 1, _BLOCK - 1])
    def test_array_nan_is_an_empty_cell_and_inf_is_refused(self, at):
        values = np.linspace(0.5, 2.0, _BLOCK)
        expected = [repr(x).encode() for x in values.tolist()]
        values[at] = math.nan
        expected[at] = b""
        assert _float_cells(values, "T2_exact") == expected
        assert _float_cells(np.full(_BLOCK, math.nan), "T2_exact") == [b""] * _BLOCK
        for bad in (math.inf, -math.inf):
            values[at] = bad
            with pytest.raises(DomainError, match="^T2_exact: nan or inf cannot be written$"):
                _float_cells(values, "T2_exact")
        # an inf among nans, with no value in the column, is refused too
        values[:] = math.nan
        values[at] = math.inf
        with pytest.raises(DomainError, match="^T2_exact: nan or inf cannot be written$"):
            _float_cells(values, "T2_exact")

    def test_fig1_files_round_trip_byte_for_byte(self, tmp_path):
        for path in fig1_preset(tmp_path):
            again = tmp_path / "again.csv"
            records = read_csv(path)
            assert type(records) is SweepRecords
            write_csv(records, again)
            with open(path, "rb") as fh:
                assert again.read_bytes() == fh.read(), path

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
        # an empty view is refused as a DomainError; anything but a view,
        # empty or not, as a TypeError naming SweepRecords; neither opens
        # the file
        view = run_sweep(small_request())
        for records, error, message in ((view[:0], DomainError, "empty sweep"),
                                        ([], TypeError, "SweepRecords"),
                                        (list(view), TypeError, "SweepRecords"),
                                        (tuple(view), TypeError, "SweepRecords")):
            for write, path in ((write_csv, tmp_path / "never.csv"),
                                (write_json, tmp_path / "never.json")):
                with pytest.raises(error, match=message):
                    write(records, path)
                assert not path.exists()

    @pytest.mark.parametrize("row, column, cell", [
        (1, "n2", ""), (2, "T2_exact", "abc"), (2, "E_over_m", "nan"), (3, "phase_rad", "inf"),
        (5, "ratio_numeric", "-inf"), (2, "zone", "Bogus"), (2, "zone", ""),
        (4, "nudged", "yes"), (4, "nudged", "True"),
        # float() reads these, but write_csv writes repr's spelling only, so
        # a file holding them did not write back byte for byte
        (2, "n2", " 1_0.0 "), (3, "T2_exact", "1e5"), (2, "phase_rad", "1.50"),
        (3, "ratio_closed", "+1.5"), (4, "E_over_m", ".5")])
    def test_read_csv_refuses_a_cell_write_csv_never_writes(self, tmp_path, row, column, cell):
        # the path, the row after the header, the column and the cell are named
        path = tmp_path / "sweep.csv"
        write_csv(run_sweep(small_request()), path)
        lines = path.read_text().split("\n")
        cells = lines[row].split(",")
        cells[CSV_COLUMNS.index(column)] = cell
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines))
        message = f"{path}: row {row}, {column}: {cell!r} is not a cell write_csv writes"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            read_csv(path)

    def test_read_csv_refuses_a_file_that_is_not_utf8(self, tmp_path):
        # a 0xff byte raised a bare UnicodeDecodeError, no KleinTunnelError
        path = tmp_path / "sweep.csv"
        write_csv(run_sweep(small_request()), path)
        data = path.read_bytes()
        at = data.index(b"Tunneling")
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))}: not UTF-8: "):
            read_csv(path)

    def test_read_csv_refuses_a_wrong_header_or_row_length(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(run_sweep(small_request()), path)
        text = path.read_text()
        path.write_text(text.replace("nudged\n", "flag\n", 1))
        with pytest.raises(DomainError, match="unexpected header"):
            read_csv(path)
        path.write_text(text + "1.0,2.0\n")
        with pytest.raises(DomainError, match=re.escape(f"{path}: malformed row '1.0,2.0\\n'")):
            read_csv(path)

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
        with pytest.raises(KleinTunnelError, match=f"^{re.escape(f'reading {bad}: ')}"):
            read_csv(bad)
        with pytest.raises(KleinTunnelError, match=f"^{re.escape(f'writing {tmp_path}: ')}"):
            write_json(recs, tmp_path)  # a directory

    def test_fig1_preset_refuses_an_unknown_format(self, tmp_path):
        out = tmp_path / "preset"
        with pytest.raises(DomainError, match="^fmt must be 'csv' or 'json', got 'xml'$"):
            fig1_preset(out, fmt="xml")
        assert not out.exists()


class TestSweepRecords:
    """run_sweep's read-only view over the driver's columns."""

    # the v = 10 grid 1e-13 off both edges: two rows snapped, the oracle
    # refuses them
    EDGE_GRID = dict(v=10.0, wL=2.0 * math.pi, n2_min=3.0 + 1e-13, n2_max=7.0 + 1e-13,
                     count=401)

    # the same v = 2 grid with every ratio cell refused (wL = 0) and with
    # one snapped edge row whose oracle cell is refused (wL = 1)
    V2_GRIDS = [dict(v=2.0, wL=wL, n2_min=1e-13, n2_max=3.0 + 1e-13, count=4)
                for wL in (0.0, 1.0)]

    def test_records_are_the_zip_of_the_columns(self):
        req = small_request(n2_min=3.9, n2_max=6.1, count=31)
        view = run_sweep(req)
        n2, s, zone, *values, nudged, errors = _sweep_table(req)
        # the driver's columns: float64 with nan for an empty cell, zone
        # codes, the nudged mask and the errors as a list
        assert all(c.dtype == np.float64 for c in (n2, s, *values))
        assert zone.dtype.kind == "i" and nudged.dtype == bool and type(errors) is list

        def cells(column):
            return [None if math.isnan(x) else x for x in column.tolist()]

        records = [SweepRecord(*row) for row in zip(
            n2.tolist(), cells(s), [_ZONES[z] for z in zone.tolist()], *map(cells, values),
            nudged.tolist(), errors)]
        assert isinstance(view, SweepRecords) and len(view) == 31
        assert list(view) == records
        assert all(type(rec) is SweepRecord for rec in view)

    def test_records_hold_python_values_only(self):
        # no np.float64, no nan and no numpy bool reach a record, read by
        # iteration, index or slice, on grids where cells are refused
        def plain(rec):
            assert type(rec) is SweepRecord and type(rec.n2) is float
            assert type(rec.zone) is str and type(rec.nudged) is bool
            assert rec.error is None or type(rec.error) is str
            for x in (rec.e_over_m, *rec[3:8]):
                assert x is None or (type(x) is float and not math.isnan(x)), rec

        refused = 0
        for grid in [self.EDGE_GRID, *self.V2_GRIDS]:
            view = run_sweep(SweepRequest(**grid))
            for rec in [*view, view[0], view[-1], *view[::-2]]:
                plain(rec)
            refused += sum(rec.error is not None for rec in view)
            assert [r.nudged for r in view].count(True) >= 1
        assert refused >= 2 + 4 + 1
        plain(run_sweep(small_request(v=0.0, n2_min=0.5, n2_max=0.9, count=3))[1])

    def test_csv_of_a_strided_slice_reads_back_as_its_records(self, tmp_path):
        # a slice with a step holds strided columns; they are written as
        # the same cells as the records read from them
        view = run_sweep(SweepRequest(**self.EDGE_GRID))[::-3]
        write_csv(view, tmp_path / "view.csv")
        assert read_csv(tmp_path / "view.csv") == without_errors(view)

    def test_indices(self):
        view = run_sweep(small_request(n2_min=3.9, n2_max=6.1, count=31))
        records = list(view)
        for i in (0, 7, 30, -1, -31, np.int64(5)):
            assert view[i] == records[i] and type(view[i]) is SweepRecord
        for i in (31, -32):
            with pytest.raises(IndexError):
                view[i]
        with pytest.raises(TypeError):
            view["n2"]

    @pytest.mark.parametrize("s", [slice(None), slice(3, 9), slice(-4, None), slice(None, None, -3),
                                   slice(20, 5), slice(40, 50)])
    def test_slices(self, s):
        view = run_sweep(small_request(n2_min=3.9, n2_max=6.1, count=31))
        part = view[s]
        assert isinstance(part, SweepRecords)
        assert part == list(view)[s] and len(part) == len(list(view)[s])

    def test_equality_and_hash(self):
        view = run_sweep(small_request())
        records = list(view)
        assert view == records and records == view
        assert view == run_sweep(small_request()) and view == [tuple(r) for r in records]
        assert view != records[:-1] and records[:-1] != view
        assert view != records[::-1] and view != tuple(records)
        assert view != run_sweep(small_request(count=6))
        with pytest.raises(TypeError):
            hash(view)

    def test_read_only(self):
        view = run_sweep(small_request())
        with pytest.raises(TypeError):
            view[0] = view[1]
        with pytest.raises(AttributeError):
            view.append(view[0])

    def test_csv_of_every_outputs_subset_reads_back_as_its_records(self, tmp_path):
        path = tmp_path / "view.csv"
        subsets = [c for k in range(1, 6) for c in itertools.combinations(VALUE_COLUMNS, k)]
        assert len(subsets) == 31
        for outputs in subsets:
            view = run_sweep(SweepRequest(**self.EDGE_GRID, outputs=outputs))
            write_csv(view, path)
            assert read_csv(path) == without_errors(view), outputs
        assert sum(r.nudged for r in view) == 2

    def test_json_is_the_records_as_dicts(self, tmp_path):
        view = run_sweep(SweepRequest(**self.EDGE_GRID))
        write_json(view, tmp_path / "view.json")
        names = CSV_COLUMNS + ("error",)
        assert json.loads((tmp_path / "view.json").read_text()) == [
            dict(zip(names, rec)) for rec in view]
        assert sum(rec.error is not None for rec in view) == 2


class TestFig1Request:
    def test_grid_covers_all_zones(self):
        req = fig1_request(10.0)
        assert req.count == 2000
        assert req.n2_max == 8.0
        assert req.n2_min == pytest.approx(0.004)
        assert req.wL == pytest.approx(2.0 * math.pi)
