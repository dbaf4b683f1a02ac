import hashlib
import itertools
import math

import numpy as np
import pytest

from kleintunnel import (
    BarrierSetup,
    ClippedWindowError,
    DomainError,
    NoPeakError,
    SpectrumSpec,
    SupportError,
    classical_tau,
    distortion,
    estimate_arrival,
    mode_from_n2,
    phase_time_closed_form,
    run_packet,
    synthesize_incident,
    synthesize_reflected,
    synthesize_transmitted,
)
import kleintunnel.wavepacket as wp
from kleintunnel.wavepacket import _field_on_times
from test_phasetime import mp_ratio


def barrier_v10_mL(mL):
    return BarrierSetup(m=1.0, V0=10.0, L=mL)


class TestSpectrumSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            SpectrumSpec(k0=10.0, sigma_k=0.0)
        with pytest.raises(SupportError):
            SpectrumSpec(k0=1.0, sigma_k=0.2)  # support crosses k = 0
        SpectrumSpec(k0=10.0, sigma_k=0.2)

    def test_amplitude_symmetric(self):
        spec = SpectrumSpec(k0=10.0, sigma_k=0.5)
        ks = np.linspace(-3.0, 3.0, 41)
        assert np.allclose(spec.amplitude(10.0 + ks), spec.amplitude(10.0 - ks))


class TestSynthesis:
    def test_identity_filter_at_zero_width(self):
        # L = 0: T = 1 and the transmitted field equals the free one
        s = barrier_v10_mL(0.0)
        spec = SpectrumSpec(k0=10.0, sigma_k=0.2)
        for t in (-0.05, 0.0, 0.1):
            a = synthesize_transmitted(s, spec, 0.0, t)
            b = synthesize_incident(s, spec, 0.0, t)
            assert a == pytest.approx(b, rel=1e-12)

    def test_incident_peak_at_origin_at_t0(self):
        s = barrier_v10_mL(0.1)
        spec = SpectrumSpec(k0=10.0, sigma_k=0.2)
        i0 = abs(synthesize_incident(s, spec, 0.0, 0.0)) ** 2
        for x in (-0.5, -0.1, 0.1, 0.5):
            assert abs(synthesize_incident(s, spec, x, 0.0)) ** 2 < i0

    def test_free_peak_moves_at_group_velocity(self):
        s = barrier_v10_mL(0.1)
        k0 = 10.0
        spec = SpectrumSpec(k0=k0, sigma_k=0.02 * k0)
        E0 = math.sqrt(k0 * k0 + 1.0)
        vg = k0 / E0
        t = 0.8
        xs = np.linspace(vg * t - 0.4, vg * t + 0.4, 321)
        vals = [abs(synthesize_incident(s, spec, float(x), t)) ** 2 for x in xs]
        x_peak = float(xs[int(np.argmax(vals))])
        assert x_peak == pytest.approx(vg * t, rel=0.01)

    def test_norm_conserved_over_time(self):
        s = barrier_v10_mL(0.1)
        spec = SpectrumSpec(k0=10.0, sigma_k=0.5)
        E0 = math.sqrt(101.0)
        vg = 10.0 / E0

        def norm(t):
            xs = np.linspace(vg * t - 14.0, vg * t + 14.0, 3001)
            vals = np.array([abs(synthesize_incident(s, spec, float(x), t)) ** 2 for x in xs])
            return float(np.trapezoid(vals, xs))

        n0, n1 = norm(0.0), norm(0.6)
        assert n1 == pytest.approx(n0, rel=1e-6)

    def test_domain_checks(self):
        s = barrier_v10_mL(0.1)
        spec = SpectrumSpec(k0=10.0, sigma_k=0.2)
        with pytest.raises(DomainError):
            synthesize_transmitted(s, spec, 0.05, 0.0)  # x < L
        with pytest.raises(DomainError):
            synthesize_reflected(s, spec, 0.5, 0.0)  # x > 0

    def test_quadrature_self_consistency(self):
        # result at the default tolerance sits within 1e-8 (relative to
        # peak) of a much stricter evaluation
        s = barrier_v10_mL(0.1)
        spec = SpectrumSpec(k0=10.0, sigma_k=1.0)
        grid = (-0.3, 0.02, 41)  # np.linspace(-0.3, 0.5, 41)
        a = np.abs(_field_on_times(s, spec, s.L, *grid, "transmitted", 1e-8)[0]) ** 2
        b = np.abs(_field_on_times(s, spec, s.L, *grid, "transmitted", 1e-12)[0]) ** 2
        assert float(np.max(np.abs(a - b))) <= 1e-8 * float(b.max())

    def test_deterministic(self):
        s = barrier_v10_mL(0.1)
        spec = SpectrumSpec(k0=10.0, sigma_k=0.2)
        r1 = run_packet(s, spec, n_times=401)
        r2 = run_packet(s, spec, n_times=401)
        assert r1.arrival.t_peak == r2.arrival.t_peak
        assert np.array_equal(r1.intensities, r2.intensities)
        assert r1.distortion == r2.distortion

    def test_quadrature_error_when_refinement_exhausted(self, monkeypatch):
        import kleintunnel.wavepacket as wp
        from kleintunnel import QuadratureError
        monkeypatch.setattr(wp, "_MAX_LEVELS", 1)  # cannot even compare two levels
        s = barrier_v10_mL(0.1)
        spec = SpectrumSpec(k0=10.0, sigma_k=0.5)
        with pytest.raises(QuadratureError):
            wp.synthesize_transmitted(s, spec, s.L, 0.1)


class TestEstimateArrival:
    def test_parabolic_refinement_exact_on_parabola(self):
        times = np.linspace(-1.0, 1.0, 201)
        t_true = 0.1234
        intensities = 5.0 - (times - t_true) ** 2
        est = estimate_arrival(times, intensities, t_predicted=0.1, tau=1.0)
        assert est.t_peak == pytest.approx(t_true, abs=1e-12)
        assert est.relative_gap == pytest.approx(abs(t_true - 0.1), rel=1e-6)

    def test_clipped(self):
        times = np.linspace(0.0, 1.0, 50)
        bumpy = np.concatenate([[0.5], np.linspace(0.0, 2.0, 49)])
        with pytest.raises(ClippedWindowError):
            estimate_arrival(times, bumpy, 0.5, 1.0)

    def test_no_peak(self):
        times = np.linspace(0.0, 1.0, 50)
        with pytest.raises(NoPeakError):
            estimate_arrival(times, np.linspace(0.0, 1.0, 50), 0.5, 1.0)


class TestDistortion:
    def test_identity_filter(self):
        s = barrier_v10_mL(0.0)
        spec = SpectrumSpec(k0=10.0, sigma_k=0.2)
        d = distortion(s, spec)
        assert d.transmitted_norm == pytest.approx(1.0, abs=1e-12)
        assert d.shape_distance == pytest.approx(0.0, abs=1e-9)
        assert d.mean_k_shift == pytest.approx(0.0, abs=1e-12)

    def test_narrow_spectrum_norm_matches_central_probability(self):
        s = barrier_v10_mL(0.1)
        k0 = 10.0
        from kleintunnel import match_boundaries, mode_from_energy
        T2 = abs(match_boundaries(s, mode_from_energy(s, math.sqrt(k0**2 + 1.0))).T) ** 2
        sigma = 0.005 * k0
        d = distortion(s, SpectrumSpec(k0=k0, sigma_k=sigma))
        assert d.transmitted_norm == pytest.approx(T2, abs=5.0 * sigma**2)

    def test_nr_opaque_filter_effect(self):
        # kappa*L = 10 deep NR regime: heavy attenuation and a positive
        # centroid shift (the high-k tail passes preferentially)
        v = 1e-4
        m = 1.0
        w = math.sqrt(2.0 * v) * m
        k0 = w * math.sqrt(0.5)
        L = 10.0 / k0  # kappa = k at the symmetric point
        s = BarrierSetup(m=m, V0=v, L=L)
        d = distortion(s, SpectrumSpec(k0=k0, sigma_k=0.02 * k0))
        assert d.transmitted_norm < 1e-3
        assert d.mean_k_shift > 0.0


class TestRunPacket:
    def test_stationary_phase_regime(self):
        # v=10, n2(k0)=5, mL=0.1, sigma = 0.02 k0: peak within 5% of t_phi
        s = barrier_v10_mL(0.1)
        run = run_packet(s, SpectrumSpec(k0=10.0, sigma_k=0.2))
        assert run.arrival.relative_gap < 0.05
        assert run.arrival.t_predicted == pytest.approx(0.041211386709155222, rel=1e-6)
        assert np.all(run.intensities >= 0.0)
        assert np.all(np.diff(run.times) > 0.0)

    def test_centred_on_upper_edge(self):
        # k0 exactly on the upper edge n2 = v/2 + 1: the prediction is the
        # closed-form edge value (40-digit mpmath: 0.04845238008699547)
        s = barrier_v10_mL(0.1)
        k0 = s.w * math.sqrt(6.0)
        run = run_packet(s, SpectrumSpec(k0=k0, sigma_k=0.02 * k0))
        # n2 = (k0/w)^2 sits one ulp off the edge; the closed form has no
        # edge branch and lands on the edge value to roundoff
        edge = phase_time_closed_form(s, mode_from_n2(s, 6.0))
        assert run.arrival.t_predicted == pytest.approx(edge.t_phi, rel=1e-14)
        assert run.arrival.t_predicted == pytest.approx(
            mp_ratio(10.0, (k0 / s.w) ** 2, s.wL) * edge.tau, rel=1e-14)
        assert run.arrival.t_predicted == pytest.approx(0.04845238008699547, abs=1e-12)

    def test_gap_decreases_with_narrower_spectrum(self):
        s = barrier_v10_mL(0.1)
        gaps = [run_packet(s, SpectrumSpec(k0=10.0, sigma_k=f * 10.0)).arrival.relative_gap
                for f in (0.1, 0.05, 0.02)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_accelerated_arrival_near_lower_edge(self):
        # n2(k0) just above the lower edge, small mL: the measured peak
        # leads the classical traversal (t_peak < tau)
        s = barrier_v10_mL(0.1)
        n2 = 4.05
        k0 = s.w * math.sqrt(n2)
        run = run_packet(s, SpectrumSpec(k0=k0, sigma_k=0.02 * k0))
        tau = classical_tau(s, mode_from_n2(s, n2))
        assert run.arrival.t_peak < tau

    def test_nr_opaque_front_loading(self):
        # filter effect of deep NR tunneling: the transmitted peak leads
        # the classical arrival and almost nothing gets through
        v = 1e-4
        w = math.sqrt(2.0 * v)
        k0 = w * math.sqrt(0.5)
        s = BarrierSetup(m=1.0, V0=v, L=10.0 / k0)
        run = run_packet(s, SpectrumSpec(k0=k0, sigma_k=0.02 * k0))
        tau = classical_tau(s, mode_from_n2(s, 0.5))
        assert run.arrival.t_peak < tau
        assert run.distortion.transmitted_norm < 1e-3

    def test_zero_width_barrier_peak_at_zero(self):
        s = barrier_v10_mL(0.0)
        run = run_packet(s, SpectrumSpec(k0=10.0, sigma_k=0.5))
        assert run.arrival.t_peak == pytest.approx(0.0, abs=1e-3)


class TestInputValidation:
    @pytest.mark.parametrize("n_times", [0, -5, 2, 2.5, 401.0, True, None])
    def test_run_packet_n_times(self, n_times):
        s = barrier_v10_mL(0.1)
        with pytest.raises(DomainError):
            run_packet(s, SpectrumSpec(k0=10.0, sigma_k=0.2), n_times=n_times)

    def test_run_packet_accepts_numpy_int(self):
        s = barrier_v10_mL(0.1)
        run = run_packet(s, SpectrumSpec(k0=10.0, sigma_k=0.2), n_times=np.int64(3))
        assert len(run.times) == 3

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, monkeypatch, tol):
        calls = []
        monkeypatch.setattr(wp, "_closed_forms",
                            lambda *a: calls.append(a))  # never reached
        s = barrier_v10_mL(0.1)
        spec = SpectrumSpec(k0=10.0, sigma_k=0.2)
        with pytest.raises(DomainError):
            run_packet(s, spec, tol=tol)
        for synth, x in ((synthesize_transmitted, s.L), (synthesize_incident, 0.0),
                         (synthesize_reflected, 0.0)):
            with pytest.raises(DomainError):
                synth(s, spec, x, 0.0, tol=tol)
        with pytest.raises(DomainError):
            distortion(s, spec, tol=tol)
        assert calls == []


class TestPhaseTable:
    @pytest.mark.parametrize("count", [1, 2, 3, 10, 41, 64, 65, 129, 650, 2001])
    def test_matches_direct_sum(self, count):
        # block boundaries (64, 65, 129) and a partial last block (2001);
        # the tables come from ceil(sqrt(n))-row factors, so n = 2, 3 and
        # non-square n (2, 3, 10, 41 rows; 11 and 32 blocks) are covered
        ks = np.linspace(8.0, 12.0, 257)
        E = np.sqrt(ks * ks + 1.0)
        c = np.exp(-0.5 * ((ks - 10.0) / 0.5) ** 2) * np.exp(0.3j * ks)
        t0, dt = -0.8, 1.6 / 2000
        direct = np.exp(-1j * np.outer(t0 + dt * np.arange(count), E)) @ c
        got = wp._phase_sums(E, c, t0, dt, count)
        assert got.shape == (count,)
        assert float(np.max(np.abs(got - direct))) <= 1e-12 * float(np.max(np.abs(direct)))


def _count_closed_form(monkeypatch):
    """(calls, grids): every n2 the closed-form core is evaluated at, summed
    over its grid calls, and the grids it is called with."""
    calls, grids = [], []
    original = wp._closed_forms

    def counted(v, n2s, wL, **kwargs):
        calls.extend(n2s.tolist())
        grids.append(n2s)
        return original(v, n2s, wL, **kwargs)

    monkeypatch.setattr(wp, "_closed_forms", counted)
    return calls, grids


def test_amplitudes_digest_pinned():
    # T and R at the 129 final-level nodes of the README tunneling packet,
    # whose support (8.8 to 11.2) crosses all three zones.  No BLAS takes
    # part, so unlike the intensities these bytes do not depend on thread
    # counts.  Pinned before the closed forms became columns.
    setup, spec = barrier_v10_mL(0.1), SpectrumSpec(k0=10.0, sigma_k=0.2)
    assert run_packet(setup, spec).field_quadrature.nodes == 129
    ks = np.linspace(*spec.support, 129)
    digest = {kind: hashlib.sha256(wp._amplitudes(setup, ks, reflected=kind == "R").tobytes())
              .hexdigest() for kind in "TR"}
    assert digest == {"T": "ef1207d36038eb9d336e169410b95981a95970654568bf4b0679c6d746036644",
                      "R": "a604f8507c19ea937759203ac175951f5a3cfe6dd6c6fb6c5eec7d24579788e5"}


def _broad_packet():
    # the bench's broad packet: one spectrum across all three zones of v = 10
    s = BarrierSetup(m=1.0, V0=10.0, L=2.0 * math.pi / math.sqrt(20.0))
    return s, SpectrumSpec(k0=10.0, sigma_k=1.0)


class TestNestedLadder:
    def test_field_matches_gauss_legendre(self):
        # absolute check of the Simpson combination and the time grid
        # against an independent 400-node Gauss-Legendre sum
        s = barrier_v10_mL(0.1)
        spec = SpectrumSpec(k0=10.0, sigma_k=1.0)
        lo, hi = spec.support
        y, wy = np.polynomial.legendre.leggauss(400)
        ks = 0.5 * (hi - lo) * y + 0.5 * (hi + lo)
        c = 0.5 * (hi - lo) * wy * spec.amplitude(ks) * wp._amplitudes(s, ks)
        t0, dt, count = -0.3, 0.01, 81
        ref = np.exp(-1j * np.outer(t0 + dt * np.arange(count), np.sqrt(ks * ks + 1.0))) @ c
        psi, _, _ = _field_on_times(s, spec, s.L, t0, dt, count, "transmitted", 1e-12)
        assert float(np.max(np.abs(psi - ref))) <= 1e-12 * float(np.max(np.abs(ref)))

    def test_nodes_nest_bitwise(self):
        # the ladder relies on level 2n keeping level n's nodes exactly
        for lo, hi in ((8.8, 11.2), (0.3, 7.1), (1e-3, 2.0 / 3.0)):
            for n in (32, 64, 1024):
                assert np.array_equal(np.linspace(lo, hi, 2 * n + 1)[::2],
                                      np.linspace(lo, hi, n + 1))

    def test_each_node_evaluated_once(self, monkeypatch):
        # the field and the metrics share one ladder: a run_packet makes
        # one closed-form call per node of the finer final grid (README:
        # 129, not 129 + 129; broad: 1025, not 1025 + 1025), all at distinct k
        readme = (barrier_v10_mL(0.1), SpectrumSpec(k0=10.0, sigma_k=0.2))
        for packet, levels in ((readme, (2, 2)), (_broad_packet(), (5, 5))):
            calls, _ = _count_closed_form(monkeypatch)
            run = run_packet(*packet)
            fq, dq = run.field_quadrature, run.distortion.quadrature
            assert (fq.levels, dq.levels) == levels
            assert fq.nodes == 64 * 2 ** (fq.levels - 1) + 1
            assert dq.nodes == 64 * 2 ** (dq.levels - 1) + 1
            assert len(calls) == max(fq.nodes, dq.nodes)
            assert len(set(calls)) == len(calls)

    def test_broad_spectrum_ladder(self, monkeypatch):
        # several levels: still one call per node, and the reports say so
        s, spec = _broad_packet()
        calls, grids = _count_closed_form(monkeypatch)
        psi, fq, _ = _field_on_times(s, spec, s.L, -0.3, 0.02, 41, "transmitted", 1e-8)
        assert fq.levels >= 3
        assert len(calls) == fq.nodes == 64 * 2 ** (fq.levels - 1) + 1
        assert 0.0 <= fq.change <= 1e-8
        # one core call for the 129 nodes of levels 0-2, which the first
        # convergence test needs, then one per further level
        assert len(grids[0]) == 129
        assert len(grids) == fq.levels - 1
        del calls[:], grids[:]
        dq = distortion(s, spec).quadrature
        assert len(calls) == dq.nodes == 64 * 2 ** (dq.levels - 1) + 1
        assert len(grids) == dq.levels

    def test_distortion_matches_full_regrid(self):
        # reusing |T| at the even nodes changes no bit of the metrics
        s = barrier_v10_mL(0.1)
        spec = SpectrumSpec(k0=10.0, sigma_k=1.0)
        d = distortion(s, spec)
        ks, wts, g = next(itertools.islice(wp._simpson_levels(spec), d.quadrature.levels - 1,
                                           None))
        tg = np.abs(wp._amplitudes(s, ks)) * g
        norm_tg2 = float(np.sum(wts * tg * tg))
        norm_g2 = float(np.sum(wts * g * g))
        assert d.transmitted_norm == norm_tg2 / norm_g2
        assert d.mean_k_shift == (float(np.sum(wts * ks * tg * tg)) / norm_tg2
                                  - float(np.sum(wts * ks * g * g)) / norm_g2)


class TestSharedLadder:
    """run_packet forms the metrics from the field ladder's T: no bit may move."""

    @pytest.mark.parametrize("packet, tol, order", [
        (_broad_packet(), 1e-4, "field first"),  # 257 field nodes, 1025 metric nodes
        ((barrier_v10_mL(0.1), SpectrumSpec(k0=10.0, sigma_k=0.2)), 1e-12,
         "metrics first"),  # 513 field nodes, 129 metric nodes
        (_broad_packet(), 1e-8, "together"),  # the bench's broad packet: 1025 each
    ])
    def test_sharing_changes_nothing(self, packet, tol, order):
        s, spec = packet
        n = 401
        run = run_packet(s, spec, n_times=n, tol=tol)
        fq, dq = run.field_quadrature, run.distortion.quadrature
        assert {"field first": fq.nodes < dq.nodes, "metrics first": fq.nodes > dq.nodes,
                "together": fq.nodes == dq.nodes}[order]
        assert run.distortion == distortion(s, spec)
        _, dt = np.linspace(*run.time_window, n, retstep=True)
        psi, report, T = _field_on_times(s, spec, s.L, run.time_window[0], dt, n,
                                         "transmitted", tol)
        assert np.array_equal(run.intensities, np.abs(psi) ** 2)
        assert report == fq
        assert np.array_equal(T, wp._amplitudes(s, np.linspace(*spec.support, fq.nodes)))

    def test_field_error_comes_first(self, monkeypatch):
        # a field that cannot converge raises before arrival or metrics run
        reached = []

        def refuse(name, error):
            def fail(*args):
                reached.append(name)
                raise error(name)
            return fail

        monkeypatch.setattr(wp, "estimate_arrival", refuse("arrival", NoPeakError))
        monkeypatch.setattr(wp, "_distortion", refuse("metrics", wp.QuadratureError))
        monkeypatch.setattr(wp, "_MAX_LEVELS", 1)
        s = barrier_v10_mL(0.1)
        with pytest.raises(wp.QuadratureError, match="intensity did not converge"):
            run_packet(s, SpectrumSpec(k0=10.0, sigma_k=0.2), n_times=41)
        assert reached == []

    def test_arrival_error_before_metrics_error(self, monkeypatch):
        # broad packet at tol 1e-2: the field converges at level 2, the
        # metrics need level 5, so two levels fail only the metrics
        s, spec = _broad_packet()
        monkeypatch.setattr(wp, "_MAX_LEVELS", 2)
        with pytest.raises(wp.QuadratureError, match="distortion metrics"):
            run_packet(s, spec, n_times=41, tol=1e-2)

        def no_peak(*args):
            raise NoPeakError("patched")

        monkeypatch.setattr(wp, "estimate_arrival", no_peak)
        with pytest.raises(NoPeakError):
            run_packet(s, spec, n_times=41, tol=1e-2)
