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
from kleintunnel.wavepacket import _field_on_times


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
        times = np.linspace(-0.3, 0.5, 41)
        a = np.abs(_field_on_times(s, spec, s.L, times, "transmitted", 1e-8)) ** 2
        b = np.abs(_field_on_times(s, spec, s.L, times, "transmitted", 1e-12)) ** 2
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
        expected = phase_time_closed_form(s, mode_from_n2(s, 6.0)).t_phi
        assert run.arrival.t_predicted == expected
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
