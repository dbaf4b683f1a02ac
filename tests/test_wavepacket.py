import hashlib
import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from kleintunnel import (
    BarrierSetup,
    ClippedWindowError,
    DomainError,
    KleinTunnelError,
    NoPeakError,
    SpectrumSpec,
    SupportError,
    classical_tau,
    mode_from_n2,
    normalized_phase_time,
    run_packet,
    transmission_closed_form,
)
import kleintunnel.wavepacket as wp
from kleintunnel.wavepacket import _estimate_arrival, _field_on_times
from test_phasetime import mp_ratio

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def barrier_v10_mL(mL):
    return BarrierSetup(m=1.0, V0=10.0, L=mL)


class TestSpectrumSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            SpectrumSpec(k0=10.0, sigma_k=0.0)
        with pytest.raises(SupportError):
            SpectrumSpec(k0=1.0, sigma_k=0.2)  # support crosses k = 0
        with pytest.raises(DomainError, match="support_halfwidth must be positive and finite"):
            SpectrumSpec(k0=10.0, sigma_k=0.2, support_halfwidth=0.0)
        SpectrumSpec(k0=10.0, sigma_k=0.2)

    def test_amplitude_symmetric(self):
        spec = SpectrumSpec(k0=10.0, sigma_k=0.5)
        ks = np.linspace(-3.0, 3.0, 41)
        assert np.allclose(spec.amplitude(10.0 + ks), spec.amplitude(10.0 - ks))


class TestSynthesis:
    def test_quadrature_self_consistency(self, monkeypatch):
        # result at the default tolerance sits within 1e-8 (relative to
        # peak) of a much stricter evaluation
        s = barrier_v10_mL(0.1)
        spec = SpectrumSpec(k0=10.0, sigma_k=1.0)
        grid = (-0.3, 0.02, 41)  # np.linspace(-0.3, 0.5, 41)
        assert wp._FIELD_TOL == 1e-8
        a = np.abs(_field_on_times(s, spec, *grid)[0]) ** 2
        monkeypatch.setattr(wp, "_FIELD_TOL", 1e-12)
        b = np.abs(_field_on_times(s, spec, *grid)[0]) ** 2
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
            _field_on_times(s, spec, 0.1, 0.0, 1)


class TestEstimateArrival:
    def test_parabolic_refinement_exact_on_parabola(self):
        times = np.linspace(-1.0, 1.0, 201)
        t_true = 0.1234
        intensities = 5.0 - (times - t_true) ** 2
        est = _estimate_arrival(times, intensities, t_predicted=0.1, tau=1.0)
        assert est.t_peak == pytest.approx(t_true, abs=1e-12)
        assert est.relative_gap == pytest.approx(abs(t_true - 0.1), rel=1e-6)

    def test_clipped(self):
        times = np.linspace(0.0, 1.0, 50)
        bumpy = np.concatenate([[0.5], np.linspace(0.0, 2.0, 49)])
        with pytest.raises(ClippedWindowError):
            _estimate_arrival(times, bumpy, 0.5, 1.0)

    def test_no_peak(self):
        times = np.linspace(0.0, 1.0, 50)
        with pytest.raises(NoPeakError):
            _estimate_arrival(times, np.linspace(0.0, 1.0, 50), 0.5, 1.0)


class TestDistortion:
    def test_identity_filter(self):
        s = barrier_v10_mL(0.0)
        spec = SpectrumSpec(k0=10.0, sigma_k=0.2)
        d = run_packet(s, spec).distortion
        assert d.transmitted_norm == pytest.approx(1.0, abs=1e-12)
        assert d.shape_distance == pytest.approx(0.0, abs=1e-9)
        assert d.mean_k_shift == pytest.approx(0.0, abs=1e-12)

    def test_narrow_spectrum_norm_matches_central_probability(self):
        s = barrier_v10_mL(0.1)
        k0 = 10.0
        from kleintunnel import match_boundaries, mode_from_energy
        mode = mode_from_energy(s, math.sqrt(k0**2 + 1.0))
        T2 = abs(match_boundaries(s.v, mode.n2, s.wL).T) ** 2
        sigma = 0.005 * k0
        d = run_packet(s, SpectrumSpec(k0=k0, sigma_k=sigma)).distortion
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
        d = run_packet(s, SpectrumSpec(k0=k0, sigma_k=0.02 * k0)).distortion
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
        mode = mode_from_n2(s, 6.0)
        tau = classical_tau(s, mode)
        t_phi = normalized_phase_time(s.v, mode.n2, s.wL) * tau
        assert run.arrival.t_predicted == pytest.approx(t_phi, rel=1e-14)
        assert run.arrival.t_predicted == pytest.approx(
            mp_ratio(10.0, (k0 / s.w) ** 2, s.wL) * tau, rel=1e-14)
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

    def test_refused_amplitudes_raise(self):
        # at wL = 1e155 d2 = rho_n^2 wL^2 overflows in the tunneling zone and
        # the core refuses the phase: the field raises that refusal instead
        # of integrating the node
        s = BarrierSetup(m=1.0, V0=10.0, L=1e155 / math.sqrt(20.0))
        spec = SpectrumSpec(k0=10.0, sigma_k=0.05)  # n2 within [4.7, 5.3]
        with pytest.raises(DomainError, match=r"rho_n\^2\*wL\^2 overflows"):
            _field_on_times(s, spec, 0.0, 0.0, 1)


# corners of m, V0, L, k0/w and sigma_k/k0; among them m = 1e-200, V0 = 1e-100,
# k0/w = 1e160, where (k0/w)^2 raised OverflowError, m = 1e200, where E^2 =
# k^2 + m^2 overflowed, and k0/w = 1e-160 at L = 0, where the window half-width
# 6/sigma_k overflowed
PACKET_CORNERS = {"V0": [1e-100, 10.0, 1e100], "L": [0.0, 0.1, 1e300],
                  "k0/w": [1e-160, 1e-3, 0.5, 2.0, 1e160], "sigma_k/k0": [1e-3, 0.02, 0.16]}


class TestFiniteOrTyped:
    """run_packet returns finite times, intensities, arrival and metrics, or
    raises a KleinTunnelError."""

    @pytest.mark.parametrize("m", [1e-200, 1.0, 1e200])
    def test_corners(self, m):
        for V0, L, r, f in itertools.product(*PACKET_CORNERS.values()):
            try:
                s = BarrierSetup(m=m, V0=V0, L=L)
                spec = SpectrumSpec(k0=r * s.w, sigma_k=f * r * s.w)
            except KleinTunnelError:
                continue
            try:
                run = run_packet(s, spec, n_times=41)
            except KleinTunnelError:
                continue
            a, d = run.arrival, run.distortion
            values = [*run.times.tolist(), *run.intensities.tolist(), a.t_peak,
                      a.t_predicted, a.relative_gap, d.transmitted_norm, d.shape_distance,
                      d.mean_k_shift]
            assert all(math.isfinite(x) for x in values), (m, V0, L, r, f)

    @pytest.mark.parametrize("m, V0, L, k0, sigma_k, message", [
        # (k0/w)^2 = 5e319 raised OverflowError, which is no KleinTunnelError
        (1e-200, 1e-100, 1.0, 1e10, 1e9,
         r"^n2 = \(k/w\)\^2 or E = sqrt\(k\^2 \+ m\^2\) overflows .* k=16000000000\.0, w=1\.4"),
        # m*m = inf made E = inf, and exp(-i dt E) nan
        (1e200, 10.0, 0.0, 1e101, 1e98, r"^n2 = .* k=1\.006e\+101, w=4\.47"),
        # 6/sigma_k = inf made the window (-inf, inf) and the times nan
        (1e-200, 1e-100, 0.0, 1e-310, 1e-313, r"^the phase t\*E over the window \(-inf, inf\)"),
        # |t| E = 6/sigma_k * E = 6e16 rad: exp(-i t E) is noise, and so were the
        # intensities (the nodes, 2e-17 apart at k = 10, are not even distinct)
        (1.0, 10.0, 0.0, 10.0, 1e-15,
         r"^the phase t\*E over the window .* 6\.03e\+16, past 2\*\*53"),
    ])
    def test_refused_before_any_quadrature(self, monkeypatch, m, V0, L, k0, sigma_k, message):
        calls, _ = _count_closed_form(monkeypatch)
        with pytest.raises(DomainError, match=message):
            run_packet(BarrierSetup(m=m, V0=V0, L=L), SpectrumSpec(k0=k0, sigma_k=sigma_k))
        assert calls == []

    def test_metrics_refuse_a_norm_below_the_normal_range(self):
        # |T| ~ 1e-170 at wL = 2100: the field, scaled by sigma_k ~ 1e48, has a
        # peak, but |T g|^2 underflows and the metrics divided by a zero norm
        s = BarrierSetup.from_dimensionless(v=10.0, wL=2100.0, m=1e50)
        k0 = s.w * math.sqrt(5.0)
        with pytest.raises(DomainError, match=r"^the transmitted norm .* leaves the normal"):
            run_packet(s, SpectrumSpec(k0=k0, sigma_k=1e-3 * k0), n_times=41)


class TestPhaseTable:
    @pytest.mark.parametrize("count", [1, 2, 3, 10, 41, 64, 65, 129, 650, 2001])
    def test_matches_direct_sum(self, count):
        # block boundaries (64, 65, 129) and a partial last block (2001);
        # the tables double their rows per pass, so row counts that are not
        # powers of two (3, 10, 41 rows; 11 and 32 blocks) are covered
        ks = np.linspace(8.0, 12.0, 257)
        E = np.sqrt(ks * ks + 1.0)
        c = np.exp(-0.5 * ((ks - 10.0) / 0.5) ** 2) * np.exp(0.3j * ks)
        t0, dt = -0.8, 1.6 / 2000
        direct = np.exp(-1j * np.outer(t0 + dt * np.arange(count), E)) @ c
        got = wp._phase_sums(E, c, t0, dt, count)
        assert got.shape == (count,)
        assert float(np.max(np.abs(got - direct))) <= 1e-12 * float(np.max(np.abs(direct)))

    @pytest.mark.parametrize("nodes, t0, dt, count", [
        # the broad packet's window: E up to 16 over 14 time units, 2001 times
        (1025, -7.0, 14.0 / 2000, 2001),
        # a long window: |t0 E| about 1e3, 64 dt E about 300 rad per block
        (513, -64.0, 0.29, 257),
    ])
    def test_matches_direct_sum_at_packet_scale(self, nodes, t0, dt, count):
        # the running products chain up to 63 table and 31 seed factors
        ks = np.linspace(4.0, 16.0, nodes)
        E = np.sqrt(ks * ks + 1.0)
        c = np.exp(-0.5 * ((ks - 10.0) / 1.0) ** 2) * np.exp(0.3j * ks)
        direct = np.exp(-1j * np.outer(t0 + dt * np.arange(count), E)) @ c
        got = wp._phase_sums(E, c, t0, dt, count)
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
    # counts.  Pinned before the closed forms became columns, when the
    # packet carried a reflected field; R is now the one-point closed form's.
    setup, spec = barrier_v10_mL(0.1), SpectrumSpec(k0=10.0, sigma_k=0.2)
    assert run_packet(setup, spec).field_quadrature.nodes == 129
    ks = np.linspace(*spec.support, 129)
    R = np.array([transmission_closed_form(setup.v, (k / setup.w) ** 2, setup.wL).R
                  for k in ks.tolist()], dtype=complex)
    digest = {kind: hashlib.sha256(a.tobytes()).hexdigest()
              for kind, a in (("T", wp._amplitudes(setup, ks)), ("R", R))}
    assert digest == {"T": "ef1207d36038eb9d336e169410b95981a95970654568bf4b0679c6d746036644",
                      "R": "a604f8507c19ea937759203ac175951f5a3cfe6dd6c6fb6c5eec7d24579788e5"}


def _broad_packet():
    # the bench's broad packet: one spectrum across all three zones of v = 10
    s = BarrierSetup(m=1.0, V0=10.0, L=2.0 * math.pi / math.sqrt(20.0))
    return s, SpectrumSpec(k0=10.0, sigma_k=1.0)


_THREADED_RUN = """
import sys
import numpy as np
from kleintunnel import BarrierSetup, SpectrumSpec, run_packet
runs = [run_packet(BarrierSetup(m=1.0, V0=10.0, L=0.1), SpectrumSpec(k0=10.0, sigma_k=0.2)),
        run_packet(BarrierSetup(m=1.0, V0=10.0, L=2.0 * np.pi / np.sqrt(20.0)),
                   SpectrumSpec(k0=10.0, sigma_k=1.0))]
np.save(sys.argv[1], np.array([r.intensities for r in runs]))
"""


def test_intensities_do_not_depend_on_blas_threads(tmp_path):
    # the field's matrix products run on BLAS threads; a packet must not
    # depend on how many (the README and the broad packet, in fresh
    # processes since the thread count is read at import)
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(_SRC), os.environ.get("PYTHONPATH"))))
        path = tmp_path / f"threads{threads}.npy"
        subprocess.run([sys.executable, "-c", _THREADED_RUN, str(path)], env=env,
                       check=True, timeout=300)
        out[threads] = np.load(path)
    for one, two in zip(out["1"], out["2"]):
        assert float(np.max(np.abs(one - two))) <= 1e-13 * float(one.max())


def test_broad_packet_intensities_pinned():
    # the bench's fig1_broad packet at n2 = 5 climbs to ladder level 5, so
    # its bytes cover the levels past the 129 nodes of the first pass,
    # which the README packet (converged at level 2) never reaches; the
    # digest was the same at 1 and 2 OpenBLAS threads when it was pinned
    s = BarrierSetup(m=1.0, V0=10.0, L=2.0 * math.pi / math.sqrt(20.0))
    run = run_packet(s, SpectrumSpec(k0=math.sqrt(20.0) * math.sqrt(5.0), sigma_k=1.0))
    assert run.field_quadrature.levels == 5
    assert hashlib.sha256(run.intensities.tobytes()).hexdigest() == (
        "29b90acd0c093cfeaede0952100bf774814f4d8cb05e8b0eb071a60a1c1b2114")


class TestNestedLadder:
    @pytest.mark.parametrize("L, halfwidth", [(0.1, 6.0), (0.0, 6.0), (0.1, 1.0)],
                             ids=["tunneling", "zero_width", "one_sigma_support"])
    def test_field_matches_gauss_legendre(self, monkeypatch, L, halfwidth):
        # absolute check of the Simpson combination and the time grid
        # against an independent 400-node Gauss-Legendre sum; at L = 0 the
        # sum takes T = 1, so the field must be the free packet's, and a
        # support cut at one sigma gives the halved end nodes of the base
        # grid real weight
        s = barrier_v10_mL(L)
        spec = SpectrumSpec(k0=10.0, sigma_k=1.0, support_halfwidth=halfwidth)
        lo, hi = spec.support
        y, wy = np.polynomial.legendre.leggauss(400)
        ks = 0.5 * (hi - lo) * y + 0.5 * (hi + lo)
        T = wp._amplitudes(s, ks) if L > 0.0 else 1.0
        c = 0.5 * (hi - lo) * wy * spec.amplitude(ks) * T
        t0, dt, count = -0.3, 0.01, 81
        ref = np.exp(-1j * np.outer(t0 + dt * np.arange(count), np.sqrt(ks * ks + 1.0))) @ c
        monkeypatch.setattr(wp, "_FIELD_TOL", 1e-12)
        psi, _, _ = _field_on_times(s, spec, t0, dt, count)
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
        sums, phase_sums = [], wp._phase_sums

        def counted(E, *rest):
            sums.append(len(E))
            return phase_sums(E, *rest)

        monkeypatch.setattr(wp, "_phase_sums", counted)
        psi, fq, _ = _field_on_times(s, spec, -0.3, 0.02, 41)
        assert fq.levels >= 3
        assert len(calls) == fq.nodes == 64 * 2 ** (fq.levels - 1) + 1
        assert 0.0 <= fq.change <= 1e-8
        # one core call for the 129 nodes of levels 0-2, which the first
        # convergence test needs, then one per further level
        assert len(grids[0]) == 129
        assert len(grids) == fq.levels - 1
        # one phase-sum call for the base grid and one per level, each over
        # that level's new nodes
        assert sums == [33] + [32 * 2 ** level for level in range(fq.levels)]

    def test_distortion_matches_full_regrid(self):
        # reusing |T| at the even nodes changes no bit of the metrics
        s = barrier_v10_mL(0.1)
        spec = SpectrumSpec(k0=10.0, sigma_k=1.0)
        d = run_packet(s, spec).distortion
        ks, wts, g = next(itertools.islice(wp._simpson_levels(spec), d.quadrature.levels - 1,
                                           None))
        tg = np.abs(wp._amplitudes(s, ks)) * g
        norm_tg2 = float(np.sum(wts * tg * tg))
        norm_g2 = float(np.sum(wts * g * g))
        assert d.transmitted_norm == norm_tg2 / norm_g2
        assert d.mean_k_shift == (float(np.sum(wts * ks * tg * tg)) / norm_tg2
                                  - float(np.sum(wts * ks * g * g)) / norm_g2)


def _regrid_metrics(setup, spectrum, level):
    """(transmitted_norm, shape_distance, mean_k_shift) at one metrics ladder
    level, with |T| from the closed form at every node of that level."""
    ks, wts, g = next(itertools.islice(wp._simpson_levels(spectrum), level - 1, None))
    tg = np.abs(wp._amplitudes(setup, ks)) * g
    norm_tg2 = float(np.sum(wts * tg * tg))
    norm_g2 = float(np.sum(wts * g * g))
    u, ref = tg / math.sqrt(norm_tg2), g / math.sqrt(norm_g2)
    return (norm_tg2 / norm_g2,
            math.sqrt(max(0.0, float(np.sum(wts * (u - ref) ** 2)))),
            float(np.sum(wts * ks * tg * tg)) / norm_tg2
            - float(np.sum(wts * ks * g * g)) / norm_g2)


class TestSharedLadder:
    """run_packet forms the metrics from the field ladder's T: no bit may move."""

    @pytest.mark.parametrize("packet, tol, order", [
        (_broad_packet(), 1e-4, "field first"),  # 257 field nodes, 1025 metric nodes
        ((barrier_v10_mL(0.1), SpectrumSpec(k0=10.0, sigma_k=0.2)), 1e-12,
         "metrics first"),  # 513 field nodes, 129 metric nodes
        (_broad_packet(), 1e-8, "together"),  # the bench's broad packet: 1025 each
    ])
    def test_sharing_changes_nothing(self, monkeypatch, packet, tol, order):
        s, spec = packet
        n = 401
        monkeypatch.setattr(wp, "_FIELD_TOL", tol)
        run = run_packet(s, spec, n_times=n)
        d = run.distortion
        fq, dq = run.field_quadrature, d.quadrature
        assert {"field first": fq.nodes < dq.nodes, "metrics first": fq.nodes > dq.nodes,
                "together": fq.nodes == dq.nodes}[order]
        # the metrics and their last change equal a ladder that evaluates
        # every node of its last two levels afresh
        prev, vals = (_regrid_metrics(s, spec, level) for level in (dq.levels - 1, dq.levels))
        assert (d.transmitted_norm, d.shape_distance, d.mean_k_shift) == vals
        scales = (max(1.0, abs(vals[0])), 2.0, max(spec.sigma_k, abs(vals[2])))
        assert dq.change == max(abs(a - b) / sc for a, b, sc in zip(vals, prev, scales))
        _, dt = np.linspace(*run.time_window, n, retstep=True)
        psi, report, T = _field_on_times(s, spec, run.time_window[0], dt, n)
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

        monkeypatch.setattr(wp, "_estimate_arrival", refuse("arrival", NoPeakError))
        monkeypatch.setattr(wp, "_distortion", refuse("metrics", wp.QuadratureError))
        monkeypatch.setattr(wp, "_MAX_LEVELS", 1)
        s = barrier_v10_mL(0.1)
        with pytest.raises(wp.QuadratureError, match="intensity did not converge"):
            run_packet(s, SpectrumSpec(k0=10.0, sigma_k=0.2), n_times=41)
        assert reached == []

    def test_arrival_error_before_metrics_error(self, monkeypatch):
        # broad packet at a field tolerance of 1e-2: the field converges at
        # level 2, the metrics need level 5, so two levels fail only the metrics
        s, spec = _broad_packet()
        monkeypatch.setattr(wp, "_MAX_LEVELS", 2)
        monkeypatch.setattr(wp, "_FIELD_TOL", 1e-2)
        with pytest.raises(wp.QuadratureError, match="distortion metrics"):
            run_packet(s, spec, n_times=41)

        def no_peak(*args):
            raise NoPeakError("patched")

        monkeypatch.setattr(wp, "_estimate_arrival", no_peak)
        with pytest.raises(NoPeakError):
            run_packet(s, spec, n_times=41)
