import itertools
import math
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from kleintunnel import (
    BarrierSetup,
    DomainError,
    KleinTunnelError,
    NonPropagatingError,
    SpectrumSpec,
    Zone,
    barrier_channel,
    classical_tau,
    classify_zone,
    mode_from_energy,
    mode_from_n2,
    rho_n2,
    tunneling_interval_n2,
)

SQRT101 = 10.04987562112089


def make(m=1.0, V0=10.0, L=1.0):
    return BarrierSetup(m=m, V0=V0, L=L)


class TestBarrierSetup:
    def test_derived_quantities_exact(self):
        s = make(m=2.0, V0=5.0, L=0.25)
        assert s.w**2 == pytest.approx(2.0 * 2.0 * 5.0, rel=1e-15)
        assert s.v == pytest.approx(s.w**2 / (2.0 * s.m**2), rel=1e-15)
        assert s.wL == s.w * s.L

    def test_validation(self):
        with pytest.raises(DomainError):
            BarrierSetup(m=0.0, V0=10.0, L=1.0)
        with pytest.raises(DomainError):
            BarrierSetup(m=1.0, V0=-1.0, L=1.0)
        with pytest.raises(DomainError):
            BarrierSetup(m=1.0, V0=10.0, L=-0.1)

    def test_w_where_the_product_underflows(self):
        # 2*m*V0 = 2e-400 is 0 in doubles, and w = sqrt(2e-400) was refused;
        # w is formed from the factors there, a setup at m = 1e-200 is the
        # m = 1 one scaled, and from_dimensionless keeps its wL
        s = BarrierSetup(m=1e-200, V0=1e-200, L=1.0)
        with mpmath.workdps(40):
            w = float(mpmath.sqrt(2 * mpmath.mpf(1e-200) * mpmath.mpf(1e-200)))
        assert s.w == pytest.approx(w, rel=3e-16)
        assert s.v == 1.0
        s = BarrierSetup.from_dimensionless(1.0, 2.0 * math.pi, m=1e-200)
        assert s.v == 1.0
        assert s.wL == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert s.L == pytest.approx(1e200 * BarrierSetup.from_dimensionless(1.0, 2.0 * math.pi).L,
                                    rel=1e-15)

    def test_from_dimensionless_roundtrip(self):
        s = BarrierSetup.from_dimensionless(10.0, 2.0 * math.pi, m=3.0)
        assert s.v == pytest.approx(10.0, rel=1e-15)
        assert s.wL == pytest.approx(2.0 * math.pi, rel=1e-15)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: classify_zone(make(), NAN), id="classify_zone-nan"),
    pytest.param(lambda: classify_zone(make(), INF), id="classify_zone-inf"),
    pytest.param(lambda: mode_from_n2(make(), INF), id="mode_from_n2-inf"),
    pytest.param(lambda: mode_from_n2(make(), NAN), id="mode_from_n2-nan"),
    pytest.param(lambda: mode_from_energy(make(), INF), id="mode_from_energy-inf"),
    pytest.param(lambda: mode_from_energy(make(), NAN), id="mode_from_energy-nan"),
    pytest.param(lambda: BarrierSetup(m=1.0, V0=INF, L=1.0), id="setup-V0-inf"),
    pytest.param(lambda: BarrierSetup(m=INF, V0=10.0, L=1.0), id="setup-m-inf"),
    pytest.param(lambda: BarrierSetup(m=1.0, V0=10.0, L=INF), id="setup-L-inf"),
    pytest.param(lambda: BarrierSetup.from_dimensionless(10.0, INF), id="from_dimensionless-wL-inf"),
    pytest.param(lambda: BarrierSetup.from_dimensionless(INF, 1.0), id="from_dimensionless-v-inf"),
    pytest.param(lambda: SpectrumSpec(k0=NAN, sigma_k=0.2), id="spectrum-k0-nan"),
    pytest.param(lambda: SpectrumSpec(k0=INF, sigma_k=0.2), id="spectrum-k0-inf"),
    pytest.param(lambda: SpectrumSpec(k0=10.0, sigma_k=INF), id="spectrum-sigma-inf"),
    pytest.param(lambda: SpectrumSpec(k0=10.0, sigma_k=0.2, support_halfwidth=NAN),
                 id="spectrum-halfwidth-nan"),
    pytest.param(lambda: SpectrumSpec(k0=10.0, sigma_k=0.2, support_halfwidth=INF),
                 id="spectrum-halfwidth-inf"),
    # w = 2 sqrt((m/2) V0) overflows itself, not only the product 2 m V0
    pytest.param(lambda: BarrierSetup(m=1.7e308, V0=1.7e308, L=1.0), id="setup-w-overflows"),
])
def test_non_finite_inputs_are_domain_errors(call):
    # plain DomainError, not a subclass such as NonPropagatingError or
    # SupportError whose message would misstate the cause
    with pytest.raises(DomainError, match="finite") as excinfo:
        call()
    assert excinfo.type is DomainError


class TestModes:
    def test_mode_from_energy_exact_point(self):
        # m=1, V0=10 (w^2=20), E=sqrt(101): k=10, n2=5
        mode = mode_from_energy(make(), SQRT101)
        assert mode.k == pytest.approx(10.0, rel=1e-14)
        assert mode.n2 == pytest.approx(5.0, rel=1e-14)

    def test_mode_from_energy_generic(self):
        # E=3: k = sqrt(8), n2 = 8/20
        mode = mode_from_energy(make(), 3.0)
        assert mode.k == pytest.approx(2.8284271247461901, rel=1e-15)
        assert mode.n2 == pytest.approx(0.4, rel=1e-14)

    def test_threshold_is_non_propagating(self):
        with pytest.raises(NonPropagatingError):
            mode_from_energy(make(), 1.0)
        with pytest.raises(NonPropagatingError):
            mode_from_energy(make(), 0.3)

    def test_mode_from_n2_point(self):
        mode = mode_from_n2(make(), 5.0)
        assert mode.E == pytest.approx(SQRT101, rel=1e-15)
        assert mode.k == pytest.approx(10.0, rel=1e-15)

    def test_mode_from_n2_threshold_limit(self):
        mode = mode_from_n2(make(), 1e-14)
        assert mode.E == pytest.approx(1.0, abs=1e-12)

    def test_mode_from_n2_domain(self):
        with pytest.raises(DomainError):
            mode_from_n2(make(), 0.0)
        with pytest.raises(DomainError):
            mode_from_n2(make(), -1.0)

    def test_nr_reduction_of_dispersion(self):
        # v -> 0: E - m -> n2 w^2 / (2m), the Schroedinger kinetic energy
        s = make(V0=1e-10)
        for n2 in (0.1, 0.5, 0.9):
            mode = mode_from_n2(s, n2)
            e_nr = n2 * s.w**2 / (2.0 * s.m)
            assert mode.E - s.m == pytest.approx(e_nr, rel=1e-9)

    def test_roundtrip_energy_n2(self):
        s = make()
        for E in np.geomspace(1.0 + 1e-9, 100.0, 250):
            mode = mode_from_energy(s, float(E))
            back = mode_from_n2(s, mode.n2)
            assert back.E == pytest.approx(mode.E, rel=1e-12)
            assert back.k == pytest.approx(mode.k, rel=1e-12)


class TestZones:
    @pytest.mark.parametrize("E,zone", [
        (5.0, Zone.KLEIN),
        (10.0, Zone.TUNNELING),
        (12.0, Zone.ABOVE_BARRIER),
        (9.0, Zone.EDGE_LOWER),
        (11.0, Zone.EDGE_UPPER),
        (1.0, Zone.NON_PROPAGATING),
        (0.5, Zone.NON_PROPAGATING),
    ])
    def test_examples(self, E, zone):
        assert classify_zone(make(), E) is zone

    def test_interval_equivalence(self):
        # Tunneling iff (n2 - v/2)^2 < 1, checked independently of the
        # E-space inequalities used by the classifier
        rng = np.random.default_rng(42)
        for _ in range(2000):
            v = float(rng.uniform(0.05, 50.0))
            s = BarrierSetup.from_dimensionless(v, 1.0)
            n2 = float(rng.uniform(1e-3, 0.5 * v + 4.0))
            if abs(abs(n2 - 0.5 * v) - 1.0) < 1e-9:
                continue
            zone = classify_zone(s, mode_from_n2(s, n2).E)
            assert (zone is Zone.TUNNELING) == ((n2 - 0.5 * v) ** 2 < 1.0)

    def test_tunneling_interval_helper(self):
        assert tunneling_interval_n2(10.0) == (4.0, 6.0)
        assert tunneling_interval_n2(1.0) == (0.0, 1.5)


class TestBarrierChannel:
    def test_evanescent_point(self):
        s = make()
        mode = mode_from_n2(s, 5.0)
        ch = barrier_channel(s, mode)
        assert ch.kind == "evanescent"
        # rho(n)^2 = sqrt(101) - 10; cross-checked against m^2-(E-V0)^2
        assert ch.rho_n**2 == pytest.approx(SQRT101 - 10.0, rel=1e-12)
        assert ch.rho_n == pytest.approx(0.22332850494482398, rel=1e-12)
        assert s.w**2 * ch.rho_n**2 == pytest.approx(ch.rho**2, rel=1e-12)

    def test_sign_where_the_product_of_factors_underflows(self):
        # (m - E + V0)(m + E - V0) is about 1e-324 and read 0.0: the channel
        # was linear with rho = 0, where the true rho is m.  The factors are
        # m -+ (E - V0), exact here since E - V0 = 0, so rho is m exactly,
        # and rho_n = m/w with w of the subnormal 2 m V0 taken from its
        # factors (40-digit mpmath; w was 4.7e-13 off when taken from the product)
        s = BarrierSetup(m=1e-162, V0=1e-150, L=1.0)
        ch = barrier_channel(s, mode_from_energy(s, 1e-150))
        assert ch.kind == "evanescent"
        assert ch.rho == 1e-162
        with mpmath.workdps(40):
            m, V0 = mpmath.mpf(1e-162), mpmath.mpf(1e-150)
            assert s.w == pytest.approx(float(mpmath.sqrt(2 * m * V0)), rel=3e-16)
            assert ch.rho_n == pytest.approx(float(m / mpmath.sqrt(2 * m * V0)), rel=3e-16)

    def test_linear_at_edges(self):
        s = make()
        assert barrier_channel(s, mode_from_energy(s, 9.0)).kind == "linear"
        assert barrier_channel(s, mode_from_energy(s, 11.0)).kind == "linear"

    def test_oscillatory_point(self):
        s = make()
        ch = barrier_channel(s, mode_from_energy(s, 12.0))
        assert ch.kind == "oscillatory"
        assert ch.q == pytest.approx(1.7320508075688773, rel=1e-14)

    def test_channel_consistency_random(self):
        rng = np.random.default_rng(7)
        s = make()
        for _ in range(500):
            E = float(rng.uniform(1.0 + 1e-6, 20.0))
            if min(abs(E - 9.0), abs(E - 11.0)) < 1e-9:
                continue
            ch = barrier_channel(s, mode_from_energy(s, E))
            if ch.kind == "evanescent":
                assert ch.rho**2 + (E - 10.0) ** 2 == pytest.approx(1.0, rel=1e-12)
            else:
                assert ch.q**2 - (E - 10.0) ** 2 == pytest.approx(-1.0, rel=1e-12)


def mp_rho_n2(v, n2):
    """40-digit (1 - (n2 - v/2)^2) / (sqrt(1 + 2 n2 v) + n2 + v/2), its
    numerator exact (fractions) so that it cancels at no n2."""
    d = Fraction(n2) - Fraction(v) / 2
    num = 1 - d * d
    with mpmath.workdps(40):
        return (mpmath.mpf(num.numerator) / num.denominator) / (
            mpmath.sqrt(1 + 2 * mpmath.mpf(n2) * v) + mpmath.mpf(n2) + mpmath.mpf(v) / 2)


def rho_n2_error(v, n2):
    """Relative error of rho_n2 against mp_rho_n2 (0 or inf where that is 0)."""
    want, got = mp_rho_n2(v, n2), rho_n2(v, n2)
    if want == 0:
        return 0.0 if got == 0.0 else math.inf
    return float(abs(got - want) / abs(want))


def factor_rounding(v, n2):
    """The known error of rho_n2, relative: its factors are formed as
    (1 + n2) - v/2 and (1 - n2) + v/2, so 1 + n2 and 1 - n2 round first.
    The sum, over both factors, of that rounding over the exact factor
    (inf where the factor is 0); 0 where 1 -+ n2 is exact."""
    x, h = Fraction(n2), Fraction(v) / 2
    total = 0.0
    for rounded, exact, factor in ((1.0 + n2, 1 + x, 1 + x - h), (1.0 - n2, 1 - x, 1 - x + h)):
        gap = abs(Fraction(rounded) - exact)
        if gap:
            total += math.inf if factor == 0 else float(gap / abs(factor))
    return total


def rho_n2_points():
    """Both sides of every edge at relative offsets 1e-15 ... 1e-3 and the
    float edges; v = 2 with n2 from 5e-324 to 1e-3; v from 0 to 1e150; and
    2000 random points, uniform and log-uniform."""
    for v in (1e-8, 1e-6, 1e-3, 0.5, 0.67, 1.0, 2.0, 2.5, 3.0, 4.33, 10.0, 100.0, 1e4, 1e8):
        for edge in [0.5 * v + 1.0] + ([0.5 * v - 1.0] if v > 2.0 else []):
            yield v, edge
            for k in range(3, 16):
                yield v, edge * (1.0 + 10.0 ** -k)
                yield v, edge * (1.0 - 10.0 ** -k)
    for n2 in [5e-324] + [10.0 ** -k for k in range(3, 324, 8)]:
        yield 2.0, n2
    for v in [0.0] + [10.0 ** k for k in range(-300, 151, 10)]:
        for n2 in (0.3, 1.0, 0.5 * v + 0.5, 2.0 * v + 0.1):
            yield v, n2
    rng = np.random.default_rng(0)
    for _ in range(1000):
        v = float(rng.uniform(0.0, 60.0))
        yield v, float(rng.uniform(1e-3, 0.5 * v + 6.0))
    for _ in range(1000):
        v = float(10.0 ** rng.uniform(-8.0, 8.0))
        yield v, float(10.0 ** rng.uniform(-8.0, math.log10(5.0 * v + 60.0)))


# Besides factor_rounding, rho_n2 was at most 4.4e-16 (2 eps) off mp_rho_n2
# over rho_n2_points; the bound is twice that
RHO_N2_RTOL = 4.0 * sys.float_info.epsilon


class TestRhoN2:
    def test_matches_40_digit_reference(self):
        far = [(v, n2, err) for v, n2 in rho_n2_points()
               if (err := rho_n2_error(v, n2)) > RHO_N2_RTOL + factor_rounding(v, n2)]
        assert far == []

    # measured: 0.2 at v = 4.33, 1e-15 below the lower edge; 1.1e-7 at
    # v = 10, n2 = 3.999999996; rho_n2(2, 1e-16) is 0.0 (mpmath: 1.0e-16)
    @pytest.mark.xfail(strict=True, reason=(
        "the lower-edge factor is formed as (1 + n2) - v/2, so 1 + n2 rounds first: "
        "an error of about eps (1 + n2) / |n2 - (v/2 - 1)|, relative"))
    @pytest.mark.parametrize("v, n2", [(4.33, (0.5 * 4.33 - 1.0) * (1.0 - 1e-15)),
                                       (10.0, 3.999999996), (2.0, 1e-16)])
    def test_lower_edge_factor_rounds_first(self, v, n2):
        assert rho_n2_error(v, n2) <= RHO_N2_RTOL

    @pytest.mark.parametrize("v, n2, message", [
        (10.0, -1.0, "n2 must be positive, got -1.0"), (10.0, 0.0, "n2 must be positive, got 0.0"),
        (10.0, NAN, "n2 must be positive, got nan"), (-1.0, 1.0, "v must be >= 0, got -1.0")])
    def test_refuses_outside_its_domain(self, v, n2, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            rho_n2(v, n2)

    def test_matches_direct_form_interior(self):
        # away from the edges the naive sqrt form is accurate enough to
        # compare against
        for v, n2 in [(10.0, 5.0), (3.0, 1.2), (50.0, 25.5), (0.5, 0.7)]:
            direct = math.sqrt(1.0 + 2.0 * n2 * v) - n2 - 0.5 * v
            assert rho_n2(v, n2) == pytest.approx(direct, rel=1e-12)

    def test_vanishes_exactly_at_edges(self):
        assert rho_n2(10.0, 4.0) == 0.0
        assert rho_n2(10.0, 6.0) == 0.0

    def test_sign_variant_does_not_vanish_at_edges(self):
        # the sign-flipped variant sqrt(1+2n2v) - (n2 - v/2) is
        # inconsistent with the tunneling interval: it stays ~v at the
        # edges instead of hitting zero
        v = 10.0
        for n2 in (4.0, 6.0):
            variant = math.sqrt(1.0 + 2.0 * n2 * v) - (n2 - 0.5 * v)
            assert abs(variant) > 1.0
        assert rho_n2(v, 4.0) == 0.0

    def test_positive_iff_tunneling_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            v = float(rng.uniform(0.0, 40.0))
            n2 = float(rng.uniform(1e-3, 0.5 * v + 3.0))
            inside = (n2 - 0.5 * v) ** 2 < 1.0
            assert (rho_n2(v, n2) > 0.0) == inside or (n2 - 0.5 * v) ** 2 == 1.0

    def test_nr_limit(self):
        for n2 in np.linspace(0.01, 0.99, 25):
            assert rho_n2(1e-8, float(n2)) == pytest.approx(1.0 - n2, abs=1e-6)

    def test_overflowing_square_root_is_a_domain_error(self):
        # 2 n2 v overflows in s = sqrt(1 + 2 n2 v); numerator/inf would read
        # 0.0, where rho_n^2 is 5.0e-301 (40-digit mpmath).  Mending s alone
        # still gives 0.0: the numerator's (1 - n2) + v/2 rounds 1 - n2 to
        # -n2 first, so the mend belongs with an exact form of that factor
        with pytest.raises(DomainError, match=r"sqrt\(1 \+ 2\*n2\*v\) overflows"):
            rho_n2(1e300, 5e299)


# every value quoted in the kinematics overflow fixes, within a log grid from
# the smallest subnormal to 1e308
EXTREMES = sorted({5e-324, 1e-300, 1e-200, 1e-154, 1e-100, 1e-10, 0.5, 1.0, 10.0, 1e10,
                   1e100, 1.4e154, 1e200, 1e300, 1e308})


def finite_or_typed(call, *args):
    """call(*args), or None where it raised a KleinTunnelError; every float
    field of what it returned must be finite."""
    try:
        out = call(*args)
    except KleinTunnelError:
        return None
    if isinstance(out, Zone):
        return out
    fields = [out] if isinstance(out, float) else [
        getattr(out, name) for name in ("m", "V0", "L", "w", "v", "wL", "E", "k", "n2",
                                        "rho", "q", "rho_n", "q_n") if hasattr(out, name)]
    assert fields and all(isinstance(x, float) and math.isfinite(x) for x in fields), (
        call.__name__, args, out)
    return out


class TestFiniteOrTyped:
    """Every kinematics function returns finite float fields or raises a
    KleinTunnelError, over a fixed grid of m, V0, L, E and n2."""

    @pytest.mark.parametrize("m", EXTREMES)
    def test_setups_and_modes(self, m):
        for V0, L in itertools.product(EXTREMES, [0.0] + EXTREMES):
            s = finite_or_typed(BarrierSetup, m, V0, L)
            if s is None:
                continue
            for x in EXTREMES:
                finite_or_typed(classify_zone, s, x)
                for mode in (finite_or_typed(mode_from_energy, s, x),
                             finite_or_typed(mode_from_n2, s, x)):
                    if mode is not None:
                        finite_or_typed(barrier_channel, s, mode)
                        if L > 0.0:
                            finite_or_typed(classical_tau, s, mode)

    def test_from_dimensionless(self):
        for v, wL, m in itertools.product(EXTREMES, [0.0] + EXTREMES, EXTREMES):
            finite_or_typed(BarrierSetup.from_dimensionless, v, wL, m)

    @pytest.mark.parametrize("m, V0, L", [(1e-200, 1e200, 1.0), (1.0, 1e300, 1e300)])
    def test_setup_whose_v_or_wL_overflows_is_refused(self, m, V0, L):
        # v = 1e400 read inf; so did wL = 1.4e450
        with pytest.raises(DomainError, match=re.escape(f"m={m}, V0={V0}")):
            BarrierSetup(m=m, V0=V0, L=L)

    def test_w_where_the_product_overflows(self):
        # 2*m*V0 = 2e308 overflows, where w = sqrt(2e308) = 1.4e154: w = inf
        # was refused (inf * 0 made wL nan), and from_dimensionless(1e308,
        # 1e308) took L = wL/inf = 0, so a barrier became no barrier at all
        with mpmath.workdps(40):
            w = float(mpmath.sqrt(2 * mpmath.mpf(1e308)))
        assert BarrierSetup(m=1.0, V0=1e308, L=0.0).w == pytest.approx(w, rel=3e-16)
        s = BarrierSetup.from_dimensionless(1e308, 1e308)
        assert (s.m, s.V0, s.v) == (1.0, 1e308, 1e308)
        assert s.L == pytest.approx(1e308 / w, rel=3e-16)
        assert s.wL == pytest.approx(1e308, rel=3e-16)

    @pytest.mark.parametrize("m, V0", [(1e308, 1.0), (1.7976931348623157e308, 1e-300),
                                       (1e308, 1e10)])
    def test_w_where_2_m_overflows(self, m, V0):
        # 2*m = inf: w = sqrt(2e308) = 1.4e154 was refused as not finite.
        # w = 2*sqrt((m/2)*V0), from the factors where (m/2)*V0 overflows too
        # (V0 = 1e10); measured within 7e-17 of 40-digit mpmath
        with mpmath.workdps(40):
            w = float(mpmath.sqrt(2 * mpmath.mpf(m) * mpmath.mpf(V0)))
        s = BarrierSetup(m=m, V0=V0, L=1.0)
        assert s.w == pytest.approx(w, rel=3e-16)
        assert s.wL == s.w

    def test_mode_whose_k_squared_overflows(self):
        # (E - m)(E + m) overflowed: k and n2 read inf, and tau = L*E/k read 0.0
        s = BarrierSetup(m=1.0, V0=10.0, L=0.5)
        mode = mode_from_energy(s, 1.4e154)
        assert mode.k == pytest.approx(1.4e154, rel=1e-15)
        assert mode.n2 == pytest.approx(9.8e306, rel=1e-14)  # (E^2 - 1)/w^2
        assert classical_tau(s, mode) == pytest.approx(0.5, rel=1e-15)
        channel = barrier_channel(s, mode)
        assert (channel.kind, channel.q) == ("oscillatory", pytest.approx(1.4e154, rel=1e-15))

    def test_mode_whose_n2_overflows_is_refused_but_its_zone_is_not(self):
        s = BarrierSetup(m=1.0, V0=10.0, L=0.5)
        with pytest.raises(DomainError, match="not finite"):
            mode_from_energy(s, 1e200)
        assert classify_zone(s, 1e200) is Zone.ABOVE_BARRIER

    def test_mode_whose_energy_sum_overflows_has_a_value(self):
        # 1 + 2*n2*v overflows: E read inf and was refused, though
        # E = m*sqrt(2)*sqrt(v)*sqrt(n2) = 4.47e154 (40-digit mpmath)
        mode = mode_from_n2(BarrierSetup(m=1.0, V0=10.0, L=0.5), 1e308)
        with mpmath.workdps(40):
            n2 = mpmath.mpf(1e308)
            E = mpmath.sqrt(1 + 2 * n2 * 10)
            k = mpmath.sqrt(2 * 10 * n2)
        assert mode.E == pytest.approx(float(E), rel=1e-15)
        assert mode.k == pytest.approx(float(k), rel=1e-15)
        assert mode.n2 == 1e308

    def test_mode_whose_k_squared_underflows(self):
        # (E - m)(E + m) = 1e-340 read k = 0, and classical_tau divided by it
        s = BarrierSetup(m=1e-200, V0=1e-100, L=1.0)
        mode = mode_from_energy(s, 1e-170)
        assert mode.k == pytest.approx(1e-170, rel=1e-15)
        assert classical_tau(s, mode) == pytest.approx(1.0, rel=1e-15)

    def test_tau_whose_product_overflows(self):
        # L*E = 1e350 overflowed, where tau = L*E/k is about L
        s = BarrierSetup(m=1.0, V0=1e100, L=1e250)
        mode = mode_from_energy(s, 1e100)
        assert classical_tau(s, mode) == pytest.approx(1e250, rel=1e-15)
        # and where L*(E/k) overflows too, tau itself does not exist
        s = BarrierSetup(m=1.0, V0=1e-10, L=1e308)
        with pytest.raises(DomainError, match="^tau = L\\*E/k overflows"):
            classical_tau(s, mode_from_energy(s, 1.0 + 1e-10))
