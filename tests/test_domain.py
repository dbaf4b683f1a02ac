"""The one input domain: every public entry point refuses an input outside
[1e-100, 1e100] (0 allowed for v, wL and L) with one DomainError text, and
gives a value or another typed error at its ends and anywhere inside it."""

import ast
import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kleintunnel
from kleintunnel import (
    BarrierSetup,
    DomainError,
    IncidentMode,
    KleinTunnelError,
    SpectrumSpec,
    SweepRecords,
    SweepRequest,
    Zone,
    barrier_channel,
    classical_tau,
    classify_zone,
    edge_limit_magnitude_nr_form,
    edge_limit_ratio,
    edge_phase_time_ratio,
    match_boundaries,
    mode_from_energy,
    mode_from_n2,
    normalized_phase_time,
    normalized_phase_time_numeric,
    rho_n2,
    run_packet,
    run_sweep,
    small_rho_ratio,
    transmission_closed_form,
    transmission_magnitude_nr_form,
    tunneling_interval_n2,
)

DOMAIN = "is outside the input domain: 1e-100 to 1e100, or 0 for v, wL and L"
TWO_PI = 2.0 * math.pi
SETUP = BarrierSetup(m=1.0, V0=10.0, L=1.0)
MODE = IncidentMode(E=10.04987562112089, k=10.0, n2=5.0)

# each entry point with nominal inputs, by name: a call of keyword inputs
ENTRY_POINTS = {
    "rho_n2": (lambda v, n2: rho_n2(v, n2), dict(v=10.0, n2=5.0)),
    "tunneling_interval_n2": (lambda v: tunneling_interval_n2(v), dict(v=10.0)),
    "transmission_closed_form": (lambda v, n2, wL: transmission_closed_form(v, n2, wL),
                                 dict(v=10.0, n2=5.0, wL=TWO_PI)),
    "normalized_phase_time": (lambda v, n2, wL: normalized_phase_time(v, n2, wL),
                              dict(v=10.0, n2=5.0, wL=TWO_PI)),
    "normalized_phase_time_numeric": (
        lambda v, n2, wL: normalized_phase_time_numeric(v, n2, wL),
        dict(v=10.0, n2=5.0, wL=TWO_PI)),
    "match_boundaries": (lambda v, n2, wL: match_boundaries(v, n2, wL),
                         dict(v=10.0, n2=5.0, wL=TWO_PI)),
    "transmission_magnitude_nr_form": (
        lambda v, n2, wL: transmission_magnitude_nr_form(v, n2, wL),
        dict(v=10.0, n2=5.0, wL=TWO_PI)),
    "small_rho_ratio": (lambda v, n2: small_rho_ratio(v, n2), dict(v=10.0, n2=5.0)),
    "edge_limit_ratio": (lambda v: edge_limit_ratio(v, "upper"), dict(v=10.0)),
    "edge_phase_time_ratio": (lambda v, wL: edge_phase_time_ratio(v, wL, "upper"),
                              dict(v=10.0, wL=TWO_PI)),
    "edge_limit_magnitude_nr_form": (
        lambda v, wL: edge_limit_magnitude_nr_form(v, wL, "upper"), dict(v=10.0, wL=TWO_PI)),
    "BarrierSetup": (lambda m, V0, L: BarrierSetup(m=m, V0=V0, L=L),
                     dict(m=1.0, V0=10.0, L=1.0)),
    "from_dimensionless": (lambda v, wL, m: BarrierSetup.from_dimensionless(v, wL, m),
                           dict(v=10.0, wL=TWO_PI, m=1.0)),
    "mode_from_energy": (lambda E: mode_from_energy(SETUP, E), dict(E=11.0)),
    "mode_from_n2": (lambda n2: mode_from_n2(SETUP, n2), dict(n2=5.0)),
    "classify_zone": (lambda E: classify_zone(SETUP, E), dict(E=11.0)),
    # a mode can be built by hand: the functions that take one check its n2
    "barrier_channel": (lambda n2: barrier_channel(SETUP, IncidentMode(MODE.E, MODE.k, n2)),
                        dict(n2=5.0)),
    "classical_tau": (lambda n2: classical_tau(SETUP, IncidentMode(MODE.E, MODE.k, n2)),
                      dict(n2=5.0)),
    "SweepRequest": (lambda v, wL, n2_min, n2_max: SweepRequest(v=v, wL=wL, n2_min=n2_min,
                                                                n2_max=n2_max, count=3),
                     dict(v=10.0, wL=TWO_PI, n2_min=1e-100, n2_max=8.0)),
    "SpectrumSpec": (lambda k0, sigma_k: SpectrumSpec(k0=k0, sigma_k=sigma_k),
                     dict(k0=10.0, sigma_k=0.2)),
}
ZERO_OK = {"v", "wL", "L"}
BELOW, ABOVE = math.nextafter(1e-100, 0.0), math.nextafter(1e100, math.inf)
OUTSIDE = [BELOW, ABOVE, math.nan, math.inf, -math.inf, -1.0]

CASES = [pytest.param(name, key, value, id=f"{name}-{key}={value!r}")
         for name, (_, inputs) in ENTRY_POINTS.items() for key in inputs
         for value in OUTSIDE + ([] if key in ZERO_OK else [0.0])]


@pytest.mark.parametrize("name, key, value", CASES)
def test_every_entry_point_refuses_each_value_outside_with_one_text(name, key, value):
    call, inputs = ENTRY_POINTS[name]
    with pytest.raises(DomainError) as exc:
        call(**{**inputs, key: value})
    assert str(exc.value) == f"{key}={value!r} {DOMAIN}"
    assert exc.type is DomainError


@pytest.mark.parametrize("n2, end", [(1e-100, "lower"), (1e100, "upper")])
def test_run_packet_refuses_a_support_outside(n2, end):
    # the spectrum's k0 and sigma_k are inside the domain; n2 = (k/w)^2 at
    # one end of its support is not
    s = BarrierSetup(m=1.0, V0=10.0, L=1.0)
    k0 = s.w * math.sqrt(n2)
    spec = SpectrumSpec(k0=k0, sigma_k=0.1 * k0)
    with pytest.raises(DomainError, match=f"^n2=.* {re.escape(DOMAIN)}$") as exc:
        run_packet(s, spec, n_times=41)
    value = float(str(exc.value).split(" ")[0][3:])
    assert (value < 1e-100) if end == "lower" else (value > 1e100)


def value_or_typed(call, *args):
    """call(*args): finite float and complex fields out (a zone tag, or a
    sweep, which test_sweep checks cell by cell), or a KleinTunnelError that
    is not the domain's refusal."""
    try:
        out = call(*args)
    except KleinTunnelError as exc:
        assert not str(exc).endswith(DOMAIN), (call, args, exc)
        return None
    if isinstance(out, (Zone, SweepRecords)):
        return out
    fields = (out if isinstance(out, tuple) else (out,) if isinstance(out, float)
              else dataclasses.astuple(out))
    values = [x for x in fields if isinstance(x, (float, complex))]
    assert values and all(np.isfinite(values)), (call, args, out)
    return out


POINT_FUNCTIONS = (transmission_closed_form, normalized_phase_time,
                   normalized_phase_time_numeric, match_boundaries,
                   transmission_magnitude_nr_form)


@pytest.mark.parametrize("v", [0.0, 1e-100, 1e100])
@pytest.mark.parametrize("wL", [0.0, 1e-100, 1e100])
def test_the_ends_of_the_domain_are_inside(v, wL):
    for n2 in (1e-100, 1e100):
        value_or_typed(rho_n2, v, n2)
        value_or_typed(small_rho_ratio, v, n2)
        for call in POINT_FUNCTIONS:
            value_or_typed(call, v, n2, wL)
    value_or_typed(tunneling_interval_n2, v)
    for edge in ("lower", "upper"):
        value_or_typed(edge_limit_ratio, v, edge)
        value_or_typed(edge_phase_time_ratio, v, wL, edge)
        value_or_typed(edge_limit_magnitude_nr_form, v, wL, edge)
    value_or_typed(lambda: run_sweep(SweepRequest(v=v, wL=wL, n2_min=1e-100, n2_max=1e100,
                                                  count=3)))


@pytest.mark.parametrize("m, V0, L", [
    (1e-100, 1e-100, 0.0), (1e-100, 1e-100, 1e100), (1e-100, 1e-90, 1.0),
    (0.25e100, 1e100, 1e-100), (1e100, 0.25e100, 0.0), (1e100, 1e50, 1e10)])
def test_setups_and_modes_at_the_ends_of_the_domain(m, V0, L):
    # the setups' w, v and wL stay inside too, and so does each mode's n2
    s = value_or_typed(BarrierSetup, m, V0, L)
    value_or_typed(BarrierSetup.from_dimensionless, s.v, s.wL, m)
    for n2 in (1e-100, 1e100):
        mode = value_or_typed(mode_from_n2, s, n2)
        value_or_typed(barrier_channel, s, mode)
        if L > 0.0:
            value_or_typed(classical_tau, s, mode)
    for E in (1e-100, min(m * (1.0 + 1e-15), 1e100), min(s.w * 3e49, 1e100)):
        value_or_typed(classify_zone, s, E)
        value_or_typed(mode_from_energy, s, E)


def test_a_packet_at_the_ends_of_the_domain():
    # k0 = 1e100, with n2 = (k/w)^2 about 5e99 at both ends of the support
    s = BarrierSetup(m=1e50, V0=1e50, L=1e-50)
    value_or_typed(run_packet, s, SpectrumSpec(k0=1e100, sigma_k=1e98), 41)
    value_or_typed(SpectrumSpec, 1e-100, 1e-100)  # a support at k <= 0: SupportError


def log_uniform(lo=-100.0, hi=100.0):
    return st.floats(lo, hi).map(lambda e: min(max(10.0 ** e, 1e-100), 1e100))


@st.composite
def domain_points(draw):
    """(v, n2, wL), log-uniform over the input domain with v = 0 and wL = 0,
    and n2 on or a few ulp beside a zone edge."""
    v = draw(st.one_of(st.just(0.0), log_uniform()))
    wL = draw(st.one_of(st.just(0.0), log_uniform()))
    edges = [e for e in (0.5 * v - 1.0, 0.5 * v + 1.0) if e >= 1e-100]
    n2 = draw(st.one_of(log_uniform(), st.tuples(st.sampled_from(edges),
                                                 st.integers(-3, 3)).map(
        lambda t: t[0] + t[1] * math.ulp(t[0]))))
    return v, min(max(n2, 1e-100), 1e100), wL


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(domain_points())
@example((1.0, 1e-100, 1e100))
@example((1e100, 1e-100, 1e100))
@example((1e-100, 1e-100, 349.0))
@example((2.0, 1e-100, 1e-100))
def test_every_point_function_is_finite_or_typed_inside(point):
    # no RuntimeWarning either: the suite makes every one an error
    v, n2, wL = point
    for call in POINT_FUNCTIONS:
        value_or_typed(call, v, n2, wL)
    value_or_typed(rho_n2, v, n2)
    value_or_typed(small_rho_ratio, v, n2)
    for edge in ("lower", "upper"):
        value_or_typed(edge_phase_time_ratio, v, wL, edge)
        value_or_typed(edge_limit_magnitude_nr_form, v, wL, edge)


def test_one_domain_in_kinematics():
    # one constant pair, one check and one text, all in kinematics; every
    # other module only calls the check
    package = pathlib.Path(kleintunnel.__file__).parent
    texts, pairs, checks = [], [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                    "is outside the input domain" in node.value):
                texts.append(path.name)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Tuple) and [getattr(e, "id", None) for e in t.elts]
                    == ["_LOW", "_HIGH"] for t in node.targets):
                pairs.append(path.name)
            elif isinstance(node, ast.FunctionDef) and node.name == "_in_domain":
                checks.append(path.name)
    assert (texts, pairs, checks) == (["kinematics.py"], ["kinematics.py"], ["kinematics.py"])
