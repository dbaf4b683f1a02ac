"""The columnar closed forms and oracle: Python scalars out, numpy for exact
arithmetic only."""

import ast
import cmath
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kleintunnel
from kleintunnel import (
    KleinTunnelError,
    SweepRequest,
    ZoneCrossingError,
    normalized_phase_time,
    normalized_phase_time_numeric,
    rho_n2,
    run_sweep,
    transmission_closed_form,
)
from kleintunnel.kinematics import _edges, _rho_n2_columns
from kleintunnel.phasetime import _phase_time_columns
from kleintunnel.sweep import fig1_request

_PACKAGE = pathlib.Path(kleintunnel.__file__).parent


def _plain(value, *types):
    """True for None or an instance of exactly one of types (np.float64
    subclasses float, and its repr under numpy 2 is 'np.float64(0.5)')."""
    return value is None or type(value) in types


# v = 10 from 2 to 8: Klein, both edges snapped, tunneling and above-barrier
# rows; v = 0 with its snapped upper edge; wL = 0, where both ratio columns
# refuse; q_n wL past the phase cutoff; n2 where the closed ratio overflows
_REQUESTS = (
    SweepRequest(v=10.0, wL=2.0 * math.pi, n2_min=2.0, n2_max=8.0, count=7),
    SweepRequest(v=0.0, wL=2.0 * math.pi, n2_min=0.5, n2_max=1.0 + 1e-10, count=4),
    SweepRequest(v=10.0, wL=0.0, n2_min=1.0, n2_max=6.0, count=6),
    SweepRequest(v=0.0, wL=1.0, n2_min=1e32, n2_max=2e32, count=2),
    SweepRequest(v=0.0, wL=1.0, n2_min=1e153, n2_max=1e154, count=3),
)


class TestPythonScalarsOut:
    def test_sweep_records(self):
        kinds = set()
        for req in _REQUESTS:
            for rec in run_sweep(req):
                kinds.add(rec.zone)
                assert type(rec.n2) is float and type(rec.zone) is str
                assert type(rec.nudged) is bool and _plain(rec.error, str)
                for value in rec[3:8] + (rec.e_over_m,):
                    assert _plain(value, float), (rec, value)
                assert "np." not in repr(rec)
        assert kinds == {"Klein", "EdgeLower", "Tunneling", "EdgeUpper", "AboveBarrier"}
        # the refused rows are among them
        refused = [rec.error for req in _REQUESTS[2:] for rec in run_sweep(req)]
        assert all(refused)

    @pytest.mark.parametrize("v, n2, wL", [(10.0, 5.0, 2.0 * math.pi), (10.0, 2.0, 400.0),
                                           (10.0, 6.0, 2.0 * math.pi), (0.0, 0.5, 1.0),
                                           (1.0, 1.2, 0.0), (10.0, 5.0, 4000.0)])
    def test_transmission_point(self, v, n2, wL):
        point = transmission_closed_form(v, n2, wL)
        for name in ("magnitude", "phase", "probability"):
            assert type(getattr(point, name)) is float
        assert type(point.T) is complex and type(point.R) is complex
        assert type(point.winding) is int
        assert "np." not in repr(point)

    @pytest.mark.parametrize("v, n2, wL", [(10.0, 5.0, 2.0 * math.pi), (10.0, 2.0, 400.0),
                                           (0.0, 0.5, 1.0), (2.0, 1e-13, 1.0)])
    def test_scalar_entry_points(self, v, n2, wL):
        assert type(normalized_phase_time(v, n2, wL)) is float
        assert type(normalized_phase_time_numeric(v, n2, wL)) is float
        assert type(rho_n2(v, n2)) is float


# numpy ufuncs that round differently from math or from float arithmetic
_FORBIDDEN = {"exp", "sin", "cos", "tan", "sinh", "cosh", "tanh", "arctan", "hypot",
              "power", "square", "log"}


def _numpy_aliases(tree: ast.AST) -> set[str]:
    """The names numpy is imported under in a module."""
    return {"numpy"} | {a.asname or a.name for node in ast.walk(tree)
                        if isinstance(node, ast.Import) for a in node.names if a.name == "numpy"}


def _numpy_uses(tree: ast.AST) -> list[str]:
    """Forbidden numpy names used in a module: np.<name>, and from-imports."""
    aliases = _numpy_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [a.name for a in node.names if a.name in _FORBIDDEN]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _FORBIDDEN
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", ["scattering.py", "sweep.py", "kinematics.py", "phasetime.py"])
def test_no_numpy_transcendentals(module):
    """The dataset bytes rest on math for every transcendental.

    numpy's SIMD exp, sin, tanh, atan and the like differ from math in up
    to 14 % of samples (measured on an x86-64 Xeon with numpy 2.4), and
    np.power special-cases x ** 2 as x * x, which differs from pow in about
    1e-3 of samples.  Only +, -, *, / and sqrt, which IEEE 754 rounds
    correctly, may run in numpy.  The digest tests would catch a moved byte
    on a host like that one only; this check holds on every host.
    """
    tree = ast.parse((_PACKAGE / module).read_text(encoding="utf-8"))
    assert _numpy_uses(tree) == []


def test_rule_guard_sees_a_breach():
    tree = ast.parse("import numpy as xp\nfrom numpy import tanh\n"
                     "y = xp.exp(1.0) + xp.sqrt(2.0)\n")
    assert _numpy_uses(tree) == ["tanh", "xp.exp (line 3)"]


def _is_complex_type(node: ast.AST, aliases: set[str]) -> bool:
    """complex, np.complex*, or a dtype string naming a complex type."""
    return ((isinstance(node, ast.Name) and node.id == "complex")
            or (isinstance(node, ast.Attribute) and node.attr.startswith("complex")
                and isinstance(node.value, ast.Name) and node.value.id in aliases)
            or (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "complex" in node.value))


def _complex_uses(tree: ast.AST) -> list[str]:
    """Complex literals, complex dtypes and numpy complex types in a module.

    The builtin complex is allowed as a constructor (the oracle builds the
    arguments of the mapped cmath.exp with it), not as a dtype.
    """
    aliases = _numpy_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, complex):
            found.append(f"{node.value!r} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [a.name for a in node.names if a.name.startswith("complex")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("complex")
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.keyword) and node.arg == "dtype" and _is_complex_type(
                node.value, aliases):
            found.append(f"complex dtype (line {node.value.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("astype", "view")
                and any(_is_complex_type(a, aliases) for a in node.args)):
            found.append(f"{node.func.attr} to complex (line {node.lineno})")
    return found


def test_oracle_columns_are_real():
    """The column oracle carries each complex quantity as two float64
    arrays, multiplied and divided in CPython's order.  numpy's complex128
    * and / round differently in up to half the entries, and a complex
    literal in mixed arithmetic follows whatever rules the running Python
    has for real operands; either would move ratio_numeric bytes."""
    tree = ast.parse((_PACKAGE / "phasetime.py").read_text(encoding="utf-8"))
    assert _complex_uses(tree) == []


def test_complex_guard_sees_a_breach():
    tree = ast.parse("import numpy as xp\nfrom numpy import complex128\n"
                     "z = 1j * x + complex(x, 0.0)\n"
                     "a = xp.zeros(3, dtype=complex) + xp.ones(3, dtype='complex64')\n"
                     "b = xp.complex128(a).astype(complex)\n")
    assert sorted(_complex_uses(tree)) == [
        "1j (line 3)", "astype to complex (line 5)", "complex dtype (line 4)",
        "complex dtype (line 4)", "complex128", "xp.complex128 (line 5)"]


# the closed columns' refusal texts and cutoff, decided once in scattering
_REFUSAL_TEXTS = ("is not finite", "too large to resolve the phase",
                  "tau=0 and t_phi/tau is undefined")


def _refusal_rule_breaches(tree: ast.AST) -> list[str]:
    """Refusal texts of the closed columns, and uses of _MAX_WINDING, in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += [f"{text!r} (line {node.lineno})" for text in _REFUSAL_TEXTS
                      if text in node.value]
        elif isinstance(node, ast.ImportFrom):
            found += [f"import {a.name} (line {node.lineno})" for a in node.names
                      if a.name == "_MAX_WINDING"]
        elif isinstance(node, (ast.Name, ast.Attribute)) and "_MAX_WINDING" in (
                getattr(node, "id", None), getattr(node, "attr", None)):
            found.append(f"_MAX_WINDING (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", ["sweep.py", "phasetime.py", "wavepacket.py"])
def test_one_refusal_rule(module):
    """The closed-form core decides each refused cell (scattering._refusal);
    the sweep, the phase-time calls and the packet only report it.  A
    refusal text or the phase cutoff written here again would be a second
    policy, free to disagree with the first."""
    tree = ast.parse((_PACKAGE / module).read_text(encoding="utf-8"))
    assert _refusal_rule_breaches(tree) == []


def test_refusal_guard_sees_a_breach():
    tree = ast.parse("from .scattering import _MAX_WINDING\n"
                     "far = w > scattering._MAX_WINDING\n"
                     "msg = f'ratio: t_phi/tau is not finite at v={v}'\n")
    assert _refusal_rule_breaches(tree) == [
        "import _MAX_WINDING (line 1)", "_MAX_WINDING (line 2)", "'is not finite' (line 3)"]


def _is_edge_expr(node: ast.AST) -> bool:
    """0.5 * v + 1.0 or 0.5 * v - 1.0, a zone edge written out."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            and isinstance(node.right, ast.Constant) and node.right.value == 1.0
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)
            and isinstance(node.left.left, ast.Constant) and node.left.left.value == 0.5)


def _edge_rule_breaches(tree: ast.AST) -> list[str]:
    """Names of edge tolerances (*_RTOL), equality tests against a
    written-out edge 0.5 * v -+ 1.0 and imports of classify_zone in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"import {a.name} (line {node.lineno})" for a in node.names
                      if a.name == "classify_zone" or a.name.endswith("_RTOL")]
        elif isinstance(node, (ast.Name, ast.Attribute)) and (
                getattr(node, "id", None) or node.attr).endswith("_RTOL"):
            found.append(f"{getattr(node, 'id', None) or node.attr} (line {node.lineno})")
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
            sides = [node.left] + node.comparators
            sides += [e for side in sides if isinstance(side, (ast.Tuple, ast.List, ast.Set))
                      for e in side.elts]
            if any(_is_edge_expr(side) for side in sides):
                found.append(f"edge equality (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", ["sweep.py", "phasetime.py"])
def test_one_edge_rule(module):
    """Whether n2 is on a zone edge is decided once, by kinematics._edges
    with its one tolerance: the zone tags, the sweep's snapping and the
    oracle's refusals read it.  A tolerance, an exact float comparison
    with v/2 -+ 1 or a zone tag used here instead would be a second rule,
    free to disagree with the first, as three such rules once did."""
    tree = ast.parse((_PACKAGE / module).read_text(encoding="utf-8"))
    assert _edge_rule_breaches(tree) == []


def test_edge_tolerance_lives_in_kinematics():
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name != "kinematics.py":
            breaches = _edge_rule_breaches(ast.parse(path.read_text(encoding="utf-8")))
            assert [b for b in breaches if "_RTOL" in b] == [], path.name


def test_edge_guard_sees_a_breach():
    tree = ast.parse("from .kinematics import classify_zone, _EDGE_RTOL\n"
                     "EDGE_SNAP_RTOL = 1e-9\n"
                     "on = (r2 == 0.0) | (n2 == 0.5 * v - 1.0)\n"
                     "top = x in (0.5 * v - 1.0, 0.5 * v + 1.0)\n"
                     "near = abs(n2 - (0.5 * v + 1.0)) <= kinematics._EDGE_RTOL\n")
    assert sorted(_edge_rule_breaches(tree)) == [
        "EDGE_SNAP_RTOL (line 2)", "_EDGE_RTOL (line 5)", "edge equality (line 3)",
        "edge equality (line 4)", "import _EDGE_RTOL (line 1)", "import classify_zone (line 1)"]


# ---------------------------------------------------------------------------
# the column oracle against plain complex arithmetic
# ---------------------------------------------------------------------------

def _scalar_oracle(v, n2, r2, wL):
    """t_phi/tau by plain complex arithmetic, as the one-point oracle computed
    it before it became a column pass (scattering._matched inlined); None
    where that refused: rho_n^2 == 0 or wL = 0."""
    if r2 == 0.0 or wL == 0.0:
        return None
    n = math.sqrt(n2)
    kappa = complex(math.sqrt(r2)) if r2 > 0.0 else 1j * math.sqrt(-r2)
    u = cmath.exp(-kappa * wL)
    ir = 1j * n / kappa
    g1 = 0.5 * (1.0 - ir)
    g2 = 0.5 * (1.0 + ir)
    u2 = u * u
    g2u2 = g2 * u2
    P = g1 + g2u2
    Qk = g2u2 - g1
    det = kappa * Qk + 1j * n * P
    dn = 0.5 / n
    dkappa = (v / math.sqrt(1.0 + 2.0 * n2 * v) - 1.0) / (2.0 * kappa)
    dg2 = 0.5 * (1j * (dn - n * dkappa / kappa) / kappa)
    du2 = -2.0 * wL * dkappa * u2
    g2du2 = g2 * du2
    dP = dg2 * (u2 - 1.0) + g2du2
    dQ = dkappa * Qk + kappa * (dg2 * (u2 + 1.0) + g2du2)
    ddet = dQ + 1j * (dn * P + n * dP)
    return 2.0 * n / wL * (-(ddet / det).imag - wL * dkappa.imag)


def _linear(lo, hi, count):
    return lo + np.arange(count) * ((hi - lo) / (count - 1))


# (v, wL, n2 grid): the five fig1 panels, v = 100 with up to 13 Klein
# windings, an opaque wL = 400, about 5e4 windings at wL = 3e5 and the
# v = 2 threshold down to n2 = 1e-13: 26 000 rows
_ORACLE_GRIDS = tuple((v, 2.0 * math.pi, fig1_request(v).grid())
                      for v in (0.0, 1.0, 2.0, 5.0, 10.0)) + (
    (100.0, 2.0 * math.pi, _linear(53.0 / 4000, 53.0, 4000)),
    (10.0, 400.0, _linear(0.004, 8.0, 4000)),
    (0.0137, 3e5, _linear(3.00685 / 4000, 3.00685, 4000)),
    (2.0, 2.0 * math.pi, np.logspace(-13.0, math.log10(4.0), 4000)),
)

# the arithmetic rules the column code writes out: a real operand counts as
# complex(x, 0.0) in CPython 3.10-3.13, and no longer from 3.14 on
_MIXED_AS_COMPLEX = pytest.mark.skipif(
    sys.version_info >= (3, 14), reason="mixed real/complex arithmetic changed in 3.14")


def _refused_on(v, n2):
    """A refusal the scalar oracle did not make: the zone-edge band of the
    one edge rule, kinematics._edges."""
    return any(_edges(v, n2))


@_MIXED_AS_COMPLEX
def test_column_oracle_is_the_scalar_arithmetic_bitwise():
    assert sum(len(grid) for _, _, grid in _ORACLE_GRIDS) == 26000
    differ = []
    for v, wL, n2 in _ORACLE_GRIDS:
        r2, s = _rho_n2_columns(v, n2)
        ratio, _ = _phase_time_columns(v, n2, r2, s, wL)
        for x, r, got in zip(n2.tolist(), r2.tolist(), ratio.tolist()):
            want = _scalar_oracle(v, x, r, wL)
            if math.isnan(got) and (want is None or _refused_on(v, x)):
                continue
            if repr(got) != repr(want):
                differ.append((v, wL, x, got, want))
    assert differ == []


@st.composite
def _any_zone_points(draw):
    """(v, n2, wL): v in [0, 500], wL in [0.01, 1000]; n2 in the Klein,
    tunneling or above-barrier zone, on an edge or up to 1e-3 off one."""
    v = draw(st.floats(0.0, 500.0))
    wL = 10.0 ** draw(st.floats(-2.0, 3.0))
    lo, hi = 0.5 * v - 1.0, 0.5 * v + 1.0
    where = draw(st.sampled_from(["Klein", "Tunneling", "AboveBarrier", "edge"]))
    if where == "edge":
        edge = draw(st.sampled_from([hi] + ([lo] if lo > 0.0 else [])))
        return v, edge * (1.0 + draw(st.sampled_from([0.0, 1.0, -1.0]))
                          * 10.0 ** draw(st.floats(-16.0, -3.0))), wL
    span = {"Klein": (0.0, lo), "Tunneling": (max(lo, 0.0), hi),
            "AboveBarrier": (hi, hi + 50.0)}[where]
    n2 = span[0] + (span[1] - span[0]) * draw(st.floats(0.0, 1.0))
    return v, max(n2, 1e-3), wL


@_MIXED_AS_COMPLEX
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_any_zone_points())
def test_one_point_oracle_is_the_scalar_arithmetic_bitwise(point):
    v, n2, wL = point
    want = _scalar_oracle(v, n2, rho_n2(v, n2), wL)
    try:
        got = normalized_phase_time_numeric(v, n2, wL)
    except ZoneCrossingError:
        assert want is None or _refused_on(v, n2)
    except KleinTunnelError:
        assert not math.isfinite(want)
    else:
        assert repr(got) == repr(want)
