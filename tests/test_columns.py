"""The columnar closed forms: Python scalars out, numpy for exact arithmetic only."""

import ast
import math
import pathlib

import pytest

import kleintunnel
from kleintunnel import (
    SweepRequest,
    normalized_phase_time,
    normalized_phase_time_numeric,
    rho_n2,
    run_sweep,
    transmission_closed_form,
)

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


def _numpy_uses(tree: ast.AST) -> list[str]:
    """Forbidden numpy names used in a module: np.<name>, and from-imports."""
    aliases = {"numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [a.name for a in node.names if a.name in _FORBIDDEN]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _FORBIDDEN
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", ["scattering.py", "sweep.py", "kinematics.py"])
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
