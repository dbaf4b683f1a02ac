import argparse
import hashlib
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kleintunnel
from kleintunnel import (
    BarrierSetup,
    SweepRequest,
    ZoneError,
    mode_from_n2,
    read_csv,
    run_sweep,
    transmission_closed_form,
    transmission_magnitude_nr_form,
    write_csv,
)
import kleintunnel.cli
import kleintunnel.sweep
from kleintunnel.cli import build_parser, main
from kleintunnel.phasetime import edge_phase_time_ratio
from kleintunnel.sweep import CSV_COLUMNS, VALUE_COLUMNS, fig1_preset
from test_phasetime import mp_ratio

# the one DomainError text of the input domain, after "<name>=<value> "
DOMAIN = "is outside the input domain: 1e-100 to 1e100, or 0 for v, wL and L"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_human(text):
    """Parse 'key = value' lines back into a dict."""
    vals = {}
    for line in text.splitlines():
        if " = " not in line:
            continue
        key, _, rest = line.partition(" = ")
        rest = rest.split("   [")[0].strip()
        try:
            vals[key.strip()] = float(rest)
        except ValueError:
            vals[key.strip()] = rest
    return vals


class TestZone:
    def test_tunneling_point(self, capsys):
        code, out, _ = run_cli(capsys, "zone", "--m", "1", "--V0", "10", "--E", "10")
        assert code == 0
        assert parse_human(out)["zone"] == "Tunneling"

    def test_non_propagating_is_a_valid_tag(self, capsys):
        code, out, _ = run_cli(capsys, "zone", "--m", "1", "--V0", "10", "--E", "0.5")
        assert code == 0
        assert parse_human(out)["zone"] == "NonPropagating"

    def test_energy_whose_k_squared_overflows(self, capsys):
        # (E - m)(E + m) overflows at E = 1.4e154, outside the input domain:
        # it exited 1 with "k is not finite: inf", and 0.8.0 printed a mode.
        # At the domain's top end (and n2 = (k/w)^2 inside it) k is a value
        code, out, err = run_cli(capsys, "zone", "--m", "1", "--V0", "10", "--E", "1.4e154")
        assert (code, out, err) == (1, "", f"error: E=1.4e+154 {DOMAIN}\n")
        code, out, err = run_cli(capsys, "zone", "--m", "1", "--V0", "1e100", "--E", "2e99")
        assert (code, err) == (0, "")
        vals = parse_human(out)
        assert vals["zone"] == "Klein" and vals["channel"] == "oscillatory"
        assert vals["k"] == 2e99 and vals["q"] == pytest.approx(8e99, rel=1e-15)


class TestZoneTagsFollowN2:
    """Every caller that holds a mode tags its n2 as the sweep row is tagged.

    At small v, E = m sqrt(1 + 2 n2 v) loses about eps/v relative in n2,
    so a tag read from E missed the 1e-9 edge band: at v = 1e-8 the
    points half a band off the upper edge read Tunneling, and at
    v = 1e-10 every point within two bands read AboveBarrier.
    """

    @pytest.mark.parametrize("v", [1e-8, 1e-10])
    @pytest.mark.parametrize("offset", [-2e-9, -0.5e-9, 0.5e-9, 2e-9])
    def test_callers_agree_with_the_sweep(self, capsys, v, offset):
        n2 = (0.5 * v + 1.0) * (1.0 + offset)
        wL = 60.0
        tag = run_sweep(SweepRequest(v=v, wL=wL, n2_min=n2, n2_max=n2 + 1.0, count=2))[0].zone
        assert tag == ("EdgeUpper" if abs(offset) < 1e-9 else
                       "AboveBarrier" if offset > 0.0 else "Tunneling")
        setup = BarrierSetup.from_dimensionless(v, wL)
        mode = mode_from_n2(setup, n2)
        if tag == "AboveBarrier":
            with pytest.raises(ZoneError):
                transmission_magnitude_nr_form(setup.v, mode.n2, setup.wL)
        else:
            assert 0.0 < transmission_magnitude_nr_form(setup.v, mode.n2, setup.wL) <= 1.0
        for command in ("amp", "phasetime"):
            code, out, _ = run_cli(capsys, command, "--m", "1", "--v", repr(v),
                                   "--wL", repr(wL), "--n2", repr(n2), "--json")
            assert code == 0
            assert json.loads(out)["zone"] == tag


class TestExitCodes:
    def test_usage_error_both_energy_coordinates(self, capsys):
        code, _, _ = run_cli(capsys, "amp", "--m", "1", "--V0", "10",
                             "--E", "5", "--n2", "3")
        assert code == 2

    def test_usage_error_missing_required(self, capsys):
        code, _, _ = run_cli(capsys, "zone", "--m", "1", "--V0", "10")
        assert code == 2

    def test_usage_error_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "zone", "--nope", "1")
        assert code == 2

    @pytest.mark.parametrize("argv, flag", [
        (("sweep", "--v", "1", "--n2-min", "0.1", "--n2-max", "2.5", "--count", "7"),
         "--workers"),
        (("phasetime", "--m", "1", "--V0", "10", "--n2", "5"), "--dE"),
    ], ids=["sweep-workers", "phasetime-dE"])
    def test_removed_flags_are_usage_errors(self, capsys, tmp_path, argv, flag):
        # 0.2.0 removed these flags, which earlier versions accepted and ignored;
        # sweep --m is checked in TestSweepCommand::test_mass_flag_is_ignored
        out = ("--out", str(tmp_path / "s.csv")) if argv[0] == "sweep" else ()
        assert run_cli(capsys, *argv, *out)[0] == 0
        code, _, err = run_cli(capsys, *argv, *out, flag, "1")
        assert code == 2
        assert f"unrecognized arguments: {flag} 1" in err

    def test_computation_error(self, capsys):
        # E below threshold: amplitudes are undefined
        code, _, err = run_cli(capsys, "amp", "--m", "1", "--V0", "10", "--E", "0.5")
        assert code == 1
        assert "error:" in err

    def test_mass_so_small_that_2_m_V0_underflows(self, capsys):
        # 2 m V0 = 2e-400 is 0 in doubles, and w = sqrt(2 m V0) was refused;
        # 0.8.0 took w from the factors.  m = 1e-200 is outside the input
        # domain.  At m = 1e-90 the barrier is the m = 1 one scaled, whose
        # dimensionless results are the same to roundoff
        code, out, err = run_cli(capsys, "amp", "--m", "1e-200", "--v", "1", "--n2", "0.5")
        assert (code, out, err) == (1, "", f"error: m=1e-200 {DOMAIN}\n")
        code, out, err = run_cli(capsys, "amp", "--m", "1e-90", "--v", "1", "--n2", "0.5",
                                 "--json")
        assert (code, err) == (0, "")
        tiny = json.loads(out)
        code, out, _ = run_cli(capsys, "amp", "--m", "1", "--v", "1", "--n2", "0.5", "--json")
        unit = json.loads(out)
        assert tiny["T2_exact"] == pytest.approx(0.0012176926140953718, rel=1e-14)
        assert tiny["zone"] == unit["zone"] == "Tunneling"
        for key in ("n2", "T2_exact", "phase_rad", "R2", "T2_matcher", "T2_nr_form"):
            assert tiny[key] == pytest.approx(unit[key], rel=1e-14), key
        assert tiny["L"] == pytest.approx(1e90 * unit["L"], rel=1e-15)

    @pytest.mark.parametrize("argv", [("phasetime", "--V0", "-1", "--n2", "1"),
                                      ("amp", "--v", "-1", "--n2", "1")])
    def test_non_positive_barrier_height(self, capsys, argv):
        # sqrt(2 m V0) of a negative V0 was a math domain error traceback;
        # the refusal names the flag as given
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {argv[1][2:]}=-1.0 {DOMAIN}\n"

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config"), ("[1, 2]", "must hold a JSON object")],
        ids=["missing", "array"])
    def test_unreadable_config_is_a_usage_error(self, capsys, tmp_path, content, message):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        code, out, err = run_cli(capsys, "zone", "--m", "1", "--V0", "10", "--E", "10",
                                 "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"config {cfg}" in err and message in err

    def test_report_into_a_missing_directory(self, capsys, tmp_path):
        report = tmp_path / "no" / "report.txt"
        code, out, err = run_cli(capsys, "zone", "--m", "1", "--V0", "10", "--E", "10",
                                 "--out", str(report))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: writing {report}: ")

    @pytest.mark.parametrize("n2", ["-1", "0"])
    def test_packet_at_a_non_positive_n2(self, capsys, n2):
        # k0 = w*sqrt(n2) of n2 = -1 was a math domain error traceback
        code, out, err = run_cli(capsys, "packet", "--m", "1", "--V0", "10", "--L", "0.1",
                                 "--n2", n2, "--sigma-k", "0.2")
        assert (code, out) == (1, "")
        assert err == f"error: n2={float(n2)} {DOMAIN}\n"

    @pytest.mark.parametrize("cmd", ["amp", "phasetime"])
    def test_infinite_phase_argument(self, capsys, cmd):
        # q_n wL overflowed to inf in the Klein zone at wL = 1e300: it was a
        # math domain error traceback, and then a typed error of its own.
        # That width is outside the input domain
        code, out, err = run_cli(capsys, cmd, "--v", "10", "--n2", "1", "--wL", "1e300")
        assert code == 1 and out == ""
        assert err == f"error: wL=1e+300 {DOMAIN}\n"

    def test_unresolved_phase_argument(self, capsys):
        # past the phase cutoff (q_n wL ~ 6e50) amp refuses the point, with
        # the text of the sweep's empty phase_rad cell
        code, out, err = run_cli(capsys, "amp", "--v", "10", "--n2", "1e100",
                                 "--wL", repr(2.0 * math.pi))
        assert code == 1 and out == ""
        assert err == ("error: q_n*wL is too large to resolve the phase modulo pi "
                       f"at v=10.0, n2=1e+100, wL={2.0 * math.pi}\n")

    def test_success(self, capsys):
        code, _, _ = run_cli(capsys, "limits", "--v", "10")
        assert code == 0


class TestLimits:
    def test_edge_values(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--v", "10",
                               "--wL", "6.283185307179586")
        assert code == 0
        vals = parse_human(out)
        assert vals["lower_edge_ratio_limit"] == pytest.approx(-4.0 / 27.0, rel=1e-12)
        assert vals["upper_edge_ratio_limit"] == pytest.approx(4.0 / 33.0, rel=1e-12)
        assert vals["lower_edge_magnitude_nr_form"] == pytest.approx(0.5370292721463151, rel=1e-12)

    def test_no_lower_edge_for_small_v(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--v", "1.5")
        assert code == 0
        vals = parse_human(out)
        assert "lower_edge_ratio_limit" not in vals
        assert "upper_edge_ratio_limit" in vals


class TestLimitsDomain:
    @pytest.mark.parametrize("v, err", [("0", "limits needs v > 0, got v=0.0"),
                                        ("-1", f"v=-1.0 {DOMAIN}")], ids=["0", "-1"])
    def test_non_positive_v_is_a_computation_error(self, capsys, v, err):
        # v = 0 divided by zero in mL and v = -1 took sqrt of a negative number;
        # v = 0 is in the input domain (the Schroedinger barrier), but not here
        code, out, got = run_cli(capsys, "limits", "--v", v)
        assert (code, out) == (1, "")
        assert got == f"error: {err}\n"

    def test_tiny_v_does_not_overflow(self, capsys):
        # mL^2 overflowed in high_v_magnitude_form at v = 1e-320, outside the
        # input domain; at its lower end mL^2 = 2e101 is a plain value
        code, out, err = run_cli(capsys, "limits", "--v", "1e-320")
        assert (code, out, err) == (1, "", f"error: v=1e-320 {DOMAIN}\n")
        code, out, _ = run_cli(capsys, "limits", "--v", "1e-100", "--json")
        assert code == 0
        vals = json.loads(out)
        mL = 2.0 * math.pi / math.sqrt(2e-100)
        assert vals["mL"] == mL and vals["high_v_magnitude_form"] == 1.0 / math.sqrt(1.0 + mL ** 2)

    def test_finite_values_keep_their_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--v", "10", "--json")
        assert code == 0
        vals = json.loads(out)
        mL = 2.0 * math.pi / math.sqrt(20.0)
        assert vals["mL"] == mL
        assert vals["high_v_magnitude_form"] == 1.0 / math.sqrt(1.0 + mL ** 2)

    def test_overflowing_width_gives_values(self, capsys):
        # wL^2 overflowed at wL = 1e160: the NR-prefactor |T| read 0.0 and the
        # edge ratio refused.  That width is outside the input domain; at its
        # top end every edge value exists and is printed
        code, out, err = run_cli(capsys, "limits", "--v", "10", "--wL", "1e160")
        assert (code, out, err) == (1, "", f"error: wL=1e+160 {DOMAIN}\n")
        code, out, _ = run_cli(capsys, "limits", "--v", "10", "--wL", "1e100", "--json")
        assert code == 0
        vals = json.loads(out)
        edge = {k: x for k, x in vals.items() if k.startswith(("lower_edge_", "upper_edge_"))}
        assert len(edge) == 10
        assert all(math.isfinite(x) and x != 0.0 for x in edge.values())

    @pytest.mark.parametrize("argv, err", [
        (("--v", "1e308", "--wL", "1e308"), f"error: v=1e+308 {DOMAIN}\n"),
        (("--v", "1e-320", "--wL", "1e150"), f"error: v=1e-320 {DOMAIN}\n"),
    ], ids=["formula", "emit"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_non_finite_values_are_refused(self, capsys, argv, err, as_json):
        # the first printed the non-JSON token NaN with exit 0, and the second
        # overflowed mL = wL/sqrt(2v); both lie outside the input domain, in
        # which every limit value is finite
        code, out, got = run_cli(capsys, "limits", *argv, *(("--json",) if as_json else ()))
        assert (code, out, got) == (1, "", err)


class TestJsonAgreement:
    def test_amp_reports_the_closed_form_as_t2_exact(self, capsys):
        # near an edge at large width the matcher is ~1e-8 off; T2_exact
        # is the closed form, as in the sweep CSV, and T2_matcher its check
        n2 = 1.335 * (1.0 + 1e-11)
        code, out, _ = run_cli(capsys, "amp", "--m", "1", "--v", "0.67", "--wL", "240",
                               "--n2", repr(n2), "--json")
        assert code == 0
        vals = json.loads(out)
        s = BarrierSetup.from_dimensionless(0.67, 240.0)
        point = transmission_closed_form(s.v, n2, s.wL)
        assert vals["T2_exact"] == point.probability
        assert vals["R2"] == abs(point.R) ** 2
        assert vals["T2_matcher"] == pytest.approx(point.probability, rel=1e-7)
        assert "T2_closed_form" not in vals

    def test_amp_json_matches_human(self, capsys):
        argv = ["amp", "--m", "1", "--V0", "10", "--wL", "6.283185307179586",
                "--n2", "5"]
        code, human, _ = run_cli(capsys, *argv)
        assert code == 0
        code, as_json, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        jvals = json.loads(as_json)
        hvals = parse_human(human)
        for key, val in jvals.items():
            if isinstance(val, float):
                assert hvals[key] == val  # repr round-trip: exact

    def test_phasetime_json(self, capsys):
        code, out, _ = run_cli(capsys, "phasetime", "--m", "1", "--V0", "10",
                               "--wL", "6.283185307179586", "--n2", "5", "--json")
        assert code == 0
        vals = json.loads(out)
        assert vals["ratio_closed"] == pytest.approx(0.02093053305098312, rel=1e-10)
        assert vals["ratio_numeric"] == pytest.approx(vals["ratio_closed"], rel=1e-6)
        assert vals["tau"] == pytest.approx(vals["t_phi_numeric"] / vals["ratio_numeric"], rel=1e-9)

    def test_phasetime_on_zone_edge(self, capsys):
        # the numeric oracle refuses on the edge; the closed form is reported
        code, out, _ = run_cli(capsys, "phasetime", "--m", "1", "--V0", "10",
                               "--E", "9", "--json")
        assert code == 0
        vals = json.loads(out)
        assert vals["zone"] == "EdgeLower"
        # no edge branch: the closed form lands on the edge value to roundoff
        assert vals["ratio_closed"] == pytest.approx(
            edge_phase_time_ratio(10.0, 2.0 * math.pi, "lower"), rel=1e-14)
        assert vals["ratio_closed"] == pytest.approx(mp_ratio(10.0, 4.0, 2.0 * math.pi),
                                                     rel=1e-14)
        assert vals["t_phi_numeric"] is None and vals["ratio_numeric"] is None
        assert "edge" in vals["numeric_error"]


class TestConfigPrecedence:
    @pytest.mark.parametrize("file_v,flag_v,expect_v", [
        (None, None, 10.0),   # default
        (5.0, None, 5.0),     # file overrides default
        (None, 2.0, 2.0),     # flag overrides default
        (5.0, 2.0, 2.0),      # flag overrides file
    ])
    def test_matrix(self, capsys, tmp_path, file_v, flag_v, expect_v):
        argv = ["zone", "--m", "1", "--E", "1.7"]
        if file_v is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"v": file_v}))
            argv += ["--config", str(cfg)]
        if flag_v is not None:
            argv += ["--v", str(flag_v)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert parse_human(out)["V0"] == pytest.approx(expect_v, rel=1e-12)

    def test_non_numeric_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"v": "junk"}))
        code, _, _ = run_cli(capsys, "zone", "--m", "1", "--E", "5",
                             "--config", str(cfg))
        assert code == 2

    def test_fractional_integer_config_value_is_usage_error(self, capsys, tmp_path):
        # 400.9 samples used to become 400 without a word
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_times": 400.9}))
        code, _, err = run_cli(capsys, "packet", "--m", "1", "--V0", "10", "--L", "0.1",
                               "--n2", "5", "--sigma-k", "0.2", "--config", str(cfg))
        assert code == 2
        assert "n_times must be an integer" in err

    def test_exclusive_pair_in_same_source_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"V0": 10.0, "v": 10.0}))
        code, _, _ = run_cli(capsys, "zone", "--m", "1", "--E", "5",
                             "--config", str(cfg))
        assert code == 2

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"VO": 5, "E": 9.5}))
        code, _, err = run_cli(capsys, "zone", "--config", str(cfg))
        assert code == 2
        assert "VO" in err
        # a key another subcommand accepts is still unknown here
        cfg.write_text(json.dumps({"count": 5, "E": 9.5}))
        code, _, err = run_cli(capsys, "zone", "--config", str(cfg))
        assert code == 2
        assert "count" in err
        # and so is a default the subcommand reads no flag for: sweep takes no mass
        cfg.write_text(json.dumps({"m": 3}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--v", "1", "--n2-min",
                               "0.1", "--n2-max", "2.5", "--count", "7",
                               "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert err.rstrip().endswith(f"unknown config key(s) in {cfg}: m")

    def test_flag_beats_conflicting_file_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"v": 4.0}))
        code, out, _ = run_cli(capsys, "zone", "--m", "1", "--E", "5",
                               "--V0", "10", "--config", str(cfg))
        assert code == 0
        assert parse_human(out)["V0"] == 10.0


def _subcommand_flags():
    """(command, action) for every flag of every subcommand but --help and --config."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action) for command, parser in sub.choices.items()
            for action in parser._actions if action.dest not in ("help", "config")]


# each subcommand's run without the flag under test, and the value each dest is given
_BASE = {
    "zone": ("--E", "10"),
    "amp": ("--n2", "5"),
    "phasetime": ("--n2", "5"),
    "limits": (),
    "packet": ("--n2", "5", "--sigma-k", "0.2", "--L", "0.1", "--n-times", "401"),
    "sweep": ("--n2-min", "4.2", "--n2-max", "5.8", "--count", "3", "--out", "s.csv"),
}
_BASE_FOR = {("sweep", "preset"): (), ("sweep", "out_dir"): ("--preset", "fig1")}
_VALUE = {"m": "2", "V0": "12", "v": "3", "L": "0.2", "wL": "3", "E": "12", "n2": "4",
          "k0": "9.5", "sigma_k": "0.3", "support_halfwidth": "5", "n_times": "301",
          "samples_out": "samples.csv", "out": "out.txt", "units": "ev-pm", "n2_min": "4.5",
          "n2_max": "5.5", "count": "4", "outputs": "T2_exact,phase_rad", "format": "json",
          "preset": "fig1", "out_dir": "d", "json": None}
_PARTNERS = {"V0": "v", "v": "V0", "L": "wL", "wL": "L", "E": "n2", "k0": "n2", "n2": "E k0"}


def _stub_preset(out_dir, fmt="csv"):
    # the five fig1 panels take a second; the test needs only where they would go
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"fig1.{fmt}")
    Path(path).write_text("stub\n")
    return [path]


class TestOneParameterPath:
    """A config key is its flag: the same value, the same run."""

    def run_in(self, capsys, monkeypatch, where, argv):
        where.mkdir()
        monkeypatch.chdir(where)
        code, out, err = run_cli(capsys, *argv)
        files = {str(f.relative_to(where)): f.read_bytes()
                 for f in sorted(where.rglob("*")) if f.is_file()}
        return code, out, err, files

    @pytest.mark.parametrize("command, action", _subcommand_flags(),
                             ids=lambda x: x if isinstance(x, str) else x.dest)
    def test_config_key_equals_flag(self, capsys, monkeypatch, tmp_path, command, action):
        monkeypatch.setattr(kleintunnel.cli, "fig1_preset", _stub_preset)
        dest, text = action.dest, _VALUE[action.dest]
        base = _BASE_FOR.get((command, dest), _BASE[command])
        dests = {a.option_strings[0]: a.dest for _, a in _subcommand_flags()}
        drop = {dest, *_PARTNERS.get(dest, "").split()}
        base = [tok for flag, val in zip(base[::2], base[1::2]) if dests[flag] not in drop
                for tok in (flag, val)]
        flag = [action.option_strings[0]] + ([] if text is None else [text])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({dest: True if text is None else (action.type or str)(text)}))
        by_flag = self.run_in(capsys, monkeypatch, tmp_path / "flag", [command, *base, *flag])
        by_file = self.run_in(capsys, monkeypatch, tmp_path / "file",
                              [command, *base, "--config", str(cfg)])
        assert by_flag[0] == 0, by_flag[2]
        assert by_file[:2] == by_flag[:2] and by_file[3] == by_flag[3]

    @pytest.mark.parametrize("argv, config, names", [
        # xml once wrote JSON into o.csv, and reached fig1_preset as a DomainError
        (("--out", "o.csv", "--v", "1", "--n2-min", "1", "--n2-max", "2", "--count", "2"),
         {"format": "xml"}, ["format"]),
        (("--preset", "fig1"), {"format": "xml"}, ["format"]),
        (("--out", "o.csv", "--v", "1", "--n2-min", "1", "--n2-max", "2", "--count", "2"),
         {"preset": "fig2"}, ["preset"]),
        (("--preset", "fig1", "--v", "3", "--count", "7", "--out", "zz.csv",
          "--outputs", "T2_exact"), None, ["count", "out", "outputs", "v"]),
        (("--preset", "fig1"), {"wL": 3.0, "n2_min": 1.0, "n2_max": 2.0}, ["n2_max, n2_min, wL"]),
        (("--out-dir", "d", "--out", "o.csv", "--v", "1", "--n2-min", "1", "--n2-max", "2",
          "--count", "2"), None, ["out_dir"]),
        (("--out", "o.csv", "--v", "1", "--n2-min", "1", "--n2-max", "2", "--count", "2"),
         {"out_dir": "d"}, ["out_dir"]),
    ], ids=["format", "preset-format", "preset-fig2", "preset-flags", "preset-file",
            "out-dir-flag", "out-dir-file"])
    def test_unread_parameter_is_a_usage_error(self, capsys, monkeypatch, tmp_path,
                                               argv, config, names):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ("--config", "cfg.json")
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert (code, out) == (2, "")
        assert all(name in err.splitlines()[-1] for name in names)
        assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if config else [])

    @pytest.mark.parametrize("command, argv", [
        ("zone", ("--E", "10")), ("amp", ("--n2", "5")), ("phasetime", ("--n2", "5")),
        ("limits", ()), ("packet", ("--n2", "5", "--sigma-k", "0.2", "--L", "0.1",
                                    "--n-times", "401"))],
        ids=["zone", "amp", "phasetime", "limits", "packet"])
    def test_output_keys_from_a_file_are_honoured(self, capsys, tmp_path, command, argv):
        # json, units, out and samples_out were read from flags only
        config = {"json": True, "units": "ev-pm", "out": str(tmp_path / "report.txt")}
        if command == "packet":
            config["samples_out"] = str(tmp_path / "samples.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, command, *argv, "--config", str(cfg))
        assert (code, out) == (0, "")
        report = json.loads((tmp_path / "report.txt").read_text())
        assert command != "packet" or report["samples_path"] == config["samples_out"]
        assert command != "packet" or (tmp_path / "samples.csv").read_text().startswith("t,")
        code, human, _ = run_cli(capsys, command, *argv, "--units", "ev-pm")
        cfg.write_text(json.dumps({"units": "ev-pm"}))
        assert run_cli(capsys, command, *argv, "--config", str(cfg))[:2] == (code, human)


class TestSweepCommand:
    def test_single_sweep_csv(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "sweep", "--v", "10", "--n2-min", "4.2",
                             "--n2-max", "5.8", "--count", "4",
                             "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5

    def test_outputs_subset(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "sweep", "--v", "10", "--n2-min", "4.2",
                             "--n2-max", "5.8", "--count", "3",
                             "--outputs", "T2_exact,phase_rad",
                             "--out", str(out_path))
        assert code == 0
        row = out_path.read_text().splitlines()[1].split(",")
        assert row[3] != "" and row[5] != ""  # requested
        assert row[6] == "" and row[7] == ""  # not requested

    @pytest.mark.parametrize("m", ["1e-200", "3"])
    def test_mass_flag_is_ignored(self, capsys, tmp_path, m):
        # the sweep is a function of (v, n^2) alone; before 0.2.0 it accepted --m and
        # ignored it, and since 0.2.0 it refuses it as a usage error and writes nothing
        argv = ("sweep", "--v", "1", "--n2-min", "0.1", "--n2-max", "2.5", "--count", "7")
        plain, massive = tmp_path / "plain.csv", tmp_path / "m.csv"
        assert run_cli(capsys, *argv, "--out", str(plain))[0] == 0
        code, _, err = run_cli(capsys, *argv, "--m", m, "--out", str(massive))
        assert code == 2
        assert f"unrecognized arguments: --m {m}" in err
        assert not massive.exists()

    def test_overflowing_grid_is_a_computation_error(self, capsys, tmp_path):
        # rho_n^2 overflowed at n2 = 1e300, outside the input domain
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "sweep", "--v", "10", "--n2-min", "1",
                               "--n2-max", "1e300", "--count", "2", "--out", str(out_path))
        assert code == 1
        assert err == f"error: n2_max=1e+300 {DOMAIN}\n"
        assert not out_path.exists()

    def test_non_finite_ratio_is_an_empty_named_cell(self, capsys, tmp_path):
        # far above the barrier t_phi/tau -> 1; nothing overflows at n2 = 1e100,
        # where only the unresolved phase_rad is emptied and named
        out_path = tmp_path / "x.json"
        code, _, err = run_cli(capsys, "sweep", "--v", "10", "--n2-min", "1",
                               "--n2-max", "1e100", "--count", "2", "--out", str(out_path))
        assert code == 0 and err == ""
        row = json.loads(out_path.read_text())[-1]
        assert row["ratio_closed"] == pytest.approx(1.0, abs=1e-15)
        assert row["phase_rad"] is None
        assert row["error"].startswith("phase_rad:") and "ratio_closed" not in row["error"]

    @pytest.mark.parametrize("wL", [2.0 * math.pi, 0.0])
    def test_csv_equals_the_library_route_byte_for_byte(self, capsys, tmp_path, wL):
        # the CLI's flags give the library's request: the same bytes for every
        # outputs subset.  The grid crosses both v = 10 edges
        # 1e-13 off them, so two rows are snapped and the oracle refuses them;
        # at wL = 0 every ratio cell is refused
        grid = dict(v=10.0, wL=wL, n2_min=3.0 + 1e-13, n2_max=7.0 + 1e-13, count=401)
        argv = ["sweep", "--v", "10", "--wL", repr(wL), "--n2-min", repr(grid["n2_min"]),
                "--n2-max", repr(grid["n2_max"]), "--count", "401"]
        cli_path, lib_path = tmp_path / "cli.csv", tmp_path / "lib.csv"
        subsets = [c for k in range(1, 6) for c in itertools.combinations(VALUE_COLUMNS, k)]
        assert len(subsets) == 31
        for outputs in subsets:
            code, _, err = run_cli(capsys, *argv, "--outputs", ",".join(outputs),
                                   "--out", str(cli_path))
            assert code == 0 and err == ""
            records = run_sweep(SweepRequest(**grid, outputs=outputs))
            write_csv(records, lib_path)
            assert cli_path.read_bytes() == lib_path.read_bytes(), outputs
        assert sum(r.nudged for r in records) == 2
        assert all("ratio_numeric" in r.error for r in records if r.nudged)
        assert wL != 0.0 or all(r.ratio_closed is None and "ratio_closed: " in r.error
                                for r in records)

    def test_csv_routes_build_no_records(self, capsys, monkeypatch, tmp_path):
        # every CSV route runs run_sweep and writes the view's columns: reading
        # a record from the view fails the test
        def refuse(*args):
            raise AssertionError("a SweepRecord was built")

        monkeypatch.setattr(kleintunnel.sweep.SweepRecords, "__iter__", refuse)
        monkeypatch.setattr(kleintunnel.sweep.SweepRecords, "__getitem__", refuse)
        out_path = tmp_path / "s.csv"
        code, _, err = run_cli(capsys, "sweep", "--v", "10", "--n2-min", "4.2",
                               "--n2-max", "5.8", "--count", "4", "--out", str(out_path))
        assert code == 0 and err == ""
        assert len(out_path.read_text().splitlines()) == 5
        assert len(fig1_preset(tmp_path / "fig1")) == 5
        lib_path = tmp_path / "lib.csv"
        write_csv(run_sweep(SweepRequest(v=10.0, wL=2.0 * math.pi, n2_min=4.2, n2_max=5.8,
                                         count=4)), lib_path)
        assert lib_path.read_bytes() == out_path.read_bytes()
        # read_csv gives columns too: a file read and written again is the same
        again = tmp_path / "again.csv"
        write_csv(read_csv(out_path), again)
        assert again.read_bytes() == out_path.read_bytes()

    def test_sweep_requires_out(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--v", "10", "--n2-min", "4.2",
                             "--n2-max", "5.8", "--count", "3")
        assert code == 2


class TestPacketCommand:
    def test_packet_run(self, capsys, tmp_path):
        samples = tmp_path / "samples.csv"
        code, out, _ = run_cli(capsys, "packet", "--m", "1", "--V0", "10",
                               "--L", "0.1", "--n2", "5", "--sigma-k", "0.2",
                               "--samples-out", str(samples), "--json")
        assert code == 0
        vals = json.loads(out)
        assert vals["relative_gap"] < 0.05
        lines = samples.read_text().splitlines()
        assert lines[0] == "t,intensity"
        assert len(lines) == 2002
        # the README packet's samples, pinned while they were written by repr
        assert hashlib.sha256(samples.read_bytes()).hexdigest() == (
            "63a2db85105ea20b2344bdad6ec1cd143e483c85b0974a61caf0b2ed3a59b28a")

    def test_packet_reports_quadrature(self, capsys):
        code, out, _ = run_cli(capsys, "packet", "--m", "1", "--V0", "10",
                               "--L", "0.1", "--n2", "5", "--sigma-k", "0.2",
                               "--n-times", "401", "--json")
        assert code == 0
        vals = json.loads(out)
        for name in ("field", "distortion"):
            levels, nodes = vals[f"{name}_levels"], vals[f"{name}_nodes"]
            assert nodes == 64 * 2 ** (levels - 1) + 1
            assert 0.0 <= vals[f"{name}_change"] <= 1e-8

    @pytest.mark.parametrize("n_times", ["0", "-5", "2"])
    def test_bad_n_times_is_an_error(self, capsys, n_times):
        code, out, err = run_cli(capsys, "packet", "--m", "1", "--V0", "10",
                                 "--L", "0.1", "--n2", "5", "--sigma-k", "0.2",
                                 "--n-times", n_times)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_support_whose_n2_overflows_is_an_error(self, capsys):
        # (k0/w)^2 = 5e319 at w = 1.4e-150 was an OverflowError traceback
        code, out, err = run_cli(capsys, "packet", "--m", "1e-200", "--V0", "1e-100",
                                 "--L", "1", "--k0", "1e10", "--sigma-k", "1e9")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestUnitsDisplay:
    def test_ev_pm_annotations(self, capsys):
        code, out, _ = run_cli(capsys, "phasetime", "--m", "1", "--V0", "10",
                               "--wL", "6.283185307179586", "--n2", "5",
                               "--units", "ev-pm")
        assert code == 0
        assert "zs" in out


class TestReportRedirect:
    def test_out_writes_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "limits", "--v", "10", "--json",
                               "--out", str(path))
        assert code == 0
        assert out == ""
        vals = json.loads(path.read_text())
        assert vals["lower_edge_ratio_limit"] == pytest.approx(-4.0 / 27.0, rel=1e-12)



class TestCachedParser:
    def test_calls_in_one_process_match_fresh_processes(self, capsys, tmp_path):
        # one parser serves every main() call of a process; each call must
        # still behave as in a fresh `python -m kleintunnel.cli`
        assert build_parser() is build_parser()
        csv = tmp_path / "sweep.csv"
        # n2 is no key of zone's: amp's n2 must not leak into zone's config check
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n2": 5}')
        calls = [
            ("amp", "--m", "1", "--V0", "10", "--wL", "6.283185307179586", "--n2", "5"),
            ("sweep", "--v", "10", "--n2-min", "3.9", "--n2-max", "6.1", "--count", "23",
             "--out", str(csv)),
            ("zone", "--m", "1", "--V0", "10", "--E", "10", "--config", str(cfg)),
            ("zone", "--nope", "1"),
            ("zone", "--m", "1", "--V0", "10", "--E", "10"),
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(kleintunnel.__file__).parents[1]))
        for argv in calls:
            code, out, err = run_cli(capsys, *argv)
            in_process = csv.read_bytes() if argv[0] == "sweep" else None
            fresh = subprocess.run([sys.executable, "-m", "kleintunnel.cli", *argv],
                                   env=env, capture_output=True, text=True, timeout=60)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            if in_process is not None:
                assert csv.read_bytes() == in_process
        assert [run_cli(capsys, *argv)[0] for argv in calls] == [0, 0, 2, 2, 0]


def test_orjson_is_loaded_by_the_first_csv_write_only():
    # the CSV writer imports orjson when it runs: importing the package and
    # `zone` go without it
    code = ("import sys, kleintunnel.cli as c; c.main(['zone', '--m', '1', '--V0', '10', "
            "'--E', '10']); print('orjson' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(kleintunnel.__file__).parents[1]))
    fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=60)
    assert fresh.returncode == 0 and fresh.stdout.splitlines()[-1] == "False"


def test_version_is_the_pyproject_version():
    # a regex, not tomllib: Python 3.10 has no tomllib
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "([^"]+)"$', text, re.M) == [kleintunnel.__version__]


def test_public_surface_is_pinned():
    # a name cut from or added to the package shows up as a diff of this
    # list; the last six are the submodules, which dir() lists too
    assert sorted(kleintunnel.__all__) == sorted([
        "ArrivalEstimate", "BarrierChannel", "BarrierSetup", "ClippedWindowError",
        "DistortionMetrics", "DomainError", "IncidentMode", "KleinTunnelError",
        "NoPeakError", "NonConvergentError", "NonPropagatingError",
        "PacketRun", "QuadratureError", "QuadratureReport",
        "ScatteringSolution", "SpectrumSpec", "SupportError", "SweepRecord",
        "SweepRecords", "SweepRequest", "TransmissionPoint", "ZeroLengthError", "Zone",
        "ZoneCrossingError", "ZoneError", "barrier_channel", "classical_tau",
        "classify_zone",
        "edge_limit_magnitude_nr_form", "edge_limit_ratio", "edge_phase_time_ratio",
        "fig1_preset", "match_boundaries", "mode_from_energy",
        "mode_from_n2", "normalized_phase_time", "normalized_phase_time_numeric",
        "read_csv", "rho_n2", "run_packet", "run_sweep", "small_rho_ratio",
        "transmission_closed_form", "transmission_magnitude_nr_form",
        "tunneling_interval_n2", "write_csv", "write_json",
        "errors", "kinematics", "phasetime", "scattering", "sweep", "wavepacket",
    ])
    assert len(kleintunnel.__all__) == 53


def test_point_functions_take_v_n2_wL():
    # one calling convention for the dimensionless layer: every public
    # function of scattering and phasetime that reads an n2 takes (v, n2, wL)
    # first (small_rho_ratio, a limit with no width, takes (v, n2)); only
    # classical_tau, which works in physical units, takes a setup and a mode
    first = {}
    for module in (kleintunnel.scattering, kleintunnel.phasetime):
        for name in kleintunnel.__all__:
            f = getattr(module, name, None)
            if inspect.isfunction(f) and f.__module__ == module.__name__:
                first[name] = tuple(inspect.signature(f).parameters)[:3]
    vnw = ("v", "n2", "wL")
    assert {name: p for name, p in first.items() if "n2" in p} == {
        "match_boundaries": vnw, "transmission_closed_form": vnw,
        "transmission_magnitude_nr_form": vnw, "normalized_phase_time": vnw,
        "normalized_phase_time_numeric": vnw, "small_rho_ratio": ("v", "n2")}
    assert [name for name, p in first.items() if "setup" in p] == ["classical_tau"]
    # the 0.7.0 (setup, mode) form is gone
    setup = BarrierSetup.from_dimensionless(10.0, 2.0 * math.pi)
    mode = mode_from_n2(setup, 5.0)
    for f in (kleintunnel.match_boundaries, kleintunnel.transmission_magnitude_nr_form):
        with pytest.raises(TypeError):
            f(setup, mode)
