"""Command-line front end.

Each call reads one table of parameters: defaults < a JSON ``--config``
file < flags.  A config key is a flag's dest (``n2_min`` for
``--n2-min``), checked on loading by that flag's own type and choices; a
key the subcommand has no flag for, or that the chosen path does not
read, is a usage error.  Results print in natural units (hbar = c = 1),
as JSON with ``json``; ``units = ev-pm`` annotates human output with
MeV/pm/zeptosecond conversions (display only).  No command prints nan
or inf: a non-finite result is a computation error.

Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import DomainError, KleinTunnelError
from .kinematics import (
    BarrierSetup,
    _zone,
    barrier_channel,
    classify_zone,
    mode_from_energy,
    mode_from_n2,
)
from .phasetime import (
    classical_tau,
    edge_limit_magnitude_nr_form,
    edge_limit_ratio,
    edge_phase_time_ratio,
    normalized_phase_time,
    normalized_phase_time_numeric,
    small_rho_ratio,
)
from .scattering import (
    match_boundaries,
    transmission_closed_form,
    transmission_magnitude_nr_form,
)
from .sweep import (
    VALUE_COLUMNS,
    SweepRequest,
    _float_cells,
    _write_table,
    fig1_preset,
    run_sweep,
    write_csv,
    write_json,
)
from .wavepacket import SpectrumSpec, run_packet

HBARC_MEV_PM = 0.1973269804  # hbar*c in MeV*pm
HBAR_MEV_ZS = 0.6582119569   # hbar in MeV * zeptoseconds

DEFAULTS = {"m": 1.0, "wL": 2.0 * math.pi, "v": 10.0,
            "support_halfwidth": 6.0, "n_times": 2001}

# a source that names either member replaces the whole pair from the sources below it
_PAIRS = (("V0", "v"), ("L", "wL"), ("E", "n2"), ("k0", "n2"))

# all that sweep --preset reads; any other key the user sets is refused there
_PRESET_KEYS = {"preset", "out_dir", "format", "json", "units"}


@functools.cache
def _flags(command: str) -> dict[str, argparse.Action]:
    """The flags of one subcommand by dest, without --help and --config."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions if a.dest not in ("help", "config")}


class _Config(dict):
    """One call's typed parameters by dest: defaults < config file < flags.
    Reading with [] a key that no source gives is a usage error."""

    def __init__(self, parser: argparse.ArgumentParser, args: argparse.Namespace):
        super().__init__()
        self.error = parser.error
        flags = _flags(args.command)
        given: dict = {}
        if args.config:
            self._merge(given, self._load(args.config, flags))
        self._merge(given, {k: val for k, val in vars(args).items()
                            if k in flags and val is not None and val is not False})
        if "preset" in given:
            unread = sorted(set(given) - _PRESET_KEYS)
            if unread:
                self.error(f"sweep --preset reads no {', '.join(unread)}")
        elif "out_dir" in given:
            self.error("sweep reads out_dir only with --preset")
        self._merge(self, {k: val for k, val in DEFAULTS.items() if k in flags})
        self._merge(self, given)

    def _merge(self, table: dict, source: dict) -> None:
        for a, b in _PAIRS:
            if a in source and b in source:
                self.error(f"supply either {a} or {b}, not both")
            if a in source or b in source:
                table.pop(a, None); table.pop(b, None)
        table.update(source)

    def _load(self, path: str, flags: dict[str, argparse.Action]) -> dict:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            self.error(f"cannot read config {path}: {exc}")
        if not isinstance(loaded, dict):
            self.error(f"config {path} must hold a JSON object")
        unknown = sorted(set(loaded) - set(flags))
        if unknown:
            self.error(f"unknown config key(s) in {path}: {', '.join(unknown)}")
        return {k: self._typed(k, val, flags[k]) for k, val in loaded.items()}

    def _typed(self, key: str, val, action: argparse.Action):
        """A config value as its flag reads it; a JSON number is read as its repr."""
        kind = bool if action.nargs == 0 else action.type or str  # nargs 0: the --json switch
        try:
            if isinstance(val, bool) != (kind is bool) or not isinstance(val, (int, float, str)):
                raise TypeError
            typed = val if kind is bool else kind(val if isinstance(val, str) else repr(val))
        except (TypeError, ValueError):
            noun = {bool: "true or false", float: "a number", int: "an integer", str: "a string"}
            self.error(f"parameter {key} must be {noun[kind]}, got {val!r}")
        if action.choices is not None and typed not in action.choices:
            self.error(f"parameter {key} must be one of {', '.join(action.choices)}, got {val!r}")
        return typed

    def __missing__(self, key: str):
        self.error(f"missing required parameter: {key}")

    def either(self, a: str, b: str) -> tuple[str, float]:
        """(name, value) of the member of an exclusive pair that the table holds."""
        key = a if a in self else b if b in self else self.error(f"one of {a} or {b} is required")
        return key, self[key]


def _barrier(p: _Config) -> BarrierSetup:
    m = p["m"]
    V0 = p["V0"] if "V0" in p else p["v"] * m
    if "L" in p:
        return BarrierSetup(m=m, V0=V0, L=p["L"])
    w = BarrierSetup(m=m, V0=V0, L=0.0).w  # m and V0 checked before the root is taken
    return BarrierSetup(m=m, V0=V0, L=p["wL"] / w)


def _mode(p: _Config, setup: BarrierSetup):
    name, val = p.either("E", "n2")
    return (mode_from_energy if name == "E" else mode_from_n2)(setup, val)


def _emit(p: _Config, payload: dict) -> None:
    for key, value in payload.items():
        if any(isinstance(x, float) and not math.isfinite(x)
               for x in (value if isinstance(value, list) else [value])):
            raise DomainError(f"{key} is not finite: {value!r}")
    if p.get("json"):
        text = json.dumps(payload, indent=2, allow_nan=False)
    else:
        units = p.get("units")
        lines = []
        for key, value in payload.items():
            if isinstance(value, float):
                line = f"{key} = {value!r}"
                if units == "ev-pm":
                    if key in ("L",):
                        line += f"   [{value * HBARC_MEV_PM!r} pm]"
                    elif key in ("tau", "t_phi_closed", "t_phi_numeric",
                                 "t_peak", "t_predicted"):
                        line += f"   [{value * HBAR_MEV_ZS!r} zs]"
                    elif key in ("m", "V0", "E", "k", "k0", "sigma_k"):
                        line += "   [MeV]"
                lines.append(line)
            else:
                lines.append(f"{key} = {value}")
        text = "\n".join(lines)
    out = p.get("out")
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise KleinTunnelError(f"writing {out}: {exc}") from exc
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_zone(p: _Config) -> int:
    setup = _barrier(p)
    E = p["E"]
    zone = classify_zone(setup, E)
    payload = {"m": setup.m, "V0": setup.V0, "E": E, "zone": zone.value}
    if zone.value != "NonPropagating":
        mode = mode_from_energy(setup, E)
        ch = barrier_channel(setup, mode)
        payload.update({"k": mode.k, "n2": mode.n2, "channel": ch.kind,
                        "rho": ch.rho, "q": ch.q, "rho_n": ch.rho_n, "q_n": ch.q_n})
    _emit(p, payload)
    return 0


def _cmd_amp(p: _Config) -> int:
    setup = _barrier(p)
    mode = _mode(p, setup)
    v, n2, wL = setup.v, mode.n2, setup.wL
    sol = match_boundaries(v, n2, wL)
    point = transmission_closed_form(v, n2, wL)
    payload = {
        "m": setup.m, "V0": setup.V0, "L": setup.L,
        "E": mode.E, "k": mode.k, "n2": n2,
        "zone": _zone(v, n2).value,
        "T2_exact": point.probability,
        "phase_rad": point.phase,
        "R2": abs(point.R) ** 2,
        # the matcher is the independent check of the closed form
        "T2_matcher": abs(sol.T) ** 2,
        "unitarity_residual": abs(sol.R) ** 2 + abs(sol.T) ** 2 - 1.0,
    }
    try:
        payload["T2_nr_form"] = transmission_magnitude_nr_form(v, n2, wL) ** 2
    except KleinTunnelError:
        payload["T2_nr_form"] = None
    _emit(p, payload)
    return 0


def _cmd_phasetime(p: _Config) -> int:
    setup = _barrier(p)
    mode = _mode(p, setup)
    v, n2, wL = setup.v, mode.n2, setup.wL
    tau = classical_tau(setup, mode)
    payload = {
        "m": setup.m, "V0": setup.V0, "L": setup.L, "E": mode.E, "n2": n2,
        "zone": _zone(v, n2).value, "tau": tau,
    }
    try:
        ratio = normalized_phase_time_numeric(v, n2, wL)
        payload.update(t_phi_numeric=ratio * tau, ratio_numeric=ratio)
    except KleinTunnelError as exc:
        # the oracle refuses e.g. on a zone edge; the closed form is still defined
        payload.update(t_phi_numeric=None, ratio_numeric=None, numeric_error=str(exc))
    ratio = normalized_phase_time(v, n2, wL)
    payload.update(t_phi_closed=ratio * tau, ratio_closed=ratio)
    if v > 2.0:
        payload["edge_ratio_lower_wL"] = edge_phase_time_ratio(v, wL, "lower")
        payload["edge_ratio_lower_limit"] = edge_limit_ratio(v, "lower")
    payload["edge_ratio_upper_wL"] = edge_phase_time_ratio(v, wL, "upper")
    payload["edge_ratio_upper_limit"] = edge_limit_ratio(v, "upper")
    _emit(p, payload)
    return 0


def _cmd_limits(p: _Config) -> int:
    v, wL = p["v"], p["wL"]
    if not v > 0.0:
        raise DomainError(f"limits needs v > 0, got v={v}")
    mL = wL / math.sqrt(2.0 * v)
    try:
        high_v = 1.0 / math.sqrt(1.0 + mL ** 2)
    except OverflowError:  # mL^2 overflows, and 1 + mL^2 rounds to mL^2 long before
        high_v = 1.0 / mL
    payload: dict = {"v": v, "wL": wL, "mL": mL}
    if v > 2.0:
        n2 = 0.5 * v - 1.0
        payload.update({
            "lower_edge_n2": n2,
            "lower_edge_ratio_limit": edge_limit_ratio(v, "lower"),
            "lower_edge_ratio_at_wL": edge_phase_time_ratio(v, wL, "lower"),
            "lower_edge_small_rho": small_rho_ratio(v, n2),
            "lower_edge_magnitude_nr_form": edge_limit_magnitude_nr_form(v, wL, "lower"),
        })
    n2 = 0.5 * v + 1.0
    payload.update({
        "upper_edge_n2": n2,
        "upper_edge_ratio_limit": edge_limit_ratio(v, "upper"),
        "upper_edge_ratio_at_wL": edge_phase_time_ratio(v, wL, "upper"),
        "upper_edge_small_rho": small_rho_ratio(v, n2),
        "upper_edge_magnitude_nr_form": edge_limit_magnitude_nr_form(v, wL, "upper"),
        "high_v_magnitude_form": high_v,
    })
    _emit(p, payload)
    return 0


def _cmd_packet(p: _Config) -> int:
    setup = _barrier(p)
    name, val = p.either("k0", "n2")
    k0 = val if name == "k0" else mode_from_n2(setup, val).k
    spectrum = SpectrumSpec(k0=k0, sigma_k=p["sigma_k"],
                            support_halfwidth=p["support_halfwidth"])
    run = run_packet(setup, spectrum, n_times=p["n_times"])
    payload = {
        "m": setup.m, "V0": setup.V0, "L": setup.L,
        "k0": k0, "sigma_k": spectrum.sigma_k,
        "t_predicted": run.arrival.t_predicted,
        "t_peak": run.arrival.t_peak,
        "relative_gap": run.arrival.relative_gap,
        "transmitted_norm": run.distortion.transmitted_norm,
        "shape_distance": run.distortion.shape_distance,
        "mean_k_shift": run.distortion.mean_k_shift,
        "time_window": list(run.time_window),
    }
    for name, q in (("field", run.field_quadrature),
                    ("distortion", run.distortion.quadrature)):
        payload.update({f"{name}_levels": q.levels, f"{name}_nodes": q.nodes,
                        f"{name}_change": q.change})
    out = p.get("samples_out")
    if out:
        _write_table(out, ("t", "intensity"), (run.times, run.intensities),
                     (_float_cells, _float_cells))
        payload["samples_path"] = str(out)
    _emit(p, payload)
    return 0


def _cmd_sweep(p: _Config) -> int:
    if "preset" in p:
        paths = fig1_preset(p.get("out_dir") or ".", fmt=p.get("format", "csv"))
        _emit(p, {"preset": "fig1", "files": paths})
        return 0
    # the data's path; the report goes to stdout
    out = p.pop("out", None) or p.error("sweep needs --out PATH (or an 'out' config entry)")
    outputs = p.get("outputs")
    outputs = tuple(s.strip() for s in outputs.split(",") if s.strip()) if outputs else VALUE_COLUMNS
    req = SweepRequest(v=p["v"], wL=p["wL"], n2_min=p["n2_min"], n2_max=p["n2_max"],
                       count=p["count"], outputs=outputs)
    fmt = p.get("format") or ("json" if out.endswith(".json") else "csv")
    (write_csv if fmt == "csv" else write_json)(run_sweep(req), out)
    _emit(p, {"rows": req.count, "path": out, "format": fmt})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse_args fills a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="kleintunnel",
        description="Rectangular-barrier transmission, phase times and "
                    "wave packets for a relativistic spin-0 particle "
                    "(natural units hbar = c = 1).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_out: bool = True) -> None:
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--json", action="store_true", help="emit results as JSON")
        p.add_argument("--units", choices=["ev-pm"],
                       help="annotate human output with MeV/pm conversions")
        if with_out:
            p.add_argument("--out", help="write the report here instead of stdout")

    def barrier_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", type=float, help="mass (default 1)")
        p.add_argument("--V0", type=float, help="barrier height (energy units)")
        p.add_argument("--v", type=float, help="V0/m (default 10; exclusive with --V0)")
        p.add_argument("--L", type=float, help="barrier width (1/energy units)")
        p.add_argument("--wL", type=float,
                       help="dimensionless width w*L (default 2*pi; exclusive with --L)")

    p = sub.add_parser("zone", help="classify the energy zone of a mode")
    common(p); barrier_flags(p)
    p.add_argument("--E", type=float, help="total energy")
    p.set_defaults(func=_cmd_zone)

    p = sub.add_parser("amp", help="transmission/reflection amplitudes")
    common(p); barrier_flags(p)
    p.add_argument("--E", type=float, help="total energy (exclusive with --n2)")
    p.add_argument("--n2", type=float, help="normalized energy k^2/w^2")
    p.set_defaults(func=_cmd_amp)

    p = sub.add_parser("phasetime", help="traversal and phase times")
    common(p); barrier_flags(p)
    p.add_argument("--E", type=float, help="total energy (exclusive with --n2)")
    p.add_argument("--n2", type=float, help="normalized energy k^2/w^2")
    p.set_defaults(func=_cmd_phasetime)

    p = sub.add_parser("limits", help="zone-edge limit values at (v, wL)")
    common(p)
    p.add_argument("--v", type=float, help="V0/m (default 10)")
    p.add_argument("--wL", type=float, help="dimensionless width (default 2*pi)")
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("packet", help="transmitted wave-packet experiment")
    common(p); barrier_flags(p)
    p.add_argument("--k0", type=float, help="spectrum center momentum")
    p.add_argument("--n2", type=float, help="spectrum center as n2 (exclusive with --k0)")
    p.add_argument("--sigma-k", dest="sigma_k", type=float, help="spectrum width")
    p.add_argument("--support-halfwidth", dest="support_halfwidth", type=float,
                   help="truncation in sigmas (default 6)")
    p.add_argument("--n-times", dest="n_times", type=int,
                   help="time samples in the search window (default 2001)")
    p.add_argument("--samples-out", dest="samples_out",
                   help="write (t, intensity) samples to this CSV")
    p.set_defaults(func=_cmd_packet)

    p = sub.add_parser("sweep", help="n2 sweeps with CSV/JSON output")
    common(p, with_out=False)
    p.add_argument("--preset", choices=["fig1"],
                   help="emit the five standard datasets (v=0,1,2,5,10)")
    p.add_argument("--out-dir", dest="out_dir", help="directory for preset output")
    p.add_argument("--out", help="output path for a single sweep")
    p.add_argument("--v", type=float, help="V0/m (0 gives the Schroedinger barrier)")
    p.add_argument("--wL", type=float, help="dimensionless width (default 2*pi)")
    p.add_argument("--n2-min", dest="n2_min", type=float)
    p.add_argument("--n2-max", dest="n2_max", type=float)
    p.add_argument("--count", type=int, help="grid points (>= 2)")
    p.add_argument("--outputs", help="comma list of value columns")
    p.add_argument("--format", choices=["csv", "json"])
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(_Config(parser, args))
    except SystemExit as exc:  # argparse/usage errors carry their own code
        return int(exc.code or 0)
    except KleinTunnelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
