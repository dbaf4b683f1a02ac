"""Command-line front end.

Subcommands expose the library computations with a JSON config file and
flag overrides (flag > file > default; defaults m=1, wL=2*pi, v=10).
Numeric results print in natural units (hbar = c = 1); ``--json`` emits
the same numbers as a JSON object; ``--units ev-pm`` additionally
annotates human output with MeV/pm/zeptosecond conversions (display
only, computation always stays in natural units).

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
    phase_time_closed_form,
    phase_time_numeric,
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

DEFAULTS = {"m": 1.0, "wL": 2.0 * math.pi, "v": 10.0}

_LEVEL_DEFAULT, _LEVEL_FILE, _LEVEL_FLAG = 0, 1, 2


class _Config:
    """Merged (value, precedence) table: flag > file > default."""

    def __init__(self, parser: argparse.ArgumentParser, args: argparse.Namespace):
        self._parser = parser
        self._table: dict[str, tuple[object, int]] = {
            k: (v, _LEVEL_DEFAULT) for k, v in DEFAULTS.items()}
        path = getattr(args, "config", None)
        if path:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    loaded = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                parser.error(f"cannot read config {path}: {exc}")
            if not isinstance(loaded, dict):
                parser.error(f"config {path} must hold a JSON object")
            # only the subcommand's own argument dests (all present in args)
            known = set(vars(args)) - {"command", "func"}
            unknown = sorted(set(loaded) - known)
            if unknown:
                parser.error(f"unknown config key(s) in {path}: {', '.join(unknown)}")
            for k, v in loaded.items():
                self._table[k] = (v, _LEVEL_FILE)
        for k, v in vars(args).items():
            if k in ("config", "func", "json", "units", "out", "out_dir") or v is None:
                continue
            self._table[k.replace("-", "_")] = (v, _LEVEL_FLAG)

    def pick(self, key: str, required: bool = False):
        if key in self._table:
            return self._table[key][0]
        if required:
            self._parser.error(f"missing required parameter: {key}")
        return None

    def _coerce(self, key: str, val, kind):
        try:
            return kind(val)
        except (TypeError, ValueError):
            self._parser.error(f"parameter {key} must be a number, got {val!r}")

    def pick_float(self, key: str, required: bool = False) -> float | None:
        val = self.pick(key, required)
        return None if val is None else self._coerce(key, val, float)

    def pick_int(self, key: str, required: bool = False) -> int | None:
        val = self.pick(key, required)
        if isinstance(val, float) and not val.is_integer():
            self._parser.error(f"parameter {key} must be an integer, got {val!r}")
        return None if val is None else self._coerce(key, val, int)

    def exclusive(self, a: str, b: str, required: bool = False):
        """Return (name, value) of the winner of an exclusive pair."""
        ta, tb = self._table.get(a), self._table.get(b)
        if ta is not None and tb is not None:
            if ta[1] == tb[1]:
                self._parser.error(f"supply either {a} or {b}, not both")
            name, val = (a, ta[0]) if ta[1] > tb[1] else (b, tb[0])
        elif ta is not None:
            name, val = a, ta[0]
        elif tb is not None:
            name, val = b, tb[0]
        else:
            if required:
                self._parser.error(f"one of {a} or {b} is required")
            return (None, None)
        return name, self._coerce(name, val, float)

    def barrier(self) -> BarrierSetup:
        m = self.pick_float("m", required=True)
        name, val = self.exclusive("V0", "v")
        V0 = val if name == "V0" else val * m
        w = math.sqrt(2.0 * m * V0)
        if w == 0.0:
            raise DomainError(f"w = sqrt(2*m*V0) underflows to 0 at m={m}, V0={V0}")
        name, val = self.exclusive("L", "wL")
        L = val if name == "L" else val / w
        return BarrierSetup(m=m, V0=V0, L=L)

    def mode(self, setup: BarrierSetup):
        name, val = self.exclusive("E", "n2", required=True)
        if name == "E":
            return mode_from_energy(setup, val)
        return mode_from_n2(setup, val)


def _emit(args: argparse.Namespace, payload: dict) -> None:
    if args.json:
        text = json.dumps(payload, indent=2)
    else:
        units = getattr(args, "units", None)
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
    out = getattr(args, "out", None)
    if out and getattr(args, "command", None) != "sweep":
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

def _cmd_zone(parser, args) -> int:
    cfg = _Config(parser, args)
    setup = cfg.barrier()
    E = cfg.pick_float("E", required=True)
    zone = classify_zone(setup, E)
    payload = {"m": setup.m, "V0": setup.V0, "E": E, "zone": zone.value}
    if zone.value != "NonPropagating":
        mode = mode_from_energy(setup, E)
        ch = barrier_channel(setup, mode)
        payload.update({"k": mode.k, "n2": mode.n2, "channel": ch.kind,
                        "rho": ch.rho, "q": ch.q, "rho_n": ch.rho_n, "q_n": ch.q_n})
    _emit(args, payload)
    return 0


def _cmd_amp(parser, args) -> int:
    cfg = _Config(parser, args)
    setup = cfg.barrier()
    mode = cfg.mode(setup)
    sol = match_boundaries(setup, mode)
    point = transmission_closed_form(setup.v, mode.n2, setup.wL)
    payload = {
        "m": setup.m, "V0": setup.V0, "L": setup.L,
        "E": mode.E, "k": mode.k, "n2": mode.n2,
        "zone": _zone(setup.v, mode.n2).value,
        "T2_exact": point.probability,
        "phase_rad": point.phase,
        "R2": abs(point.R) ** 2,
        # the matcher is the independent check of the closed form
        "T2_matcher": abs(sol.T) ** 2,
        "unitarity_residual": abs(sol.R) ** 2 + abs(sol.T) ** 2 - 1.0,
    }
    try:
        payload["T2_nr_form"] = transmission_magnitude_nr_form(setup, mode) ** 2
    except KleinTunnelError:
        payload["T2_nr_form"] = None
    _emit(args, payload)
    return 0


def _cmd_phasetime(parser, args) -> int:
    cfg = _Config(parser, args)
    setup = cfg.barrier()
    mode = cfg.mode(setup)
    payload = {
        "m": setup.m, "V0": setup.V0, "L": setup.L, "E": mode.E, "n2": mode.n2,
        "zone": _zone(setup.v, mode.n2).value,
        "tau": classical_tau(setup, mode),
    }
    try:
        numeric = phase_time_numeric(setup, mode)
        payload["t_phi_numeric"] = numeric.t_phi
        payload["ratio_numeric"] = numeric.ratio
    except KleinTunnelError as exc:
        # the oracle refuses e.g. on a zone edge; the closed form is still defined
        payload.update(t_phi_numeric=None, ratio_numeric=None, numeric_error=str(exc))
    closed = phase_time_closed_form(setup, mode)
    payload["t_phi_closed"] = closed.t_phi
    payload["ratio_closed"] = closed.ratio
    v, wL = setup.v, setup.wL
    if v > 2.0:
        payload["edge_ratio_lower_wL"] = edge_phase_time_ratio(v, wL, "lower")
        payload["edge_ratio_lower_limit"] = edge_limit_ratio(v, "lower")
    payload["edge_ratio_upper_wL"] = edge_phase_time_ratio(v, wL, "upper")
    payload["edge_ratio_upper_limit"] = edge_limit_ratio(v, "upper")
    _emit(args, payload)
    return 0


def _cmd_limits(parser, args) -> int:
    cfg = _Config(parser, args)
    v = cfg.pick_float("v", required=True)
    wL = cfg.pick_float("wL", required=True)
    payload: dict = {"v": v, "wL": wL, "mL": wL / math.sqrt(2.0 * v)}
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
        "high_v_magnitude_form": 1.0 / math.sqrt(1.0 + (wL / math.sqrt(2.0 * v)) ** 2),
    })
    _emit(args, payload)
    return 0


def _cmd_packet(parser, args) -> int:
    cfg = _Config(parser, args)
    setup = cfg.barrier()
    name, val = cfg.exclusive("k0", "n2", required=True)
    k0 = val if name == "k0" else setup.w * math.sqrt(val)
    sigma = cfg.pick_float("sigma_k", required=True)
    half = cfg.pick_float("support_halfwidth")
    spectrum = SpectrumSpec(k0=k0, sigma_k=sigma,
                            support_halfwidth=half if half is not None else 6.0)
    n_times = cfg.pick_int("n_times")
    run = run_packet(setup, spectrum, n_times=2001 if n_times is None else n_times)
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
    out = getattr(args, "samples_out", None)
    if out:
        _write_table(out, ("t", "intensity"), run.samples, (_float_cells, _float_cells))
        payload["samples_path"] = str(out)
    _emit(args, payload)
    return 0


def _cmd_sweep(parser, args) -> int:
    cfg = _Config(parser, args)
    preset = getattr(args, "preset", None) or cfg.pick("preset")
    if preset == "fig1":
        out_dir = getattr(args, "out_dir", None) or cfg.pick("out_dir") or "."
        fmt = cfg.pick("format") or "csv"
        paths = fig1_preset(out_dir, fmt=str(fmt))
        _emit(args, {"preset": "fig1", "files": paths})
        return 0
    v = cfg.pick_float("v", required=True)
    wL = cfg.pick_float("wL", required=True)
    n2_min = cfg.pick_float("n2_min", required=True)
    n2_max = cfg.pick_float("n2_max", required=True)
    count = cfg.pick_int("count", required=True)
    outputs = cfg.pick("outputs") or list(VALUE_COLUMNS)
    if isinstance(outputs, str):
        outputs = [item.strip() for item in outputs.split(",") if item.strip()]
    req = SweepRequest(v=v, wL=wL, n2_min=n2_min, n2_max=n2_max,
                       count=count, outputs=tuple(outputs))
    records = run_sweep(req)
    out = args.out or cfg.pick("out")
    if not out:
        parser.error("sweep needs --out PATH (or an 'out' config entry)")
    fmt = cfg.pick("format") or ("json" if str(out).endswith(".json") else "csv")
    (write_csv if fmt == "csv" else write_json)(records, out)
    _emit(args, {"rows": len(records), "path": str(out), "format": fmt})
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
        return args.func(parser, args)
    except SystemExit as exc:  # argparse/usage errors carry their own code
        return int(exc.code or 0)
    except KleinTunnelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
