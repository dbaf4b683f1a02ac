"""Parameter sweeps over n2 with zone tags and CSV/JSON output.

A sweep is defined by (v, wL) and a linear n2 grid; each grid point is a
function of (v, n2, wL) alone, computed independently in grid order, all
in one closed-form core call.  Each point's rho_n^2 is computed once, in
that call, and handed to the NR column and the oracle.  The phase column
is the closed form's phase, continuous in n2 by construction whatever
the grid spacing.  The zone follows from comparing n2 with the edges
v/2 -+ 1 and E_over_m = sqrt(1 + 2 n2 v), for every v; v = 0 is the
Schroedinger barrier through the same formulas, with E_over_m empty.
The ratio_numeric oracle is normalized_phase_time_numeric for every v.

Grid points landing within 1e-9 (relative) of a zone edge are snapped to
the edge, evaluated like every other point and flagged in the
``nudged`` column rather than dropped; a column whose computation
refuses a point stays empty there (``error`` field in JSON) and never
aborts the sweep (phase_rad, for one, where q_n wL is too large to fix
the phase modulo pi).

CSV contract: header row mandatory, columns in the fixed order

    n2, E_over_m, zone, T2_exact, T2_nr_form, phase_rad,
    ratio_closed, ratio_numeric, nudged

UTF-8, LF line endings, floats as shortest round-trip decimals, absent
values as empty fields.  JSON output is an array of records with the
same field names plus ``error``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, KleinTunnelError
from .kinematics import Zone
from .phasetime import _check_oracle_width, _phase_time_numeric
from .scattering import _MAX_WINDING, _closed_forms, _nr_form_from_r2

VALUE_COLUMNS = ("T2_exact", "T2_nr_form", "phase_rad", "ratio_closed", "ratio_numeric")
CSV_COLUMNS = ("n2", "E_over_m", "zone") + VALUE_COLUMNS + ("nudged",)

# relative n2 distance to a zone edge below which a grid point is snapped
# onto the edge and flagged as nudged
EDGE_SNAP_RTOL = 1e-9


@dataclass(frozen=True)
class SweepRequest:
    """One sweep: dimensionless barrier (v, wL), linear n2 grid of count points."""

    v: float
    wL: float
    n2_min: float
    n2_max: float
    count: int
    outputs: tuple[str, ...] = VALUE_COLUMNS

    def __post_init__(self) -> None:
        if not (self.v >= 0.0 and math.isfinite(self.v)):
            raise DomainError(f"v must be finite and >= 0, got {self.v}")
        if not (self.wL >= 0.0 and math.isfinite(self.wL)):
            raise DomainError(f"wL must be finite and >= 0, got {self.wL}")
        if not (self.n2_min > 0.0):
            raise DomainError(f"n2_min must be positive, got {self.n2_min}")
        if not (self.n2_max > self.n2_min and math.isfinite(self.n2_max)):
            raise DomainError(f"n2_max must be finite and exceed n2_min, got {self.n2_max}")
        if (isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral)
                or self.count < 2):
            raise DomainError(f"count must be an integer >= 2, got {self.count!r}")
        if not self.outputs:
            raise DomainError("outputs must not be empty")
        unknown = set(self.outputs) - set(VALUE_COLUMNS)
        if unknown:
            raise DomainError(f"unknown outputs: {sorted(unknown)}")

    def grid(self) -> list[float]:
        step = (self.n2_max - self.n2_min) / (self.count - 1)
        return [self.n2_min + i * step for i in range(self.count)]


class SweepRecord(NamedTuple):
    """One grid point; value fields are None when not requested or failed.

    An immutable named tuple: it equals the plain tuple of its values.
    """

    n2: float
    e_over_m: float | None
    zone: str
    t2_exact: float | None = None
    t2_nr_form: float | None = None
    phase_rad: float | None = None
    ratio_closed: float | None = None
    ratio_numeric: float | None = None
    nudged: bool = False
    error: str | None = None


# the zone tags as the strings a record carries
_KLEIN, _TUNNELING, _ABOVE = Zone.KLEIN.value, Zone.TUNNELING.value, Zone.ABOVE_BARRIER.value
_EDGE_LOWER, _EDGE_UPPER = Zone.EDGE_LOWER.value, Zone.EDGE_UPPER.value


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

def run_sweep(req: SweepRequest) -> list[SweepRecord]:
    """Evaluate the request grid in ascending n2, each point independently.

    Edges, snap tolerances, wanted columns and the oracle's wL = 0 refusal
    are decided once, and the snapped grid goes through one core call.
    Each point's rho_n^2 comes from that call; the NR column and the
    per-point oracle reuse it, so it is computed once per point.
    """
    v, wL = req.v, req.wL
    want_t2, want_nr, want_phase, want_closed, want_numeric = (
        col in req.outputs for col in VALUE_COLUMNS)
    numeric_refusal = None
    if want_numeric:
        try:
            _check_oracle_width(wL)
        except KleinTunnelError as exc:
            numeric_refusal = f"ratio_numeric: {exc}"
    lo = 0.5 * v - 1.0
    hi = 0.5 * v + 1.0
    # a point within EDGE_SNAP_RTOL of an edge is snapped onto it; there is
    # no lower edge for v <= 2, and hi >= 1, so max(1, hi) = hi
    lo_tol = EDGE_SNAP_RTOL * max(1.0, lo) if lo > 0.0 else -math.inf
    hi_tol = EDGE_SNAP_RTOL * hi
    snapped = []
    for n2 in req.grid():
        if abs(n2 - lo) <= lo_tol:
            snapped.append((lo, _EDGE_LOWER, True))
        elif abs(n2 - hi) <= hi_tol:
            snapped.append((hi, _EDGE_UPPER, True))
        else:
            snapped.append((n2, _KLEIN if n2 < lo else _TUNNELING if n2 < hi else _ABOVE, False))
    points = _closed_forms(v, [n2 for n2, _, _ in snapped], wL, ratio=want_closed)
    records = []
    for (n2, zone, nudged), (mag, phase, winding, _, r2, ratio_closed) in zip(snapped, points):
        t2 = mag * mag
        t2_nr = ratio_numeric = None
        if want_nr and lo <= n2 <= hi:  # tunneling or an edge
            # at v = 0 (n2 + rho_n^2 = 1) the NR prefactor is the exact one, so
            # the column repeats T2_exact there
            t2_nr = t2 if v == 0.0 else _nr_form_from_r2(n2, r2, wL) ** 2
        # a refused column stays empty and is named in errs; the row keeps the rest
        errs = []
        if not want_phase:
            phase = None
        elif winding > _MAX_WINDING:
            phase = None
            errs.append(f"phase_rad: q_n*wL is too large to resolve the phase modulo pi "
                        f"at v={v}, n2={n2}, wL={wL}")
        if ratio_closed is not None and not math.isfinite(ratio_closed):
            ratio_closed = None
            errs.append(f"ratio_closed: t_phi/tau is not finite at v={v}, n2={n2}, wL={wL}")
        if want_numeric:
            if nudged:
                errs.append(f"ratio_numeric: n2={n2} lies on a zone edge")
            elif numeric_refusal is not None:
                errs.append(numeric_refusal)
            else:
                try:
                    ratio_numeric = _phase_time_numeric(v, n2, r2, wL)
                except KleinTunnelError as exc:
                    errs.append(f"ratio_numeric: {exc}")
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        records.append(tuple.__new__(SweepRecord, (
            n2, math.sqrt(1.0 + 2.0 * n2 * v) if v > 0.0 else None, zone,
            t2 if want_t2 else None, t2_nr, phase, ratio_closed, ratio_numeric, nudged,
            "; ".join(errs) or None)))
    return records


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_csv(records: list[SweepRecord], path) -> None:
    """Write records in the fixed CSV contract (round-trip exact floats)."""
    if not records:
        raise DomainError("refusing to write an empty sweep")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            # one call over a generator: no second copy of the file in memory
            fh.writelines(
                f"{n2!r},{'' if e is None else repr(e)},{zone},"
                f"{'' if t2 is None else repr(t2)},{'' if nr is None else repr(nr)},"
                f"{'' if ph is None else repr(ph)},{'' if rc is None else repr(rc)},"
                f"{'' if rn is None else repr(rn)},{'true' if nudged else ''}\n"
                for n2, e, zone, t2, nr, ph, rc, rn, nudged, _ in records)
    except OSError as exc:
        raise KleinTunnelError(f"writing {path}: {exc}") from exc


def read_csv(path) -> list[SweepRecord]:
    """Parse a file written by write_csv back into records (exact floats)."""
    def num(cell: str) -> float | None:
        return None if cell == "" else float(cell)

    try:
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            header = fh.readline().rstrip("\n")
            if header != ",".join(CSV_COLUMNS):
                raise DomainError(f"{path}: unexpected header {header!r}")
            out = []
            for line in fh:
                cells = line.rstrip("\n").split(",")
                if len(cells) != len(CSV_COLUMNS):
                    raise DomainError(f"{path}: malformed row {line!r}")
                out.append(SweepRecord(float(cells[0]), num(cells[1]), cells[2],
                                       *map(num, cells[3:8]), cells[8] == "true"))
            return out
    except OSError as exc:
        raise KleinTunnelError(f"reading {path}: {exc}") from exc


def write_json(records: list[SweepRecord], path) -> None:
    """Write records as a JSON array with the CSV field names plus ``error``."""
    if not records:
        raise DomainError("refusing to write an empty sweep")
    # a record's fields are the CSV columns plus error, in that order
    names = CSV_COLUMNS + ("error",)
    payload = [dict(zip(names, rec)) for rec in records]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise KleinTunnelError(f"writing {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

FIG1_V_VALUES = (0.0, 1.0, 2.0, 5.0, 10.0)
FIG1_WL = 2.0 * math.pi
FIG1_COUNT = 2000


def fig1_request(v: float) -> SweepRequest:
    """Sweep request for one transmission/phase-time panel: wL = 2*pi,
    2000 linear n2 points on (0, v/2 + 3] (covers all three zones)."""
    top = 0.5 * v + 3.0
    return SweepRequest(v=v, wL=FIG1_WL, n2_min=top / FIG1_COUNT, n2_max=top,
                        count=FIG1_COUNT)


def fig1_preset(out_dir, fmt: str = "csv") -> list[str]:
    """Produce the five standard datasets (v = 0, 1, 2, 5, 10) and return paths."""
    import os

    if fmt not in ("csv", "json"):
        raise DomainError(f"fmt must be 'csv' or 'json', got {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for v in FIG1_V_VALUES:
        records = run_sweep(fig1_request(v))
        path = os.path.join(str(out_dir), f"fig1_v{int(v)}.{fmt}")
        (write_csv if fmt == "csv" else write_json)(records, path)
        paths.append(path)
    return paths
