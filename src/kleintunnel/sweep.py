"""Parameter sweeps over n2 with zone tags and CSV/JSON output.

A sweep is defined by (v, wL) and a linear n2 grid; each grid point is a
function of (v, n2, wL) alone, computed independently in grid order, all
in one closed-form core call and one oracle call.  Each point's rho_n^2
is computed once, in the core call, and handed to the NR column and the
oracle.  The phase column is the closed form's phase, continuous in n2
by construction whatever the grid spacing.  The zone is the one zone
rule's (kinematics._zone_code, which also tags classify_zone's energies
and picks the T2_nr_form rows) and E_over_m = sqrt(1 + 2 n2 v), for
every v; v = 0 is the Schroedinger barrier through the same formulas,
with E_over_m empty.  The ratio_numeric oracle is
normalized_phase_time_numeric for every v, evaluated over the whole grid.
The driver returns the fields as the core's and the oracle's arrays:
float64 value columns with nan marking an empty cell, zone codes and the
nudged mask.  run_sweep returns them as SweepRecords, a read-only
sequence of records that converts the columns to Python values only
when a record is read, and read_csv parses a file back into the same
columns.  SweepRecords is the one sweep type the writers take
(list(run_sweep(req)) gives a mutable list, which they refuse), and
write_csv writes a view's arrays as they are, so a CSV sweep, from the
library, the CLI, the fig1 preset or a file read back, builds no
per-row tuple and boxes no float.

Grid points on a zone edge by the one edge rule (kinematics._edges,
which also sets classify_zone's tags and the oracle's refusals) are
snapped to the edge, evaluated like every other point and flagged in the
``nudged`` column rather than dropped.  A request outside the input
domain (kinematics) is refused when it is built; past that, the
closed-form core and the oracle decide every refusal, never the sweep:
any cell they cannot vouch for stays empty, named "<column>: <reason>"
in the row's ``error`` field (JSON) by the one namer of refused cells,
scattering._refusal, while the row keeps the rest.

CSV contract: header row mandatory, columns in the fixed order

    n2, E_over_m, zone, T2_exact, T2_nr_form, phase_rad,
    ratio_closed, ratio_numeric, nudged

UTF-8, LF line endings, absent values as empty fields.  Floats are
written in Python repr notation, the shortest decimal that reads back to
the same double: exponent form below 1e-4 and from 1e16 on (1e-05,
1e+16), fixed form between.  A view's nan is an absent value, except in
n2, which every row has; an inf, or a nan n2, is refused with a
DomainError naming the column, never written, and read_csv refuses a
cell write_csv never writes.  JSON output is an
array of records with the same field names plus ``error``.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DomainError, KleinTunnelError
from .kinematics import _ZONE_ORDER, _edges, _in_domain, _zone_code
from .phasetime import _phase_time_columns
from .scattering import _NR_ZONES, _closed_forms, _nr_form_from_r2, _refusal, _squared

VALUE_COLUMNS = ("T2_exact", "T2_nr_form", "phase_rad", "ratio_closed", "ratio_numeric")
CSV_COLUMNS = ("n2", "E_over_m", "zone") + VALUE_COLUMNS + ("nudged",)


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
        _in_domain(v=self.v, wL=self.wL, n2_min=self.n2_min, n2_max=self.n2_max)
        if not (self.n2_max > self.n2_min):
            raise DomainError(f"n2_max must exceed n2_min, got {self.n2_max}")
        if (isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral)
                or self.count < 2):
            raise DomainError(f"count must be an integer >= 2, got {self.count!r}")
        if not self.outputs:
            raise DomainError("outputs must not be empty")
        unknown = set(self.outputs) - set(VALUE_COLUMNS)
        if unknown:
            raise DomainError(f"unknown outputs: {sorted(unknown)}")

    def grid(self) -> np.ndarray:
        step = (self.n2_max - self.n2_min) / (self.count - 1)
        return self.n2_min + np.arange(self.count) * step


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


# the zone tags as the strings a record carries, indexed by the driver's zone
# codes (kinematics._zone_code)
_ZONES = tuple(z.value for z in _ZONE_ORDER)
_ZONE_TAGS = np.array(_ZONES, dtype=object)
# the codes of the rows T2_nr_form is defined on
_NR_CODES = [_ZONE_ORDER.index(z) for z in _NR_ZONES]


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

def _sweep_table(req: SweepRequest) -> list:
    """Evaluate the request grid in ascending n2, each point independently,
    as the record fields' columns (in SweepRecord._fields order).

    The grid is handled as columns: snapping, zone codes, the closed-form
    core (one call), the NR column and the oracle (one call, fed the
    core's rho_n^2 and s, so rho_n^2 is computed once per point) are array
    passes, and one pass names every cell the core or the oracle left
    nan with scattering._refusal, given the row's rho_n^2.  Only naming
    refused cells runs per row.  The columns stay the arrays the core and
    the oracle return: n2, E_over_m and the value columns are float64,
    with nan marking every empty cell (refused, off the tunneling and
    edge rows for T2_nr_form, or not requested); zone holds the int codes
    of kinematics._zone_code (into _ZONES), nudged a bool mask, and the
    errors a list.  The CSV writer formats them as they are, with no
    value boxed.
    """
    v, wL = req.v, req.wL
    n2 = req.grid()
    zone = _zone_code(v, n2)
    # a point on an edge by the one edge rule is snapped onto it
    lower, upper = _edges(v, n2)
    nudged = lower | upper
    n2 = np.where(lower, 0.5 * v - 1.0, np.where(upper, 0.5 * v + 1.0, n2))
    cols = _closed_forms(v, n2, wL, ratio="ratio_closed" in req.outputs)
    # a refused cell stays empty and is named in errors; the row keeps the rest
    empty = np.full(len(n2), np.nan)
    errors = [None] * len(n2)

    def refuse(i: int, name: str, reason: object) -> None:
        errors[i] = f"{name}: {reason}" if errors[i] is None else f"{errors[i]}; {name}: {reason}"

    t2 = cols.mag * cols.mag
    # T2_nr_form: tunneling or an edge; at v = 0 (n2 + rho_n^2 = 1) the NR
    # prefactor is the exact one, so the column repeats T2_exact there
    rows = np.isin(zone, _NR_CODES)
    nr = t2
    if "T2_nr_form" in req.outputs and v != 0.0:
        nr = np.empty_like(t2)  # read on rows only
        nr[rows] = _squared(_nr_form_from_r2(n2[rows], cols.r2[rows], wL))
    numeric = None
    if "ratio_numeric" in req.outputs:
        numeric = _phase_time_columns(v, n2, cols.r2, cols.s, wL)
    # a nan cell is one the core or the oracle refused: empty here, named
    # with its reason
    out = dict.fromkeys(VALUE_COLUMNS, empty)
    for name, column, values, defined in (
            ("T2_exact", "mag", t2, True), ("T2_nr_form", "nr", nr, rows),
            ("phase_rad", "phase", cols.phase, True), ("ratio_closed", "ratio", cols.ratio, True),
            ("ratio_numeric", "numeric", numeric, True)):
        if name in req.outputs:
            bad = np.isnan(values) & defined
            out[name] = values if defined is True else np.where(defined, values, np.nan)
            for i in np.flatnonzero(bad).tolist():
                refuse(i, name, _refusal(column, v, float(n2[i]), wL, cols.r2[i]))
    return [n2, cols.s if v > 0.0 else empty, zone,
            *(out[name] for name in VALUE_COLUMNS), nudged, errors]


def _optional(values: np.ndarray) -> list[float | None]:
    """A float64 column as Python floats, with None for each nan."""
    return np.where(np.isnan(values), None, values).tolist()


class SweepRecords(Sequence):
    """A sweep's records as a read-only sequence over its columns.

    The columns are the driver's arrays (see _sweep_table).  They are
    converted to Python float, None, str and bool the first time a record
    is read (by iteration, index, equality or write_json), once per view;
    write_csv never converts them.  Slicing gives a view of the same kind;
    the view equals a list of the same records, either way round, and is
    unhashable.  list(records) gives a mutable list, which cannot be
    written.
    """

    __slots__ = ("_columns", "_plain")

    def __init__(self, columns: list):
        # the driver's columns, in SweepRecord._fields order
        self._columns = columns
        self._plain = None

    def _plain_columns(self) -> list[list]:
        """The columns as lists of the records' Python values, built once."""
        if self._plain is None:
            n2, s, zone, *values, nudged, errors = self._columns
            self._plain = [n2.tolist(), _optional(s), _ZONE_TAGS[zone].tolist(),
                           *map(_optional, values), nudged.tolist(), errors]
        return self._plain

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        return map(tuple.__new__, repeat(SweepRecord), zip(*self._plain_columns()))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepRecords([column[index] for column in self._columns])
        return tuple.__new__(SweepRecord, [column[index] for column in self._plain_columns()])

    def __eq__(self, other) -> bool:
        if isinstance(other, SweepRecords):
            return self._plain_columns() == other._plain_columns()
        if isinstance(other, list):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"SweepRecords({list(self)!r})"


def run_sweep(req: SweepRequest) -> SweepRecords:
    """Evaluate the request grid in ascending n2 (see _sweep_table), one
    record per point, as a read-only SweepRecords view over the driver's
    columns."""
    return SweepRecords(_sweep_table(req))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# orjson prints the shortest round-trip digits that repr prints (Ryu), in
# its own notation: 1e16 and 1e-7 where repr writes 1e+16 and 1e-07, and
# fixed notation for 1e-5 <= |x| < 1e-4, where repr writes 1.5e-05.  On
# comma-delimited cells these rewrites give repr's bytes; positive
# exponents (from 16 on) have two digits already, negative ones from 10 on.
_EXPONENT_REWRITES = ((b"e", b"e+"), (b"e+-", b"e-")) + tuple(
    (b"e-%d," % d, b"e-0%d," % d) for d in range(6, 10))
# a cell in [1e-5, 1e-4): its first digit and the rest of its mantissa
_DECADE = re.compile(rb",(-?)0\.0000([1-9])(\d*)(?=,)")
# rows per block: each block is formatted, checked and then written
_BLOCK = 4096


def _decade_cell(match: re.Match) -> bytes:
    sign, first, rest = match.groups()
    return b",%s%s%s%se-05" % (sign, first, b"." if rest else b"", rest)


def _float_cells(values: np.ndarray, name: str, empty: bool = True) -> list[bytes]:
    """Each float of a float64 array as repr writes it, from one
    orjson.dumps of the column, and an empty cell for each nan; with
    empty=False (n2, a cell every row has) a nan is refused too.  orjson
    writes nan and inf as null, so a null that is not an empty cell is
    refused with a DomainError naming the column.
    """
    # counted only when the first cell is empty
    if empty and (not len(values) or values[0] != values[0]) and (
            np.count_nonzero(np.isnan(values)) == len(values)):
        return [b""] * len(values)  # no value: nothing to format or check
    import orjson  # loaded on the first write, not on import

    data = orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)
    # "[a,b]" -> ",a,b,": every cell between two commas.  The guards test
    # one byte: no number holds an n, and only an exponent holds an e.
    data = b"," + data[1:-1] + b","
    if b"n" in data:
        if not empty or data.count(b"n") != np.count_nonzero(np.isnan(values)):
            raise DomainError(f"{name}: nan or inf cannot be written")
        data = data.replace(b"null", b"")
    if b"e" in data:
        for old, new in _EXPONENT_REWRITES:
            data = data.replace(old, new)
    if b"0.0000" in data:
        data = _DECADE.sub(_decade_cell, data)
    return data.split(b",")[1:-1]


# the cells of a view's zone codes and nudged mask, indexed by code and flag
_ZONE_CELLS = np.array([z.encode() for z in _ZONES], dtype=object)
_FLAG_CELLS = np.array([b"", b"true"], dtype=object)


def _zone_cells(values: np.ndarray, name: str) -> list[bytes]:
    """A view's zone codes (an int array) as their tags' cells."""
    return _ZONE_CELLS[values].tolist()


def _flag_cells(values: np.ndarray, name: str) -> list[bytes]:
    return _FLAG_CELLS[values.view(np.uint8)].tolist()


def _write_table(path, names: tuple[str, ...], columns, formats) -> None:
    """Write columns (equal-length sequences, those past len(names) ignored)
    under a header of names: UTF-8, LF endings, one formats[j](values, name)
    -> cells per column.  Each column is sliced into blocks of _BLOCK rows,
    and each block is formatted and checked before it is written, so a
    refused cell raises with the header and the earlier blocks on disk.  An
    OSError is raised as a KleinTunnelError naming the path.
    """
    try:
        with open(path, "wb") as fh:
            fh.write(",".join(names).encode() + b"\n")
            for start in range(0, len(columns[0]), _BLOCK):
                stop = start + _BLOCK
                cells = [f(values[start:stop], name)
                         for f, values, name in zip(formats, columns, names)]
                fh.write(b"\n".join(map(b",".join, zip(*cells))) + b"\n")
    except OSError as exc:
        raise KleinTunnelError(f"writing {path}: {exc}") from exc


def _writable(records: SweepRecords) -> None:
    """Refuse anything but a non-empty SweepRecords, before a file is opened."""
    if not isinstance(records, SweepRecords):
        raise TypeError(f"a sweep is written from SweepRecords, not {type(records).__name__}")
    if not records:
        raise DomainError("refusing to write an empty sweep")


def write_csv(records: SweepRecords, path) -> None:
    """Write a sweep in the fixed CSV contract (floats as repr writes them),
    from the view's float64 columns, with no record built and no value
    boxed.

    Raises TypeError for anything but a SweepRecords, DomainError for an
    empty sweep, for an inf in any float column and for a nan n2 (naming
    the column), and KleinTunnelError when writing fails.
    """
    _writable(records)
    _write_table(path, CSV_COLUMNS, records._columns,
                 (partial(_float_cells, empty=False), _float_cells, _zone_cells)
                 + (_float_cells,) * 5 + (_flag_cells,))


def _finite(cell: str) -> float:
    """A finite float cell in the one spelling write_csv gives it, repr's."""
    x = float(cell)  # an empty cell raises here too
    if not math.isfinite(x) or repr(x) != cell:
        raise ValueError(cell)
    return x


def _finite_or_empty(cell: str) -> float:
    return _finite(cell) if cell else math.nan


# each CSV column's cell parser and its column's dtype in the driver's layout
_ZONE_CODES = {tag: code for code, tag in enumerate(_ZONES)}
_READERS = (_finite, _finite_or_empty, _ZONE_CODES.__getitem__) + (
    _finite_or_empty,) * 5 + ({"": False, "true": True}.__getitem__,)
_DTYPES = (float, float, int) + (float,) * 5 + (bool,)


def read_csv(path) -> SweepRecords:
    """Parse a file written by write_csv into a SweepRecords view over the
    driver's column layout (see _sweep_table): exact float64 with nan for
    an empty cell, zone codes, the nudged mask, and every error None.

    A file holds only what write_csv writes.  A DomainError names the path
    for a file that is not UTF-8, a wrong header or a malformed row, and
    the path, the row (row 1 is the first after the header) and the column
    for a cell that float() cannot read, a non-finite float, a float not
    spelled as repr spells it (1e5, 1.50, +1.5, .5, 1_0.0, blanks), a zone
    outside the five tags, or a nudged cell other than empty or true.
    """
    columns = [[] for _ in CSV_COLUMNS]
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            header = fh.readline().rstrip("\n")
            if header != ",".join(CSV_COLUMNS):
                raise DomainError(f"{path}: unexpected header {header!r}")
            for row, line in enumerate(fh, 1):
                cells = line.rstrip("\n").split(",")
                if len(cells) != len(CSV_COLUMNS):
                    raise DomainError(f"{path}: malformed row {line!r}")
                for name, read, cell, column in zip(CSV_COLUMNS, _READERS, cells, columns):
                    try:
                        column.append(read(cell))
                    except (ValueError, KeyError):
                        raise DomainError(f"{path}: row {row}, {name}: {cell!r} is not a "
                                          f"cell write_csv writes") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8: {exc}") from None
    except OSError as exc:
        raise KleinTunnelError(f"reading {path}: {exc}") from exc
    return SweepRecords([np.array(column, dtype=dtype) for column, dtype in zip(columns, _DTYPES)]
                        + [[None] * len(columns[0])])


def write_json(records: SweepRecords, path) -> None:
    """Write a sweep as a JSON array with the CSV field names plus ``error``;
    raises as write_csv does (an inf or a nan n2 refused, naming the field)."""
    _writable(records)
    for name, column in zip(CSV_COLUMNS, records._columns):
        # a nan is null, the empty value, except in n2
        if column.dtype.kind == "f" and (
                np.isinf(column).any() or name == "n2" and np.isnan(column).any()):
            raise DomainError(f"{name}: nan or inf cannot be written")
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
        req = fig1_request(v)
        path = os.path.join(str(out_dir), f"fig1_v{int(v)}.{fmt}")
        (write_csv if fmt == "csv" else write_json)(run_sweep(req), path)
        paths.append(path)
    return paths
