"""Traced run: module-boundary spans recorded from outside the library.

The library is not edited.  ``Tracer.install`` wraps the public entry
points listed in ``BOUNDARIES`` and rebinds each wrapper under every name
that refers to the original function in any ``kleintunnel`` module.  That
is needed because callers bind names with ``from .x import y``: the sweep
driver calls ``kleintunnel.sweep.match_boundaries``, not
``kleintunnel.scattering.match_boundaries``.  ``uninstall`` restores the
originals.

A span is (name, start, end, parent); spans stay in flat arrays in memory
and are written to ``out/`` when the run ends.  A span's self time is its
duration minus the durations of its direct child spans.
``SpectrumSpec.amplitude`` is recorded as a zero-length marker carrying
the number of nodes requested, so it counts quadrature levels without
taking time away from the synthesis span.

The kinematics and ``_stable`` leaves cost less than a wrapper, so they
are timed in untraced loops over the closed_sweep grid instead
(``leaf_us_per_call``).  ``transmission_closed_form`` and
``oscillatory_transmission`` stay inside the ``transmission_any_zone``
span they are dispatched from.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from array import array

import numpy as np

BOUNDARIES = (
    ("scattering", "match_boundaries"),
    ("scattering", "unwrapped_phase"),
    ("scattering", "transmission_any_zone"),
    ("scattering", "transmission_magnitude_nr_form"),
    ("phasetime", "phase_time_numeric"),
    ("phasetime", "normalized_phase_time"),
    ("phasetime", "edge_phase_time_ratio"),
    ("phasetime", "nr_magnitude_normalized"),
    ("phasetime", "nr_phase_normalized"),
    ("phasetime", "nr_ratio_normalized"),
    ("phasetime", "nr_ratio_numeric"),
    ("sweep", "run_sweep"),
    ("sweep", "write_csv"),
    ("wavepacket", "run_packet"),
    ("wavepacket", "distortion"),
    ("wavepacket", "estimate_arrival"),
    ("cli", "main"),
)
AMPLITUDE = "wavepacket.SpectrumSpec.amplitude"
# spans that own the matcher calls and amplitude requests beneath them:
# the numeric oracle, packet synthesis and the distortion quadrature
OWNERS = ("phasetime.phase_time_numeric", "wavepacket.run_packet", "wavepacket.distortion")
_ORACLE, _PACKET, _DISTORTION = range(len(OWNERS))


def _written_bytes(args, kwargs, result) -> float:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return float(os.path.getsize(path))


class Tracer:
    """Span recorder; install() wraps the boundaries, uninstall() undoes it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.value.append(0.0)
        return idx

    def _span(self, name: str, fn, measure=None):
        nid, stack, start, end, value = self._id(name), self._stack, self.start, self.end, self.value
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx], end[idx] = t0, t1
            if measure is not None:
                value[idx] = measure(args, kwargs, result)
            return result

        return traced

    def _marker(self, name: str, method):
        nid = self._id(name)

        @functools.wraps(method)
        def marked(spec, k):
            idx = self._open(nid)
            self.start[idx] = self.end[idx] = time.perf_counter()
            self.value[idx] = float(np.size(k))
            return method(spec, k)

        return marked

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == "kleintunnel" or name.startswith("kleintunnel.")]
        for modname, fname in BOUNDARIES:
            original = getattr(importlib.import_module(f"kleintunnel.{modname}"), fname, None)
            if original is None:
                continue  # entry point removed: its metrics read 0
            measure = _written_bytes if fname == "write_csv" else None
            wrapped = self._span(f"{modname}.{fname}", original, measure)
            for mod in modules:
                if mod.__dict__.get(fname) is original:
                    self._undo.append((mod, fname, original))
                    setattr(mod, fname, wrapped)
        spec = importlib.import_module("kleintunnel.wavepacket").SpectrumSpec
        original = spec.__dict__["amplitude"]
        self._undo.append((spec, "amplitude", original))
        spec.amplitude = self._marker(AMPLITUDE, original)

    def uninstall(self) -> None:
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }


def layer_metrics(spans: dict[str, np.ndarray], cycles: int, n_times: int) -> dict[str, float]:
    """Per-layer counts and self times per workload cycle, from the spans."""
    names = list(spans["names"])
    ids, parent, value = spans["name_id"], spans["parent"], spans["value"]
    dur = spans["end"] - spans["start"]
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def mask(name: str) -> np.ndarray:
        return ids == names.index(name) if name in names else np.zeros(len(ids), dtype=bool)

    # index into OWNERS of the nearest enclosing owner span, -1 for none
    owner_of_id = {names.index(n): k for k, n in enumerate(OWNERS) if n in names}
    id_list = ids.tolist()
    inner = [-1] * len(id_list)  # nearest owner span including the span itself
    owner = [-1] * len(id_list)
    for i, (nid, p) in enumerate(zip(id_list, parent.tolist())):
        up = inner[p] if p >= 0 else -1
        owner[i] = owner_of_id[id_list[up]] if up >= 0 else -1
        inner[i] = i if nid in owner_of_id else up
    owner = np.array(owner, dtype=np.int8)

    def count(name: str) -> float:
        return float(mask(name).sum())

    def self_s(name: str) -> float:
        return float(self_time[mask(name)].sum())

    mb = "scattering.match_boundaries"
    ptn = "phasetime.phase_time_numeric"
    mb_mask = mask(mb)
    amp = mask(AMPLITUDE)
    nodes = float(value[amp].sum())
    packet_matcher = float((mb_mask & np.isin(owner, (_PACKET, _DISTORTION))).sum())
    field_nodes = float(value[amp & (owner == _PACKET)].sum())
    nr_self = sum(self_s(n) for n in names if n.startswith("phasetime.nr_"))
    per_cycle = {
        "scattering.match_boundaries.calls": count(mb),
        "scattering.match_boundaries.self_s": self_s(mb),
        "scattering.transmission_any_zone.self_s": self_s("scattering.transmission_any_zone"),
        "scattering.unwrapped_phase.calls": count("scattering.unwrapped_phase"),
        "phasetime.phase_time_numeric.calls": count(ptn),
        "phasetime.phase_time_numeric.self_s": self_s(ptn),
        "phasetime.normalized_phase_time.self_s": self_s("phasetime.normalized_phase_time"),
        "phasetime.nr.self_s": nr_self,
        "sweep.driver.self_s": self_s("sweep.run_sweep"),
        "sweep.write_csv.self_s": self_s("sweep.write_csv"),
        "sweep.write_csv.bytes": float(value[mask("sweep.write_csv")].sum()),
        "wavepacket.synthesis.self_s": self_s("wavepacket.run_packet"),
        "wavepacket.quadrature_levels": float(amp.sum()),
        "wavepacket.nodes_requested": nodes,
        "wavepacket.matcher_calls": packet_matcher,
        "wavepacket.phase_factor_entries": field_nodes * n_times,
        "wavepacket.distortion.self_s": self_s("wavepacket.distortion"),
        "cli.main.self_s": self_s("cli.main"),
    }
    out = {key: val / cycles for key, val in per_cycle.items()}
    n_mb, n_ptn = count(mb), count(ptn)
    out["scattering.match_boundaries.us_per_call"] = 1e6 * self_s(mb) / n_mb if n_mb else 0.0
    out["phasetime.phase_time_numeric.matcher_calls_per_call"] = (
        float((mb_mask & (owner == _ORACLE)).sum()) / n_ptn if n_ptn else 0.0)
    out["wavepacket.amp_reuse_ratio"] = 1.0 - packet_matcher / nodes if nodes else 0.0
    return out


# ---------------------------------------------------------------------------
# untraced leaf timings
# ---------------------------------------------------------------------------

def _median_seconds(loop, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        loop()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def leaf_us_per_call(panels, stride: int = 4, reps: int = 5) -> dict[str, float]:
    """µs per call of the kinematics and _stable leaves over a sweep grid.

    Every ``stride``-th point of each panel is used.  The _stable inputs
    are that grid's d2 = rho_n2 * wL^2 (positive and negative branches)
    plus as many values scaled into the series branch |d2| < 1e-6.
    Missing functions report 0.
    """
    kin = importlib.import_module("kleintunnel.kinematics")
    vx = [(p.v, x) for p in panels for x in p.grid()[::stride].tolist()]
    setups = {p.v: kin.BarrierSetup.from_dimensionless(p.v, p.wL) for p in panels}
    sx = [(setups[v], x) for v, x in vx]
    wl2 = [p.wL ** 2 for p in panels for _ in p.grid()[::stride]]
    d2 = [kin.rho_n2(v, x) * w2 for (v, x), w2 in zip(vx, wl2)]
    big = max(abs(d) for d in d2)
    d2 += [d / (2e6 * big) for d in d2]

    rho = getattr(kin, "rho_n2", None)
    mode = getattr(kin, "mode_from_n2", None)

    def rho_loop():
        for v, x in vx:
            rho(v, x)

    def mode_loop():
        for s, x in sx:
            mode(s, x)

    out = {
        "kinematics.rho_n2.us_per_call":
            1e6 * _median_seconds(rho_loop, reps) / len(vx) if rho else 0.0,
        "kinematics.mode_from_n2.us_per_call":
            1e6 * _median_seconds(mode_loop, reps) / len(sx) if mode else 0.0,
    }
    try:
        stable = importlib.import_module("kleintunnel._stable")
    except ImportError:
        stable = None
    fns = [getattr(stable, n, None) for n in ("sinh_sq", "sinhc_cosh", "tanhc")]
    fns = [f for f in fns if f is not None]

    def stable_loop():
        for f in fns:
            for d in d2:
                f(d)

    out["stable.us_per_call"] = (
        1e6 * _median_seconds(stable_loop, reps) / (len(fns) * len(d2)) if fns else 0.0)
    return out
