"""The three benchmark workloads: inputs, tasks and their fixed tail percentile.

Every workload is a closed loop with one serial caller: the next task
starts only after the previous one returned.  A *cycle* runs each task
of the workload once, in the order listed; runs always end on a whole
cycle so every panel is equally represented.

fig1
    The paper's preset: one task per panel v = 0, 1, 2, 5, 10 at
    wL = 2*pi, run through ``cli.main(["sweep", ...])`` on the exact
    ``fig1_request(v)`` grid (2000 points, every value column).  The
    numeric phase-time oracle and its matcher calls dominate, the sweep
    driver is second.  Layer metrics expected to move ``task_p50_ref_s`` and
    ``ops_per_ref_s`` here: phasetime.phase_time_numeric.*,
    scattering.match_boundaries.*, sweep.driver.self_s, cli.main.self_s,
    phasetime.nr.self_s (v = 0 panel only).  The grid ignores --seed.

closed_sweep
    Large sweeps without the oracle column (T2_exact, T2_nr_form,
    phase_rad, ratio_closed), written to CSV: v = 1, 10, 100 at
    wL = 2*pi and an opaque panel v = 10, wL = 400 (rho_n*wL up to ~90,
    many Klein-zone windings).  The scalar kernels, the per-point driver
    and the CSV writer do all the work; this is where a vectorized
    kernel shows (kinematics.*, stable.us_per_call,
    scattering.match_boundaries.*, scattering.transmission_any_zone.self_s,
    phasetime.normalized_phase_time.self_s, sweep.driver.self_s,
    sweep.write_csv.*) and where an oracle-only change must not.  The
    seed jitters each panel's grid offsets.

packet
    One task runs four packets back to back (an operation is one packet):
    ``run_packet`` with the default 2001 time samples on the README
    barrier (m = 1, V0 = 10, L = 0.1, sigma_k = 0.2) at k0 ~ 10
    (tunneling), ~ 7 (Klein) and ~ 12.5 (above barrier), plus one broad
    spectrum (sigma_k = 1) on the fig1 barrier (v = 10, wL = 2*pi,
    n2 ~ 5) that needs ~8x the quadrature nodes.  Building the
    exp(-i t E) matrix dominates; quadrature, phase-factor and
    amplitude-cache changes show in wavepacket.* and ``task_p50_ref_s``,
    while kernel changes routed into the amplitudes must cost nothing.
    The seed jitters every k0 inside its zone.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass

import numpy as np

FIG1_V_VALUES = (0.0, 1.0, 2.0, 5.0, 10.0)
FIG1_WL = 2.0 * math.pi
FIG1_COUNT = 2000

CLOSED_PANELS = ((1.0, 2.0 * math.pi), (10.0, 2.0 * math.pi),
                 (100.0, 2.0 * math.pi), (10.0, 400.0))
CLOSED_COUNT = 20000
CLOSED_OUTPUTS = ("T2_exact", "T2_nr_form", "phase_rad", "ratio_closed")
ALL_OUTPUTS = CLOSED_OUTPUTS + ("ratio_numeric",)

PACKET_N_TIMES = 2001
PACKET_HALFWIDTH = 6.0


@dataclass(frozen=True)
class Sweep:
    """One sweep panel on a linear n2 grid, written to ``<label>.csv``."""

    label: str
    v: float
    wL: float
    n2_min: float
    n2_max: float
    count: int
    outputs: tuple[str, ...]

    def grid(self) -> np.ndarray:
        return self.n2_min + np.arange(self.count) * (
            (self.n2_max - self.n2_min) / (self.count - 1))


@dataclass(frozen=True)
class Packet:
    """One transmitted-packet experiment (natural units, m, V0, L)."""

    label: str
    m: float
    V0: float
    L: float
    k0: float
    sigma_k: float


@dataclass(frozen=True)
class PacketSet:
    """The packet workload's task: its packets run back to back.

    One task per set rather than per packet keeps task times of one size;
    the broad packet alone costs about ten README packets, so per-packet
    task times would put the median on the boundary between two groups.
    """

    label: str
    packets: tuple[Packet, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: tuple
    # tail percentile reported as task_tail_ref_s, and the task count a
    # run reaches before stopping so that >= 10 samples lie beyond it
    tail_pct: float
    min_tasks: int
    # whether task times are rescaled by the host speed probe: the
    # interpreter-bound sweeps follow its speed states, the numpy-bound
    # packets do not (rescaling doubled their run-to-run spread)
    rescale: bool = True

    def ops_per_task(self, task) -> int:
        return task.count if isinstance(task, Sweep) else len(task.packets)


def _fig1_tasks() -> tuple[Sweep, ...]:
    tasks = []
    for v in FIG1_V_VALUES:
        top = 0.5 * v + 3.0  # identical to kleintunnel.sweep.fig1_request
        tasks.append(Sweep(f"fig1_v{int(v)}", v, FIG1_WL, top / FIG1_COUNT, top,
                           FIG1_COUNT, ALL_OUTPUTS))
    return tuple(tasks)


def _closed_tasks(rng: random.Random) -> tuple[Sweep, ...]:
    tasks = []
    for v, wL in CLOSED_PANELS:
        top = 0.5 * v + 3.0
        step = top / CLOSED_COUNT
        lo = rng.uniform(0.05, 1.0) * step
        hi = top - rng.uniform(0.0, 0.5) * step
        tasks.append(Sweep(f"closed_v{int(v)}_wL{wL:g}", v, wL, lo, hi,
                           CLOSED_COUNT, CLOSED_OUTPUTS))
    return tuple(tasks)


def _packet_tasks(rng: random.Random) -> tuple[PacketSet]:
    # README barrier: tunneling zone for 8.94 < k < 10.95
    tasks = [Packet(f"readme_{zone}", 1.0, 10.0, 0.1,
                    k0 + rng.uniform(-0.25, 0.25), 0.2)
             for zone, k0 in (("tunneling", 10.0), ("klein", 7.0), ("above", 12.5))]
    # broad spectrum across all three zones of the fig1 barrier v = 10
    m, V0 = 1.0, 10.0
    w = math.sqrt(2.0 * m * V0)
    n2 = 5.0 + rng.uniform(-0.1, 0.1)
    tasks.append(Packet("fig1_broad", m, V0, FIG1_WL / w, w * math.sqrt(n2), 1.0))
    return (PacketSet("packets", tuple(tasks)),)


NAMES = ("fig1", "closed_sweep", "packet")


def build(name: str, seed: int) -> Workload:
    """Workload inputs for a seed (the same seed gives the same inputs)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "fig1":
        return Workload(name, _fig1_tasks(), tail_pct=90.0, min_tasks=100)
    if name == "closed_sweep":
        return Workload(name, _closed_tasks(rng), tail_pct=75.0, min_tasks=40)
    if name == "packet":
        return Workload(name, _packet_tasks(rng), tail_pct=90.0, min_tasks=100,
                        rescale=False)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# running one task (the only code here that calls the library)
# ---------------------------------------------------------------------------

def run_task(task, workdir: str):
    """Run one task through the public API; returns what the checker needs.

    Library entry points are looked up on their modules at call time so
    the traced run's rebound wrappers are the ones called.
    """
    import kleintunnel.cli
    import kleintunnel.sweep
    import kleintunnel.wavepacket
    from kleintunnel.kinematics import BarrierSetup

    if isinstance(task, PacketSet):
        wp = kleintunnel.wavepacket
        return [wp.run_packet(BarrierSetup(m=p.m, V0=p.V0, L=p.L),
                              wp.SpectrumSpec(k0=p.k0, sigma_k=p.sigma_k,
                                              support_halfwidth=PACKET_HALFWIDTH),
                              n_times=PACKET_N_TIMES)
                for p in task.packets]
    path = os.path.join(workdir, task.label + ".csv")
    if task.outputs == ALL_OUTPUTS:
        argv = ["sweep", "--v", repr(task.v), "--wL", repr(task.wL),
                "--n2-min", repr(task.n2_min), "--n2-max", repr(task.n2_max),
                "--count", str(task.count), "--out", path]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = kleintunnel.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"cli sweep exited {rc}")
        return path
    sw = kleintunnel.sweep
    req = sw.SweepRequest(v=task.v, wL=task.wL, n2_min=task.n2_min,
                          n2_max=task.n2_max, count=task.count, outputs=task.outputs)
    sw.write_csv(sw.run_sweep(req), path)
    return path
