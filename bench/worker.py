"""One workload process: set up, print READY, then measure and print a result.

Started by ``run.py`` with ``src`` on PYTHONPATH.  Set-up is everything
a cold caller pays before the first useful result: interpreter start,
``import kleintunnel``, building the workload's inputs and one untimed
warm-up task.  ``run.py`` times it from spawn to the READY line; with
``--setup-only`` the process exits there.

Otherwise the closed loop runs whole cycles until ``--seconds`` have
passed and the workload's minimum task count is reached.  Each task is
timed alone, between two speed probes; its output is checked right
after, outside the timed region.  The last stdout line is one JSON
object for ``run.py``.

With ``--trace 1`` the process runs the untraced loop for 40 % of the
time, times the leaf kernels, then installs the tracer and repeats
exactly the same number of cycles traced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

import kleintunnel  # noqa: F401  (the import is part of the timed set-up)
import numpy as np

import workloads
from probe import REF_PROBE_S, speed_probe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")

class Checker:
    """Checks task outputs and accumulates failures, reasons and digests."""

    def __init__(self, wl: workloads.Workload, seed: int):
        import check  # mpmath is loaded after the timed set-up

        self._check = check
        self.rng = random.Random(f"check:{wl.name}:{seed}")
        self.stored = check.load_fig1_reference()["panels"] if wl.name == "fig1" else None
        self.reasons: Counter = Counter()
        self.digests: dict[str, str | None] = {}

    def __call__(self, task, out) -> int:
        """Number of failed operations of one task."""
        if isinstance(task, workloads.PacketSet):
            failed = 0
            for packet, run in zip(task.packets, out, strict=True):
                bad = self._check.check_packet(run, packet, workloads.PACKET_HALFWIDTH)
                self.reasons.update(f"{packet.label}: {b}" for b in bad)
                failed += 1 if bad else 0
            return failed
        stored = self.stored[task.label] if self.stored is not None else None
        failed, reasons, sha = self._check.check_sweep(out, task, self.rng, stored)
        self.reasons.update({f"{task.label}: {r}": n for r, n in reasons.items()})
        if self.stored is not None:
            self.digests[task.label] = sha
        return int(failed.sum())


def closed_loop(wl, workdir, checker, seconds=None, cycles=None, min_tasks=0):
    """Run whole cycles; returns (task seconds, probe seconds, attempted, failed, cycles).

    Task times are in cycle order, so task i ran wl.tasks[i % len(wl.tasks)];
    probe i is the faster speed probe taken just before or after task i.
    """
    times: list[float] = []
    probes: list[float] = []
    attempted = failed = done = 0
    began = time.perf_counter()
    while True:
        for task in wl.tasks:
            ops = wl.ops_per_task(task)
            attempted += ops
            probe = speed_probe()
            t0 = time.perf_counter()
            try:
                out = workloads.run_task(task, workdir)
            except Exception as exc:  # a raising task fails all its operations
                out = None
                checker.reasons[f"{task.label}: raised {exc!r}"] += ops
                failed += ops
            times.append(time.perf_counter() - t0)
            probes.append(min(probe, speed_probe()))
            if out is not None:
                failed += checker(task, out)
        done += 1
        if cycles is not None:
            if done >= cycles:
                break
        elif time.perf_counter() - began >= seconds and len(times) >= min_tasks:
            break
    return times, probes, attempted, failed, done


def _center_and_tail(samples: list[float], tail_pct: float) -> tuple[float, float, int]:
    """Median, nearest-rank tail percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(tail_pct / 100.0 * len(samples)))
    return statistics.median(samples), sorted(samples)[rank - 1], len(samples) - rank


def measure(wl, seconds, workdir, checker) -> dict:
    times, probes, attempted, failed, cycles = closed_loop(
        wl, workdir, checker, seconds=seconds, min_tasks=wl.min_tasks)
    ref = [t * REF_PROBE_S / p for t, p in zip(times, probes)] if wl.rescale else times
    good = attempted - failed
    p50, tail, beyond = _center_and_tail(times, wl.tail_pct)
    p50_ref, tail_ref, _ = _center_and_tail(ref, wl.tail_pct)
    return {
        "attempted": attempted,
        "failed": failed,
        "cycles": cycles,
        "tasks": len(times),
        "tail_pct": wl.tail_pct,
        "tail_samples_beyond": beyond,
        "ops_per_ref_s": good / sum(ref),
        "task_p50_ref_s": p50_ref,
        "task_tail_ref_s": tail_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw": {"ops_per_s": good / sum(times), "task_p50_s": p50, "task_tail_s": tail},
        "task_p50_s_by_task": {task.label: statistics.median(times[i::len(wl.tasks)])
                               for i, task in enumerate(wl.tasks)},
        "task_s": times,
        "probe_s": probes,
    }


def measure_traced(wl, seed, seconds, workdir, checker) -> dict:
    import tracing

    leaf = tracing.leaf_us_per_call(workloads.build("closed_sweep", seed).tasks)
    plain, _, attempted, failed, cycles = closed_loop(wl, workdir, checker, seconds=0.4 * seconds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _, a2, f2, _ = closed_loop(wl, workdir, checker, cycles=cycles)
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    np.savez_compressed(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.npz"), **spans)
    layers = tracing.layer_metrics(spans, cycles, workloads.PACKET_N_TIMES)
    layers.update(leaf)
    layers["trace.overhead_frac"] = sum(traced) / sum(plain)
    return {"attempted": attempted + a2, "failed": failed + f2, "cycles": cycles,
            "spans": int(len(spans["name_id"])), "layers": layers}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT_DIR)
    try:
        workloads.run_task(wl.tasks[0], workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        checker = Checker(wl, args.seed)
        if args.trace:
            result = measure_traced(wl, args.seed, args.seconds, workdir, checker)
        else:
            result = measure(wl, args.seconds, workdir, checker)
        result["reasons"] = dict(checker.reasons.most_common(50))
        result["fig1_sha256"] = checker.digests or None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
