"""kleintunnel benchmark: one workload, end-to-end or traced per module.

Usage, from the repository root:

    python3 bench/run.py --workload fig1 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads are described in ``workloads.py`` and ``BENCHMARK.json``.  The
library is imported from ``src/`` of this checkout; nothing is
installed.  Each workload runs in its own child process, serially, with
no pool, single-threaded BLAS and pinned to one CPU.

--trace 0 reports the end-to-end metrics:
    ops_per_ref_s    correctly checked operations (grid points, or
                     packets) per second of task time
    task_p50_ref_s   median time of one task
    task_tail_ref_s  the workload's fixed tail percentile of task time,
                     chosen so >= 10 samples lie beyond it (both reported)
    setup_s          median over 7 fresh processes (3 before and 3 after
                     the measured one) of spawn -> import -> inputs built
                     -> one warm-up task done
    peak_rss_mb      peak resident memory of the measuring process
    pass_frac        1 - failed/attempted operations (fail_frac is
                     printed too; a metric must never read 0)
Set-up times, and task times of the workloads marked ``rescale``, are
wall times rescaled to a reference host speed by the fixed probe of
``probe.py``, timed next to every task and before every spawn; the raw
wall-time ops_per_s, task_p50_s, task_tail_s and setup_s are printed and
kept in the result file.
--trace 1 reports the per-layer metrics of ``tracing.py`` per workload
cycle, plus cli.import_s / cli.numpy_import_s from ``-X importtime``.

Every run writes its full result (machine, reasons for failures, the
fig1 SHA-256 digests and whether they match the seed's) to
``bench/out/``; the last stdout line is the JSON summary.  The exit code
is 1 when more operations fail than the seed's recorded share, 2 when
the library cannot be found and 3 when a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

from probe import REF_PROBE_S, speed_probe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
NAMES = ("fig1", "closed_sweep", "packet")

SETUP_SPAWNS_EACH_SIDE = 3
IMPORT_SPAWNS = 5
# hard limit for one workload; the contract allows 180 s per run
RUN_BUDGET_S = 170.0


class ChildError(RuntimeError):
    pass


# one caller, serial: BLAS stays single-threaded, so a thread descheduled
# by another tenant of a shared machine cannot stall every matrix product
SERIAL_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _pin_to_one_cpu() -> int | None:
    """Run this process and its children on the highest-numbered usable CPU.

    A serial workload that migrates between CPUs with unequal background
    load splits its task times into two modes; one CPU keeps them unimodal.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(SERIAL_ENV)
    return env


def _spawn(args: list[str], deadline: float) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for READY.

    Returns the process, the seconds from spawn to READY and the speed
    probe taken just before the spawn.
    """
    probe = speed_probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, env=_env())
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - t0))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        if line.strip() != "READY":
            raise ChildError(f"worker did not become ready: {line.strip()!r}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, elapsed, probe


def _finish(proc: subprocess.Popen, deadline: float) -> dict | None:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError("worker exceeded the run budget") from None
    if proc.returncode != 0:
        raise ChildError(f"worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _import_times(deadline: float) -> dict[str, float]:
    """Median cumulative import time of kleintunnel and numpy (-X importtime)."""
    samples: dict[str, list[float]] = {"kleintunnel": [], "numpy": []}
    for _ in range(IMPORT_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kleintunnel"],
                              capture_output=True, text=True, cwd=ROOT, env=_env(),
                              timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise ChildError(f"import kleintunnel failed: {proc.stderr.strip()[-300:]}")
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(float(parts[1]) * 1e-6)
    return {"cli.import_s": statistics.median(samples["kleintunnel"]),
            "cli.numpy_import_s": statistics.median(samples["numpy"])}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(trace)]
    result: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        imports = _import_times(deadline)
        proc, _, _ = _spawn(base, deadline)
        child = _finish(proc, deadline)
        child["layers"].update(imports)
        result.update(child)
        result["metrics"] = child["layers"]
        return result
    # set-up is sampled before and after the measured process, so the
    # median spans the run instead of one moment of the host's speed
    setup, probes = [], []

    def setup_only() -> None:
        proc, elapsed, probe = _spawn(base + ["--setup-only"], deadline)
        _finish(proc, deadline)
        setup.append(elapsed)
        probes.append(probe)

    for _ in range(SETUP_SPAWNS_EACH_SIDE):
        setup_only()
    proc, elapsed, probe = _spawn(base, deadline)
    setup.append(elapsed)
    probes.append(probe)
    child = _finish(proc, deadline)
    for _ in range(SETUP_SPAWNS_EACH_SIDE):
        setup_only()
    result.update(child)
    result["setup_samples_s"] = setup
    result["setup_probe_s"] = probes
    result["raw"]["setup_s"] = statistics.median(setup)
    result["fail_frac"] = child["failed"] / child["attempted"]
    result["metrics"] = {
        "ops_per_ref_s": child["ops_per_ref_s"],
        "task_p50_ref_s": child["task_p50_ref_s"],
        "task_tail_ref_s": child["task_tail_ref_s"],
        "setup_s": statistics.median(t * REF_PROBE_S / p for t, p in zip(setup, probes)),
        "peak_rss_mb": child["peak_rss_mb"],
        "pass_frac": 1.0 - result["fail_frac"],
    }
    return result


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def judge(result: dict, baseline: dict) -> bool:
    """Correct when no more operations fail than the seed's recorded share."""
    share = result["failed"] / result["attempted"]
    correct = share <= baseline["fail_frac"][result["workload"]]
    digests = result.get("fig1_sha256")
    if digests:
        result["fig1_sha256_match_seed"] = digests == baseline["fig1_sha256"]
    result["correct"] = correct
    return correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kleintunnel benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kleintunnel", "__init__.py")):
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2

    baseline = _load_json(os.path.join(BENCH_DIR, "reference", "baseline.json"))
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metric_names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    info = machine()
    info["pinned_cpu"] = _pin_to_one_cpu()
    names = NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (ChildError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 3
        ok = judge(result, baseline)
        result["machine"] = info
        path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        prefix = f"{name}." if len(names) > 1 else ""
        for key in metric_names:
            value, unit = result["metrics"][key], units[key]
            summary["metrics"][prefix + key] = {"value": value, "unit": unit}
            print(f"{name:12s} {key:52s} {value:.6g} {unit}")
        if not args.trace:
            for key, value in result["raw"].items():
                print(f"{name:12s} {key + ' (raw wall time)':52s} {value:.6g}")
            print(f"{name:12s} {'fail_frac':52s} {result['fail_frac']:.6g} "
                  f"(baseline {baseline['fail_frac'][name]:.6g})")
            print(f"{name:12s} task tail is p{result['tail_pct']:g} of {result['tasks']} tasks "
                  f"({result['tail_samples_beyond']} beyond)")
        if "fig1_sha256_match_seed" in result:
            print(f"{name:12s} fig1 CSV SHA-256 match seed: {result['fig1_sha256_match_seed']}")
        if result["reasons"]:
            print(f"{name:12s} failures: {json.dumps(result['reasons'])}", file=sys.stderr)
        summary["correct"] &= ok
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
