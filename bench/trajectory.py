"""Repeat the benchmark over seeds and record medians, quartiles and spreads.

    python3 bench/trajectory.py --seeds 10 --label BENCH_1
    python3 bench/trajectory.py --seeds 5 --workloads packet --no-trace

For each workload, runs ``run.py --trace 0`` once per seed and
``--trace 1`` once (first seed), then writes ``trajectory/<label>.json``
when --label is given: machine info, every run's metrics, per metric the
median, quartiles and spread (q3 - q1) / median from
``statistics.quantiles(values, n=4)``, and the traced per-layer metrics.
A spread at or above a third of the metric's bound in BENCHMARK.json is
flagged; compare two trajectory files to judge a change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py invocation: its JSON summary plus the full result file."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result, exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    summary = json.loads(lines[-1])
    summary["exit_code"] = proc.returncode
    path = os.path.join(BENCH_DIR, "out", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        detail = json.load(fh)
    for key in ("machine", "tail_pct", "tasks", "setup_samples_s", "raw", "task_p50_s_by_task",
                "fig1_sha256_match_seed", "reasons"):
        if key in detail:
            summary[key] = detail[key]
    return summary


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--label", help="write trajectory/<label>.json")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report: dict = {"seeds": seeds, "seconds": args.seconds,
                    "workloads": {}}
    steady = True
    for name in args.workloads:
        runs = []
        for seed in report["seeds"]:
            runs.append(_run(name, seed, args.seconds, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        stats = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            flagged = metric != "setup_s" and spread >= bound / 3.0
            steady &= not flagged
            stats[metric] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "unit": runs[0]["metrics"][metric]["unit"]}
            print(f"  {metric:12s} median {q2:.6g} spread {spread:.4f} "
                  f"(bound {bound}){'  <-- over a third of the bound' if flagged else ''}")
        entry = {"runs": runs, "end_to_end": stats,
                 "all_correct": all(r["correct"] for r in runs)}
        if name == "fig1":
            entry["fig1_sha256_match_seed"] = all(r["fig1_sha256_match_seed"] for r in runs)
        if not args.no_trace:
            traced = _run(name, seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][name] = entry
    if args.label:
        report["machine"] = runs[0]["machine"]
        os.makedirs(os.path.join(BENCH_DIR, "trajectory"), exist_ok=True)
        path = os.path.join(BENCH_DIR, "trajectory", f"{args.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
