"""Regenerate the stored fig1 reference outputs and their SHA-256 digests.

    python3 bench/make_reference.py

Runs the five fig1 panels exactly as the benchmark does and stores every
point (zone, nudged flag and values to 12 significant digits) in
``reference/fig1.json.gz`` and the CSV digests in
``reference/baseline.json``, keeping its recorded failure shares.  The
stored files were generated from the library as first committed; rerun
this only for a change that is meant to alter the fig1 numbers, and say
so with the change.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def _round(value: float):
    return None if math.isnan(value) else float(f"{value:.12g}")


def main() -> int:
    panels, digests = {}, {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as workdir:
        for task in workloads.build("fig1", 0).tasks:
            rows = check.read_sweep_csv(workloads.run_task(task, workdir))
            panels[task.label] = {
                "zone": rows.zone.tolist(),
                "nudged": rows.nudged.tolist(),
                "cols": {col: [_round(x) for x in rows.cols[col].tolist()]
                         for col in check.VALUE_COLUMNS},
            }
            digests[task.label] = rows.sha256
    path = os.path.join(check.REFERENCE_DIR, "fig1.json.gz")
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps({"panels": panels}, separators=(",", ":")).encode("utf-8"))
    base_path = os.path.join(check.REFERENCE_DIR, "baseline.json")
    baseline = check.load_baseline() if os.path.exists(base_path) else {
        "fail_frac": {name: 0.0 for name in workloads.NAMES}}
    baseline["fig1_sha256"] = digests
    with open(base_path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path} ({os.path.getsize(path)} bytes) and {base_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
