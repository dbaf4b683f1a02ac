"""Produce the standard transmission / phase-time datasets.

Writes the five CSV files (v = 0, 1, 2, 5, 10 at wL = 2*pi, 2000 linear
n2 points each) into demos/output/ and sketches the v = 10 pair of
curves as ASCII; if matplotlib is importable the same data is rendered
to PNG.  Every file comes from the same closed forms; at v = 0 they are
the Schroedinger barrier.  Columns:

    n2, E_over_m, zone, T2_exact, T2_nr_form, phase_rad,
    ratio_closed, ratio_numeric, nudged
"""

import os

from kleintunnel import fig1_preset, read_csv

out_dir = os.path.join(os.path.dirname(__file__), "output")
paths = fig1_preset(out_dir)
for path in paths:
    print("wrote", path)
print()

records = read_csv(paths[-1])  # v = 10
print("v = 10 transmission probability over n2 (| marks the zone edges):")
step = len(records) // 60
for i in range(0, len(records), step):
    rec = records[i]
    if rec.t2_exact is None:
        continue
    bar = "#" * int(46 * rec.t2_exact)
    edge = " |" if rec.zone in ("EdgeLower", "EdgeUpper") else ""
    print(f"  n2={rec.n2:5.2f} {rec.zone[:4]:>4} {bar}{edge}")

print()
print("phase-time ratio in the tunneling zone (negative near the lower edge):")
tz = [r for r in records if r.zone == "Tunneling" and r.ratio_closed is not None]
for rec in tz[:: max(1, len(tz) // 12)]:
    offset = int(30 + 120 * rec.ratio_closed)
    line = [" "] * 62
    line[30] = "."
    if 0 <= offset < 62:
        line[offset] = "*"
    print(f"  n2={rec.n2:5.3f} {rec.ratio_closed:+0.4f} {''.join(line)}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(8, 8), sharex=True)
    for path in paths:
        recs = read_csv(path)
        label = os.path.basename(path).split(".")[0].replace("fig1_", "")
        ax1.plot([r.n2 for r in recs], [r.t2_exact for r in recs], lw=1, label=label)
        ax2.plot([r.n2 for r in recs],
                 [r.ratio_closed if r.ratio_closed is not None else float("nan")
                  for r in recs], lw=1, label=label)
    ax1.set_ylabel("T^2")
    ax2.set_ylabel("t_phi / tau")
    ax2.set_xlabel("n2 = k^2 / w^2")
    ax2.set_ylim(-1.0, 3.0)
    for ax in (ax1, ax2):
        ax.legend(fontsize=8)
        ax.grid(alpha=0.3)
    png = os.path.join(out_dir, "sweeps.png")
    fig.savefig(png, dpi=120)
    print(f"\nrendered {png}")
except ImportError:
    print("\n(matplotlib not available; skipped PNG rendering)")
