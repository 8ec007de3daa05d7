"""Produce the figure datasets and sweep CSV from Python (same machinery
as the `besselq figures` / `besselq sweep` commands).

Run:  python demos/04_figure_data.py
Then: gnuplot demo_output/fig2_loglog.gp   (if gnuplot is installed)
"""

from pathlib import Path

from besselq.cli import FrequencyGrid, emit_figures, evaluate_sweep, write_sweep_csv

outdir = Path("demo_output")

# --- the four figure datasets + gnuplot scripts -------------------------------
written = emit_figures(outdir, [-0.5, 0.0, 1.0, 2.0, 5.0])
for path in written:
    print("wrote", path)

# --- a custom sweep -------------------------------------------------------------
grid = FrequencyGrid("log", 1e-4, 1e5, 181)
records = evaluate_sweep([0.0, 2.0], grid)
write_sweep_csv(records, outdir / "sweep.csv")
print(f"wrote {outdir / 'sweep.csv'} ({len(records)} rows)")

# every row comes from the one production route, with its own error estimate
worst = max(records, key=lambda r: r.est_rel_error)
print(f"routes used: {sorted({r.route for r in records})}; "
      f"largest est rel err {worst.est_rel_error:.1e} at omega={worst.omega:.3g}, nu={worst.nu:g}")
