"""The four standard figure datasets of ``besselq figures``: CSV tables and
the gnuplot scripts that plot them.

Each dataset holds rows of ``tables.evaluate_sweep``, one column an order:
this module evaluates nothing itself.  ``cli.emit_figures`` imports it on
first use, so of the commands only ``figures`` loads it.  Its tables and
scripts go through the writers of a sweep CSV (``tables``).
"""

from __future__ import annotations

from .tables import FrequencyGrid, _write_ascii, evaluate_sweep, write_csv

TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path
    from typing import Sequence

#: Orders shown in the two asymptote-comparison panels.
ASYMPTOTE_PANEL_NUS = (0.0, 2.0)

#: The four datasets: file stem, grid, the asymptote set beside each curve
#: (None: the curves alone, at the orders given) and title.  The linear
#: overview starts well below omega ~ 1 to show the steep low-frequency rise.
FIGURES = (
    ("fig1_linear", FrequencyGrid("linear", 0.05, 20.0, 400), None,
     "Q^{-1}(omega), linear scale"),
    ("fig2_loglog", FrequencyGrid("log", 1e-4, 1e5, 181), None, "Q^{-1}(omega), log-log"),
    ("fig3_high_asymptote", FrequencyGrid("log", 10.0, 1e6, 121), "high",
     "Q^{-1} vs asymptote (omega -> inf)"),
    ("fig4_low_asymptote", FrequencyGrid("log", 1e-4, 10.0, 121), "low",
     "Q^{-1} vs asymptote (omega -> 0)"),
)


def _gnuplot_script(tag: str, title: str, logscale: bool,
                    series: Sequence[tuple[int, str, str]]) -> str:
    """Plots ``series``, each (column, label, style), of ``{tag}.csv``."""
    lines = [
        f"# gnuplot script (plain text); run:  gnuplot {tag}.gp",
        "set datafile separator ','",
        "set terminal pngcairo size 960,640",
        f"set output '{tag}.png'",
        f"set title '{title}'",
        "set xlabel 'omega'",
        "set ylabel 'Q^{-1}'",
        "set key top right",
    ]
    if logscale:
        lines.append("set logscale xy")
    plots = [
        f"'{tag}.csv' every ::1 using 1:{col} with lines {style} title '{label}'"
        for col, label, style in series
    ]
    lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    return "\n".join(lines) + "\n"


def emit_figures(outdir: Path, nus: Sequence[float]) -> list[Path]:
    """Write the four figure datasets and their gnuplot scripts: the rows of
    ``evaluate_sweep`` at ``nus``, or at ``ASYMPTOTE_PANEL_NUS`` each beside
    its asymptote, one column an order."""
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for tag, grid, regime, title in FIGURES:
        header, cols, series = ["omega"], [grid.points()], []
        for nu in nus if regime is None else ASYMPTOTE_PANEL_NUS:
            rows = evaluate_sweep((nu,), grid)
            header.append(f"q_nu_{nu:g}")
            cols.append([r.q_inverse for r in rows])
            series.append((len(header), f"nu={nu:g}", "lw 2"))
            if regime is not None:
                header.append(f"asymp_nu_{nu:g}")
                cols.append([getattr(r, "q_asymp_" + regime) for r in rows])
                series.append((len(header), f"nu={nu:g} asymptote", "dashtype 2"))
        csv, gp = outdir / f"{tag}.csv", outdir / f"{tag}.gp"
        write_csv(csv, header, zip(*cols))
        _write_ascii(gp, _gnuplot_script(tag, title, grid.scale == "log", series))
        written += [csv, gp]
    return written
