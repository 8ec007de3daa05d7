"""The four standard figure datasets of ``besselq figures``: CSV tables and
the gnuplot scripts that plot them.

``cli.emit_figures`` imports this module on first use, so of the commands
only ``figures`` loads it.  Its tables go through ``tables.write_csv``, the
writer of a sweep CSV, and its scripts through the same in-place writer.
"""

from __future__ import annotations

from .model import ModelOrder
from .qfactor import q_inverse, q_inverse_asymptotic
from .tables import FrequencyGrid, _write_ascii, write_csv

TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path
    from typing import Sequence

#: Orders shown in the two asymptote-comparison panels.
ASYMPTOTE_PANEL_NUS = (0.0, 2.0)


def _gnuplot_script(
    csv_name: str,
    png_name: str,
    title: str,
    logscale: bool,
    series: Sequence[tuple[int, str, str]],
) -> str:
    lines = [
        "# gnuplot script (plain text); run:  gnuplot " + png_name.replace(".png", ".gp"),
        "set datafile separator ','",
        "set terminal pngcairo size 960,640",
        f"set output '{png_name}'",
        f"set title '{title}'",
        "set xlabel 'omega'",
        "set ylabel 'Q^{-1}'",
        "set key top right",
    ]
    if logscale:
        lines.append("set logscale xy")
    plots = [
        f"'{csv_name}' every ::1 using 1:{col} with lines {style} title '{label}'"
        for col, label, style in series
    ]
    lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    return "\n".join(lines) + "\n"


def emit_figures(outdir: Path, nus: Sequence[float]) -> list[Path]:
    """Write the four figure datasets and their gnuplot scripts."""
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def q_column(nu: float, omegas: list[float]) -> list[float]:
        model = ModelOrder(nu)
        return [q_inverse(model, w).q_inverse for w in omegas]

    def emit(tag: str, header: Sequence[str], cols: Sequence[Sequence[float]],
             title: str, logscale: bool, series: Sequence[tuple[int, str, str]]) -> None:
        csv, gp = outdir / f"{tag}.csv", outdir / f"{tag}.gp"
        write_csv(csv, header, zip(*cols))
        _write_ascii(gp, _gnuplot_script(csv.name, f"{tag}.png", title, logscale, series))
        written.extend((csv, gp))

    # figure 1: linear-scale overview; the steep low-frequency rise needs a
    # window starting well below omega ~ 1
    omegas = FrequencyGrid("linear", 0.05, 20.0, 400).points()
    header = ["omega"] + [f"q_nu_{nu:g}" for nu in nus]
    series = [(i + 2, f"nu={nu:g}", "lw 2") for i, nu in enumerate(nus)]
    cols = [omegas] + [q_column(nu, omegas) for nu in nus]
    emit("fig1_linear", header, cols, "Q^{-1}(omega), linear scale", False, series)

    # figure 2: log-log overview across nine decades
    omegas = FrequencyGrid("log", 1e-4, 1e5, 181).points()
    cols = [omegas] + [q_column(nu, omegas) for nu in nus]
    emit("fig2_loglog", header, cols, "Q^{-1}(omega), log-log", True, series)

    # figures 3 and 4: full curve against each asymptote, two orders per panel
    for tag, regime, grid in (
        ("fig3_high_asymptote", "high", FrequencyGrid("log", 10.0, 1e6, 121)),
        ("fig4_low_asymptote", "low", FrequencyGrid("log", 1e-4, 10.0, 121)),
    ):
        omegas = grid.points()
        header34 = ["omega"]
        cols34: list[list[float]] = [omegas]
        series34 = []
        col = 2
        for nu in ASYMPTOTE_PANEL_NUS:
            model = ModelOrder(nu)
            header34 += [f"q_nu_{nu:g}", f"asymp_nu_{nu:g}"]
            cols34.append(q_column(nu, omegas))
            cols34.append([q_inverse_asymptotic(model, w, regime) for w in omegas])
            series34.append((col, f"nu={nu:g}", "lw 2"))
            series34.append((col + 1, f"nu={nu:g} asymptote", "dashtype 2"))
            col += 2
        direction = "omega -> inf" if regime == "high" else "omega -> 0"
        emit(tag, header34, cols34, f"Q^{{-1}} vs asymptote ({direction})", True, series34)
    return written
