"""Command-line interface: frequency sweeps, figure datasets, verification.

Subcommands
-----------
``sweep``    Evaluate Q^-1 over a frequency grid for one or more orders and
             write a CSV (one row per grid point per order).
``figures``  Emit the four standard datasets (linear overview, log-log
             overview, high-frequency asymptote comparison, low-frequency
             asymptote comparison) plus gnuplot scripts that reference each
             CSV by relative path.
``check``    Run the cross-method verification suites and exit nonzero on
             the first violated bound.

``sweep`` and ``figures`` evaluate ``q_inverse``, the single production
route; ``check`` compares it with the f/g and Kelvin verification routes.

All numeric CSV fields use 17-significant-digit scientific notation with a
decimal point (locale independent), and commands are deterministic for
fixed flags: rerunning produces byte-identical files.  No command takes a
numerical tolerance: every evaluation runs at the package's fixed targets.
Outputs are overwritten in place and then cut to length (``_write_ascii``),
so an interrupted write can leave old and new bytes mixed; a rerun repairs
it.  No command needs numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple
from pathlib import Path

from .errors import BesselQError, DomainError
from .model import ModelOrder
from .qfactor import QEvaluation, q_inverse, q_inverse_asymptotic

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Sequence

    from .checks import CheckResult

SWEEP_HEADER = "omega,nu,q_inverse,route,est_rel_error,q_asymp_low,q_asymp_high"

#: Default order set for the figure datasets (overridable with --nu).
FIGURE_NUS = (-0.5, 0.0, 1.0, 2.0, 5.0)
#: Orders shown in the two asymptote-comparison panels.
ASYMPTOTE_PANEL_NUS = (0.0, 2.0)


class FrequencyGrid(namedtuple("FrequencyGrid", "scale min max count")):
    """Linear or logarithmic frequency sweep specification: ``scale`` is
    'linear' or 'log'."""

    __slots__ = ()

    def __new__(cls, scale: str, min: float, max: float, count: int) -> FrequencyGrid:
        if scale not in ("linear", "log"):
            raise DomainError(f"scale must be 'linear' or 'log', got {scale!r}")
        if not (min > 0.0 and max > min):
            raise DomainError(f"need 0 < min < max, got min={min}, max={max}")
        if count < 2:
            raise DomainError(f"count must be >= 2, got {count}")
        return super().__new__(cls, scale, min, max, count)

    # ``_replace`` builds through ``_make``: check there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def points(self) -> list[float]:
        """The grid, by the arithmetic of ``np.linspace`` / ``np.logspace``."""
        if self.scale == "linear":
            return _linspace(self.min, self.max, self.count)
        exponents = _linspace(math.log10(self.min), math.log10(self.max), self.count)
        return [10.0**y for y in exponents]


def _linspace(start: float, stop: float, count: int) -> list[float]:
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


class SweepRecord(
    namedtuple(
        "SweepRecord",
        "omega nu q_inverse route est_rel_error q_asymp_low q_asymp_high",
    )
):
    """One CSV row of a frequency sweep."""

    __slots__ = ()

    def as_csv(self) -> str:
        return ",".join(
            [
                _fmt(self.omega),
                _fmt(self.nu),
                _fmt(self.q_inverse),
                self.route,
                _fmt(self.est_rel_error),
                _fmt(self.q_asymp_low),
                _fmt(self.q_asymp_high),
            ]
        )


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise BesselQError(f"non-finite value reached the CSV writer: {value}")
    return format(value, ".16e")


def evaluate_sweep(nus: Sequence[float], grid: FrequencyGrid) -> list[SweepRecord]:
    records: list[SweepRecord] = []
    for nu in nus:
        model = ModelOrder(nu)
        for omega in grid.points():
            ev: QEvaluation = q_inverse(model, omega)
            records.append(
                SweepRecord(
                    omega=ev.omega,
                    nu=nu,
                    q_inverse=ev.q_inverse,
                    route=ev.route,
                    est_rel_error=ev.est_rel_error,
                    q_asymp_low=q_inverse_asymptotic(model, ev.omega, "low"),
                    q_asymp_high=q_inverse_asymptotic(model, ev.omega, "high"),
                )
            )
    return records


def _write_ascii(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as ASCII, overwriting in place: no
    ``O_TRUNC`` on open, a truncate to the new length after the write.
    Truncating a recently written file to zero makes the opener wait on
    writeback (ext4); an overwrite in place does not."""
    data = text.encode("ascii")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        fh.truncate()


def write_sweep_csv(records: Iterable[SweepRecord], path: Path) -> None:
    lines = [SWEEP_HEADER] + [r.as_csv() for r in records]
    _write_ascii(path, "\n".join(lines) + "\n")


def _write_table(
    path: Path, header: Sequence[str], columns: Sequence[Sequence[float]]
) -> None:
    rows = [",".join(header)]
    for row in zip(*columns):
        rows.append(",".join(_fmt(value) for value in row))
    _write_ascii(path, "\n".join(rows) + "\n")


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
        _write_table(csv, header, cols)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselq",
        description="Quality factor of Bessel-type viscoelastic media",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate Q^-1 over a frequency grid")
    p_sweep.add_argument("--nu", type=float, nargs="+", required=True, help="model orders (> -1)")
    scale = p_sweep.add_mutually_exclusive_group(required=True)
    scale.add_argument("--linear", type=float, nargs=2, metavar=("A", "B"))
    scale.add_argument("--log", type=float, nargs=2, metavar=("A", "B"))
    p_sweep.add_argument("--count", type=int, default=181)
    p_sweep.add_argument("--out", type=Path, default=Path("sweep.csv"))

    p_fig = sub.add_parser("figures", help="emit figure datasets and plot scripts")
    p_fig.add_argument("--nu", type=float, nargs="+", default=list(FIGURE_NUS))
    p_fig.add_argument("--out", type=Path, default=Path("figures"))

    p_check = sub.add_parser("check", help="run cross-method verification suites")
    p_check.add_argument(
        "--nu", type=float, nargs="+", default=[-0.5, 0.0, 1.0, 3.5, 10.0]
    )
    return parser


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.linear is not None:
        grid = FrequencyGrid("linear", args.linear[0], args.linear[1], args.count)
    else:
        grid = FrequencyGrid("log", args.log[0], args.log[1], args.count)
    records = evaluate_sweep(args.nu, grid)
    write_sweep_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    written = emit_figures(args.out, args.nu)
    for path in written:
        print(f"wrote {path}")
    return 0


def run_all_checks(nus: Sequence[float]) -> list[CheckResult]:
    """``besselq.checks.run_all_checks``, imported on first use, so that
    ``sweep`` and ``figures`` do not load the verification suites."""
    from .checks import run_all_checks

    return run_all_checks(nus)


def cmd_check(args: argparse.Namespace) -> int:
    results = run_all_checks(args.nu)
    for result in results:
        print(result.summary())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"FAILED: {failed[0].name}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "figures":
            return cmd_figures(args)
        return cmd_check(args)
    except BesselQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
