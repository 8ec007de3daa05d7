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
Each command imports only what it runs: ``figures`` its writer
(``besselq.figures``) and ``check`` the suites (``besselq.checks``), on
first use, and the command line is read from the ``COMMANDS`` table, not
by ``argparse``.  A command line the table does not allow exits 2 with the
usage on stderr; a value outside the domain, or an output that cannot be
written, exits 1 with ``error: ...``.  A reader that closes stdout early
changes neither the status nor stderr.

The grids, the sweep table (``evaluate_sweep``) and the CSV writer live
in ``besselq.tables``, which the commands share (``figures`` and
``checks`` import it, not this module).
Commands are deterministic for fixed flags: rerunning produces
byte-identical files.  No command takes a numerical tolerance: every
evaluation runs at the package's fixed targets.  No command needs numpy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .errors import BesselQError
from .tables import DEFAULT_CHECK_NUS, FrequencyGrid, SweepRecord, evaluate_sweep, write_csv

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, NoReturn, Sequence

    from .checks import CheckResult

#: Default order set for the figure datasets (overridable with --nu).
FIGURE_NUS = (-0.5, 0.0, 1.0, 2.0, 5.0)


def write_sweep_csv(records: Iterable[SweepRecord], path: Path) -> None:
    write_csv(path, SweepRecord._fields, records)


#: An option with no default: the command line must give it.
_REQUIRED = ...

#: The command line, one entry a command: its help line, its usage and its
#: options, each as (values it takes, "+" for one or more; type; default).
COMMANDS = {
    "sweep": (
        "evaluate Q^-1 over a frequency grid",
        "--nu NU [NU ...] (--linear A B | --log A B) [--count COUNT] [--out OUT]",
        {
            "--nu": ("+", float, _REQUIRED),
            "--linear": (2, float, None),
            "--log": (2, float, None),
            "--count": (1, int, 181),
            "--out": (1, Path, Path("sweep.csv")),
        },
    ),
    "figures": (
        "emit figure datasets and plot scripts",
        "[--nu NU [NU ...]] [--out OUT]",
        {"--nu": ("+", float, list(FIGURE_NUS)), "--out": (1, Path, Path("figures"))},
    ),
    "check": (
        "run cross-method verification suites",
        "[--nu NU [NU ...]]",
        {"--nu": ("+", float, list(DEFAULT_CHECK_NUS))},
    ),
}


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: besselq [-h] {" + ",".join(COMMANDS) + "} ..."
    return f"usage: besselq {command} [-h] {COMMANDS[command][1]}"


def _help(command: str | None) -> str:
    if command is None:
        lines = ["Quality factor of Bessel-type viscoelastic media", "", "commands:"]
        lines += [f"  {name:<9} {entry[0]}" for name, entry in COMMANDS.items()]
    else:
        lines = [COMMANDS[command][0], "", "NU: model orders (> -1)"]
    return _usage(command) + "\n\n" + "\n".join(lines)


def _usage_error(command: str | None, message: str) -> NoReturn:
    """Print the usage and ``message`` to stderr and exit with status 2."""
    prog = "besselq" if command is None else f"besselq {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: Sequence[str]) -> tuple[str, SimpleNamespace]:
    """The command and its options, defaults filled in, from ``argv``.

    ``-h``/``--help`` prints the help and exits 0; anything the table does
    not allow prints the usage and exits 2.  A token that starts with ``-``
    and a digit or ``.`` is a (negative) value, ``--name=value`` gives a
    first value, and an option may be shortened to a unique prefix.
    """
    if argv[:1] in (["-h"], ["--help"]):
        print(_help(None))
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        _usage_error(None, "choose a command from " + ", ".join(COMMANDS))
    command, options = argv[0], COMMANDS[argv[0]][2]
    given: dict[str, list[str]] = {}
    name = None
    for token in argv[1:]:
        if token in ("-h", "--help"):
            print(_help(command))
            raise SystemExit(0)
        if token.startswith("-") and not (token[1:2].isdigit() or token[1:2] == "."):
            prefix, equals, value = token.partition("=")
            matches = [option for option in options if option.startswith(prefix)]
            if len(matches) != 1:
                _usage_error(command, f"unrecognized option: {token}")
            name = matches[0]
            given[name] = [value] if equals else []
        elif name is None:
            _usage_error(command, f"unrecognized argument: {token}")
        else:
            given[name].append(token)
    args = SimpleNamespace()
    for name, (n, kind, default) in options.items():
        values = given.get(name)
        if values is None:
            if default is _REQUIRED:
                _usage_error(command, f"the following arguments are required: {name}")
            setattr(args, name[2:], default)
            continue
        if not values or (n != "+" and len(values) != n):
            _usage_error(command, f"argument {name}: expected {n} value(s), got {len(values)}")
        try:
            converted = [kind(value) for value in values]
        except ValueError:
            _usage_error(command, f"argument {name}: invalid {kind.__name__} value in {values}")
        setattr(args, name[2:], converted[0] if n == 1 else converted)
    return command, args


def _print_out(lines: Sequence[str]) -> bool:
    """Print ``lines`` and flush them; False, with stdout sent to the null
    device for the flush at exit, where its reader has gone (a closed pipe)."""
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def cmd_sweep(args: SimpleNamespace) -> int:
    scales = [scale for scale in ("linear", "log") if getattr(args, scale) is not None]
    if len(scales) != 1:
        _usage_error("sweep", "give exactly one of --linear A B and --log A B")
    grid = FrequencyGrid(scales[0], *getattr(args, scales[0]), args.count)
    records = evaluate_sweep(args.nu, grid)
    write_sweep_csv(records, args.out)
    _print_out([f"wrote {len(records)} rows to {args.out}"])
    return 0


def emit_figures(outdir: Path, nus: Sequence[float]) -> list[Path]:
    """``besselq.figures.emit_figures``, imported on first use, so that
    ``sweep`` and ``check`` do not load the figure writer."""
    from .figures import emit_figures

    return emit_figures(outdir, nus)


def cmd_figures(args: SimpleNamespace) -> int:
    written = emit_figures(args.out, args.nu)
    _print_out([f"wrote {path}" for path in written])
    return 0


def run_all_checks(nus: Sequence[float]) -> list[CheckResult]:
    """``besselq.checks.run_all_checks``, imported on first use, so that
    ``sweep`` and ``figures`` do not load the verification suites."""
    from .checks import run_all_checks

    return run_all_checks(nus)


def cmd_check(args: SimpleNamespace) -> int:
    results = run_all_checks(args.nu)
    failed = [r for r in results if not r.passed]
    lines = [r.summary() for r in results] + ([] if failed else ["all checks passed"])
    if _print_out(lines) and failed:
        print(f"FAILED: {failed[0].name}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    command, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        if command == "sweep":
            return cmd_sweep(args)
        if command == "figures":
            return cmd_figures(args)
        return cmd_check(args)
    except (BesselQError, OSError) as exc:  # a bad value, or an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
