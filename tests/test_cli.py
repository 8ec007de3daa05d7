"""CLI contract tests: CSV schema, determinism, exit codes, plot scripts."""

import csv
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from besselq import cli
from besselq.checks import CheckResult
from besselq.cli import FrequencyGrid, main
from besselq.errors import DomainError
from besselq.tables import MAX_GRID_COUNT

ROOT = Path(__file__).resolve().parents[1]


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def test_frequency_grid_validation():
    grid = FrequencyGrid("log", 1e-4, 1e5, 181)
    points = grid.points()
    assert len(points) == 181
    assert np.all(np.diff(points) > 0.0)
    with pytest.raises(DomainError):
        FrequencyGrid("log", 0.0, 1.0, 10)
    with pytest.raises(DomainError):
        FrequencyGrid("linear", 2.0, 1.0, 10)
    with pytest.raises(DomainError):
        FrequencyGrid("linear", 1.0, 2.0, 1)
    for count in (2.5, math.nan):
        with pytest.raises(DomainError, match="count"):
            FrequencyGrid("log", 1.0, 10.0, count)
    with pytest.raises(DomainError, match="max"):
        FrequencyGrid("log", 1.0, math.inf, 3)
    with pytest.raises(DomainError, match="min"):
        FrequencyGrid("linear", math.inf, math.inf, 3)


def test_frequency_grid_count_is_bounded():
    # points() builds the whole list, so it is never called on a grid past
    # the limit
    assert FrequencyGrid("log", 1.0, 10.0, MAX_GRID_COUNT).count == MAX_GRID_COUNT
    for count in (MAX_GRID_COUNT + 1, 10**400):
        with pytest.raises(DomainError, match="count"):
            FrequencyGrid("log", 1.0, 10.0, count)


def test_sweep_row_count_and_header(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--nu", "0", "--log", "1e-4", "1e5", "--count", "181", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == "omega,nu,q_inverse,route,est_rel_error,q_asymp_low,q_asymp_high"
    assert len(rows) == 181
    assert {r[3] for r in rows} == {"direct_ratio"}


def test_sweep_low_frequency_row_matches_asymptote(tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--nu", "0", "--log", "1e-4", "1e5", "--count", "181", "--out", str(out)])
    _, rows = read_csv(out)
    first = rows[0]
    assert math.isclose(float(first[0]), 1e-4, rel_tol=1e-12)
    q = float(first[2])
    assert abs(q - 60000.0) / 60000.0 < 0.005


def test_sweep_multiple_orders_grouped_in_grid_order(tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--nu", "0", "1", "--log", "1e-2", "1e2", "--count", "5", "--out", str(out)])
    _, rows = read_csv(out)
    assert len(rows) == 10
    nus = [float(r[1]) for r in rows]
    assert nus == [0.0] * 5 + [1.0] * 5
    omegas = [float(r[0]) for r in rows[:5]]
    assert omegas == sorted(omegas)


def test_sweep_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["sweep", "--nu", "0.5", "--linear", "0.1", "10", "--count", "40"]
    # out_a is overwritten in place: the longer file's tail must not survive
    main(["sweep", "--nu", "0", "--log", "1e-4", "1e5", "--count", "181", "--out", str(out_a)])
    main(args + ["--out", str(out_a)])
    main(args + ["--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_rejects_invalid_order(tmp_path, capsys):
    code = main(["sweep", "--nu", "-2", "--log", "0.1", "1", "--out", str(tmp_path / "x.csv")])
    assert code != 0
    assert "error" in capsys.readouterr().err


def test_sweep_reports_an_order_whose_pole_term_overflows(tmp_path, capsys):
    # 4(nu+1)(nu+2)/omega leaves the double range from nu ~ 6.7e153 at
    # omega = 1: a typed error, not "dissipativity violated: Q^-1 = nan"
    code = main(["sweep", "--nu", "1e154", "--log", "1", "10", "--count", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds the double range" in err


def test_sweep_refuses_a_huge_count_before_it_allocates(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["sweep", "--nu", "0", "--log", "1", "10", "--count", "1000000000000",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("top, count", [("1.7976931348623157e308", "2"), ("1.7e308", "3")])
def test_log_sweep_ends_on_its_bounds(top, count, tmp_path):
    # 10**log10(max) overflowed at the largest double (a bare OverflowError)
    # and overshot 1.7e308 to 1.7000000000000911e308
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--nu", "0", "--log", "1", top, "--count", count,
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == int(count)
    assert (float(rows[0][0]), float(rows[-1][0])) == (1.0, float(top))


def test_log_grid_ends_exactly_and_keeps_its_inner_points():
    # the ends are the bounds themselves; the inner points are 10**y, and
    # on a band a few ulps wide at the top of the range an inner point
    # that rounds onto log10(max) is max too, not an overflow
    for lo, hi, count in ((1e-4, 1e5, 181), (3e-7, 7.1e12, 50), (1e-300, 1.7e308, 7)):
        points = FrequencyGrid("log", lo, hi, count).points()
        exponents = np.linspace(math.log10(lo), math.log10(hi), count)
        assert (points[0], points[-1]) == (lo, hi)
        assert points[1:-1] == [10.0**y for y in exponents[1:-1]]
    top = sys.float_info.max
    points = FrequencyGrid("log", math.nextafter(top, 0.0), top, 3).points()
    assert points[0] < points[1] == points[2] == top


def test_sweep_17_significant_digits(tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--nu", "0", "--linear", "1", "2", "--count", "2", "--out", str(out)])
    _, rows = read_csv(out)
    mantissa = rows[0][0].split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 17
    assert "," not in mantissa  # locale independence: decimal point only


def test_figures_outputs_and_determinism(tmp_path):
    out_a = tmp_path / "figs_a"
    out_b = tmp_path / "figs_b"
    for out in (out_a, out_a, out_b):  # a rerun into out_a, a fresh run into out_b
        assert main(["figures", "--out", str(out), "--nu", "0", "1"]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == [
        "fig1_linear.csv",
        "fig1_linear.gp",
        "fig2_loglog.csv",
        "fig2_loglog.gp",
        "fig3_high_asymptote.csv",
        "fig3_high_asymptote.gp",
        "fig4_low_asymptote.csv",
        "fig4_low_asymptote.gp",
    ]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # plot scripts reference their CSV by relative path
    for tag in ("fig1_linear", "fig2_loglog", "fig3_high_asymptote", "fig4_low_asymptote"):
        script = (out_a / f"{tag}.gp").read_text()
        assert f"'{tag}.csv'" in script


def test_loglog_figure_is_a_sweep_on_its_grid(tmp_path):
    # one Q^-1 evaluator: at the default orders the log-log figure's omega
    # and q_nu_0 columns are, digit for digit, the omega and q_inverse
    # columns of a sweep on its grid
    figures, sweep = tmp_path / "figs", tmp_path / "sweep.csv"
    assert main(["figures", "--out", str(figures)]) == 0
    assert main(["sweep", "--nu", "0", "--log", "1e-4", "1e5", "--count", "181",
                 "--out", str(sweep)]) == 0
    tables = []
    for path in (figures / "fig2_loglog.csv", sweep):
        with open(path, newline="") as stream:
            tables.append([(row[0], row[2]) for row in csv.reader(stream)])
    figure, swept = tables
    assert figure[0] == ("omega", "q_nu_0") and swept[0] == ("omega", "q_inverse")
    assert len(figure) == 182 and figure[1:] == swept[1:]


def test_figures_monotone_and_asymptote_direction(tmp_path):
    out = tmp_path / "figs"
    main(["figures", "--out", str(out), "--nu", "0", "1"])
    for tag in ("fig1_linear", "fig2_loglog"):
        header, rows = read_csv(out / f"{tag}.csv")
        data = np.array([[float(v) for v in r] for r in rows])
        for col in range(1, data.shape[1]):
            assert np.all(np.diff(data[:, col]) < 0.0), f"{tag} column {col}"
    # fig3: relative gap to the high-frequency asymptote shrinks with omega
    _, rows = read_csv(out / "fig3_high_asymptote.csv")
    data = np.array([[float(v) for v in r] for r in rows])
    gap = np.abs(data[:, 1] / data[:, 2] - 1.0)
    assert gap[-1] < gap[0]
    assert gap[-1] < 0.01
    # fig4: gap to the low-frequency asymptote shrinks as omega -> 0
    _, rows = read_csv(out / "fig4_low_asymptote.csv")
    data = np.array([[float(v) for v in r] for r in rows])
    gap = np.abs(data[:, 1] / data[:, 2] - 1.0)
    assert gap[0] < gap[-1]
    assert gap[0] < 1e-6


def test_check_green_path(capsys):
    assert main(["check", "--nu", "0", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS route agreement" in out
    assert "all checks passed" in out


def test_check_exits_nonzero_on_failed_check(monkeypatch, capsys):
    failing = CheckResult("route agreement", 1.0, 1e-9, False, "injected")
    monkeypatch.setattr(cli, "run_all_checks", lambda nus: [failing])
    assert main(["check", "--nu", "0"]) == 1
    captured = capsys.readouterr()
    assert "FAIL route agreement" in captured.out
    assert "FAILED: route agreement" in captured.err


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv, status", [([], 0), (["--nu", "50"], 1)], ids=["pass", "fail"])
def test_check_into_a_closed_pipe(argv, status, buffered):
    # a reader that has gone (besselq check | true) once made `check` print
    # "error: [Errno 32] Broken pipe" and exit 1; the status is the checks'
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        [sys.executable, "-m", "besselq.cli", "check", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as process:
        process.stdout.close()
        _, stderr = process.communicate(timeout=60)
    assert process.returncode == status
    assert stderr == b""


def test_new_output_has_write_text_permissions(tmp_path):
    old = os.umask(0o027)
    try:
        reference = tmp_path / "reference.csv"
        reference.write_text("x\n")
        out = tmp_path / "sweep.csv"
        main(["sweep", "--nu", "0", "--linear", "1", "2", "--count", "2", "--out", str(out)])
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


# --------------------------------------------------- command-line contract


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["sweep", "--help"], ["figures", "-h"], ["check", "--help"]]
)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["sweep", "--log", "1", "10"],
        ["sweep", "--nu", "0"],
        ["sweep", "--nu", "0", "--linear", "1", "2", "--log", "1", "2"],
        ["sweep", "--nu", "0", "--log", "1", "10", "--bogus"],
        ["sweep", "--nu", "0", "--log", "1"],
        ["sweep", "--nu", "zero", "--log", "1", "10"],
        ["sweep", "--nu", "0", "--log", "1", "10", "--count", "2.5"],
        ["sweep", "--nu", "0", "--log", "1", "10", "extra"],
        ["check", "--nu"],
        ["sweep", "0.5", "--nu", "0", "--log", "1", "10"],  # a value before any option
        ["sweep", "--nu", "0", "--log", "1", "10", "--co", "5"],  # options are spelled in full
        ["sweep", "--nu=0", "--log", "1", "10"],  # and their values are tokens of their own
    ],
)
def test_bad_invocation_exits_2_with_usage(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path / "x.csv")] if argv[:1] == ["sweep"] else argv)
    assert exit_info.value.code == 2
    assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_negative_values_parse(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--nu", "-0.5", "0", "--log", "1", "10", "--count", "2", "--out", str(out)]
    assert main(argv) == 0
    _, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == [-0.5, -0.5, 0.0, 0.0]


def test_command_defaults(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "emit_figures", lambda outdir, nus: calls.append((outdir, nus)) or [])
    monkeypatch.setattr(cli, "run_all_checks", lambda nus: calls.append(nus) or [])
    monkeypatch.chdir(tmp_path)
    assert main(["figures"]) == 0
    assert main(["check"]) == 0
    assert main(["sweep", "--nu", "0", "--log", "1", "10"]) == 0
    assert [(str(calls[0][0]), list(calls[0][1])), list(calls[1])] == [
        ("figures", [-0.5, 0.0, 1.0, 2.0, 5.0]),
        [-0.5, 0.0, 1.0, 3.5, 10.0],
    ]
    assert len(read_csv(tmp_path / "sweep.csv")[1]) == 181


def test_sweep_rejects_infinite_bound(tmp_path, capsys):
    code = main(["sweep", "--nu", "0", "--log", "1", "inf", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "max" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "figures"])
def test_output_errors_are_reported(command, tmp_path, capsys):
    if command == "sweep":
        argv = ["sweep", "--nu", "0", "--log", "1", "10", "--count", "2",
                "--out", str(tmp_path / "missing" / "x.csv")]
    else:
        (tmp_path / "taken").write_text("a file\n")
        argv = ["figures", "--nu", "0", "--out", str(tmp_path / "taken")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
