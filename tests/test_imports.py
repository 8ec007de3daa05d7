"""The whole package runs without numpy: every scalar route, the zeros and
the ``sweep``, ``figures`` and ``check`` commands, in a process where any
import of numpy raises.  ``import besselq`` and its two production calls
load neither ``dataclasses``, ``typing``, the special functions of the
verification routes, the checks nor the CLI, and ``besselq sweep`` loads
neither ``argparse`` nor the figure writer, the checks or their special
functions.  Neither the figure writer nor the checks import the CLI, so
``python -m besselq.cli figures`` and ``check`` compile it once.  Neither
production path takes a sine, cosine or tangent, whose first use faults in
libm's trigonometry pages."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from besselq import ModelOrder, creep_rate_time, q_inverse

ROOT = Path(__file__).resolve().parents[1]
TRIGONOMETRY = {math: ("sin", "cos", "tan"), cmath: ("exp", "rect", "sin", "cos", "tan")}


class TrigonometryTaken(Exception):
    pass


@pytest.fixture
def no_trigonometry(monkeypatch):
    for module, names in TRIGONOMETRY.items():
        for name in names:
            def raiser(*args, name=f"{module.__name__}.{name}"):
                raise TrigonometryTaken(name)
            monkeypatch.setattr(module, name, raiser)


@pytest.mark.parametrize("nu", [-0.99, 0.0, 1.0, 2.5, 5.0, 20.0, 200.0])
def test_creep_rate_time_takes_no_trigonometric_call(no_trigonometry, nu):
    # from t = 0.0077 to 0.0432 some Talbot nodes lie at |z| from 28 to 67,
    # where the ratio once took the reflected branch
    times = [10.0 ** (-4.0 + 5.0 * k / 59) for k in range(60)] + [0.01, 0.02, 0.04]
    for t in times:
        creep_rate_time(ModelOrder(nu), t)


@pytest.mark.parametrize("nu", [-0.99, 0.0, 5.0, 300.0])
def test_q_inverse_takes_no_trigonometric_call(no_trigonometry, nu):
    for k in range(-12, 601, 3):  # omega from 1e-6 to 1e300
        q_inverse(ModelOrder(nu), 10.0 ** (k / 2))


def test_scalar_routes_do_not_load_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "no_numpy_smoke.py"), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "all checks passed" in result.stdout


CLOSURE_SCRIPT = """
import sys
import besselq

m = besselq.ModelOrder(1.0)
besselq.q_inverse(m, 10.0)
besselq.creep_rate_time(m, 0.5)
loaded = [name for name in ("dataclasses", "typing", "inspect", "besselq.specfun.zeros",
                            "besselq.specfun.kelvinfg", "besselq.specfun.series",
                            "besselq.checks", "besselq.cli")
          if name in sys.modules]
assert not loaded, loaded

for name in besselq.__all__:
    getattr(besselq, name)
from besselq import bessel_j_zeros
from besselq.specfun import bessel_j_zero
assert bessel_j_zeros is besselq.bessel_j_zeros
assert "besselq.specfun.zeros" in sys.modules
assert set(besselq.__all__) <= set(dir(besselq))
assert set(besselq.specfun.__all__) <= set(dir(besselq.specfun))
for module in (besselq, besselq.specfun):
    try:
        module.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError(f"{module.__name__}.no_such_name did not raise")
"""


def test_import_loads_only_the_production_path():
    # -S: no site, so nothing the installation's site hooks pre-load hides
    # what besselq itself imports
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-S", "-c", CLOSURE_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_sweep_loads_only_what_it_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["sweep", "--nu", "0", "--log", "1", "10", "--count", "2", "--out",
            str(tmp_path / "sweep.csv")]
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "besselq.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    # each line of -X importtime ends in "| <module>", indented by depth
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    assert "besselq.qfactor" in imported
    unwanted = {"argparse", "gettext", "locale", "besselq.figures", "besselq.checks",
                "besselq.specfun.kelvinfg", "besselq.specfun.zeros"}
    assert not imported & unwanted, sorted(imported & unwanted)


@pytest.mark.parametrize("argv", [["figures", "--nu", "1"], ["check", "--nu", "1"]],
                         ids=lambda argv: argv[0])
def test_commands_compile_the_cli_once(tmp_path, argv):
    # run as -m besselq.cli, the CLI is __main__: a module that imported
    # besselq.cli would compile and run it a second time
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "besselq.cli", *argv],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    assert "besselq.cli" not in imported
    assert "besselq.tables" in imported


@pytest.mark.parametrize("module", ["besselq.figures", "besselq.checks"])
def test_command_modules_do_not_import_the_cli(module):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = f"import sys, {module}; assert 'besselq.cli' not in sys.modules"
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
