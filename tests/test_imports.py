"""The scalar routes and the ``sweep`` and ``figures`` commands load and run
without numpy; the array routes still return numpy arrays."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
from pathlib import Path
import besselq as b
from besselq import cli

m = b.ModelOrder(1.0)
b.q_inverse(m, 10.0)
b.q_inverse_kelvin(m, 10.0)
b.q_inverse_fg(m, 10.0)
b.creep_compliance_laplace(m, 2j)
b.creep_rate_laplace(m, 2.0)
b.kelvin(0.5, 3.0)
b.gamma_real(2.5)
b.creep_rate_time(m, 0.5)
b.creep_rate_time(m, 1e-4)
assert "numpy" not in sys.modules, "a scalar route loaded numpy"
out = Path(sys.argv[1])
assert cli.main(["sweep", "--nu", "0", "--log", "1e-2", "1e2", "--count", "5",
                 "--out", str(out / "sweep.csv")]) == 0
assert cli.main(["figures", "--nu", "1", "--out", str(out / "figures")]) == 0
assert "numpy" not in sys.modules, "sweep or figures loaded numpy"

import numpy as np

assert isinstance(b.bessel_j_zeros(2.0, 5), np.ndarray)
"""


def test_scalar_routes_do_not_load_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
