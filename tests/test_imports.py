"""The whole package runs without numpy: every scalar route, the zeros and
the ``sweep``, ``figures`` and ``check`` commands, in a process where any
import of numpy raises."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
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
zeros = b.bessel_j_zeros(2.0, 5)
assert isinstance(zeros, tuple) and len(zeros) == 5
out = Path(sys.argv[1])
assert cli.main(["sweep", "--nu", "0", "--log", "1e-2", "1e2", "--count", "5",
                 "--out", str(out / "sweep.csv")]) == 0
assert cli.main(["figures", "--nu", "1", "--out", str(out / "figures")]) == 0
assert cli.main(["check"]) == 0
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
    assert "all checks passed" in result.stdout
