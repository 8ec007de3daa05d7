"""Regenerate the frozen reference tables in ``refs/`` from the workload seed.

    python3 perfbench/make_refs.py [sweep] [highfreq] [creep] [cli]

No reference value comes from besselq.  Q^-1 comes from the naive
extended-precision oracle in ``tests/oracle.py`` up to omega = 1e6, and from
``mpmath.besseli`` above that (evaluated at two precisions that must agree).
The rate of creep is the Dirichlet series summed in mpmath over zeros from
``mpmath.besseljzero``, the oracle's own method, with enough zeros that the
dropped tail is below e^-60; where few zeros are needed the sum is
cross-checked against ``oracle.creep_rate_time``.  Needs mpmath; takes a few
minutes on one core.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

#: Highest omega at which the naive-series oracle is used.
ORACLE_MAX_OMEGA = 1e6


def q_ref(nu: float, omega: float) -> tuple[float, str]:
    if omega <= ORACLE_MAX_OMEGA:
        # The oracle's Laplace-ratio path loses log10(1/omega) digits to the
        # real part at small omega, and its self-check asks for half the
        # working digits, so small omega needs twice that many extra digits.
        lost = max(0, math.ceil(-math.log10(omega)))
        dps = 50 + int(0.5 * math.sqrt(omega)) + 2 * lost
        return float(oracle.q_inverse(nu, omega, dps)), "oracle"
    values = []
    for dps in (40, 60):
        with mp.workdps(dps):
            z = mp.sqrt(mp.mpc(0, omega))
            s_j = mp.besseli(nu, z) / mp.besseli(nu + 2, z)
            values.append(-s_j.imag / s_j.real)
    if abs(values[0] - values[1]) > mp.mpf(10) ** -20 * abs(values[1]):
        raise RuntimeError(f"besseli reference unstable at nu={nu}, omega={omega}")
    return float(values[1]), "besseli"


_ZEROS: dict[float, list] = {}


def creep_ref(nu: float, t: float) -> tuple[float, str]:
    order = nu + 2.0
    zeros = _ZEROS.setdefault(order, [])
    with mp.workdps(40):
        t_mp = mp.mpf(t)
        acc = mp.mpf(0)
        k = 0
        while True:
            if k == len(zeros):
                zeros.append(mp.besseljzero(mp.mpf(order), k + 1))
            j = zeros[k]
            k += 1
            acc += mp.exp(-j * j * t_mp)
            if j * j * t_mp > 60:
                break
        value = 4 * (nu + 1) * (nu + 2) + 4 * (nu + 1) * acc
        if k <= 8:
            check = oracle.creep_rate_time(nu, t, n_zeros=k, dps=40)
            if abs(check - value) > mp.mpf(10) ** -30 * abs(value):
                raise RuntimeError(f"creep reference disagrees with oracle at nu={nu}, t={t}")
    return float(value), "dirichlet"


def scalar_table(workload: str) -> dict:
    ref = creep_ref if workload == "creep" else q_ref
    points = []
    for cell in workloads.CELLS[workload]():
        for nu, x in workloads.draw_pool(cell):
            value, src = ref(nu, x)
            points.append({"cell": cell.key, "nu": nu, "x": x, "ref": value, "src": src})
    return {"workload": workload, "table_seed": workloads.TABLE_SEED, "points": points}


def cli_grid() -> list[tuple[float, float]]:
    """Every (nu, omega) the cli round writes: the sweep and the figures."""
    import numpy as np

    figure_nus = (-0.5, 0.0, 1.0, 2.0, 5.0)
    pairs = [(nu, w) for nu in (0.0, 1.0) for w in np.logspace(-4.0, 5.0, 181)]
    pairs += [(nu, w) for nu in figure_nus for w in np.linspace(0.05, 20.0, 400)]
    pairs += [(nu, w) for nu in figure_nus for w in np.logspace(-4.0, 5.0, 181)]
    pairs += [(nu, w) for nu in (0.0, 2.0) for w in np.logspace(1.0, 6.0, 121)]
    pairs += [(nu, w) for nu in (0.0, 2.0) for w in np.logspace(-4.0, 1.0, 121)]
    seen = {}
    for nu, w in pairs:
        seen.setdefault(workloads.cli_key(nu, float(w)), (nu, float(w)))
    return list(seen.values())


def cli_table() -> dict:
    points = []
    for nu, w in cli_grid():
        value, src = q_ref(nu, w)
        points.append({"nu": nu, "x": w, "ref": value, "src": src})
    return {"workload": "cli", "points": points}


def write_table(name: str, table: dict) -> None:
    rows = ",\n".join(json.dumps(p) for p in table.pop("points"))
    head = json.dumps(table)[:-1]
    path = workloads.REFS_DIR / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(f'{head}, "points": [\n{rows}\n]}}\n', encoding="ascii")


def main(names: list[str]) -> None:
    for name in names or ["sweep", "highfreq", "creep", "cli"]:
        start = time.perf_counter()
        table = cli_table() if name == "cli" else scalar_table(name)
        count = len(table["points"])
        write_table(name, table)
        print(f"{name}: {count} points in {time.perf_counter() - start:.1f} s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
