"""Workload definitions: stratified input pools and their seeded sampling.

Each scalar workload is a list of cells.  A cell is one stratum of the input
space (a model order, or a band of orders, times one band of log10 omega or
log10 t).  The frozen reference tables hold ``pool`` points per cell, drawn
once from ``TABLE_SEED`` by ``make_refs.py``; a run draws ``take`` of them per
cell from its own ``--seed``.  Stratifying keeps the mix of cheap and costly
points the same in every run, so run-to-run spread comes from the machine and
not from the draw, while each seed still sees different inputs.

Edge cells hold the inputs on which the package is known to fail or to be
wrong (the advertised domain edges).  They are not part of the timed working
set, whose every op must succeed: a run evaluates its edge set once, untimed,
and reports how it fares apart from the timed ops.

This module imports nothing from besselq.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: Workload seed of the frozen reference tables.
TABLE_SEED = 20221219

REFS_DIR = Path(__file__).resolve().parent / "refs"

SWEEP_MAIN_NUS = (-0.5, 0.0, 1.0, 2.0, 5.0)
SWEEP_EDGE_NUS = (-0.99, -0.9, 50.0, 169.0, 300.0)
CREEP_MAJOR_NUS = (0.0, 1.0, 2.5, 5.0)
CREEP_MINOR_NUS = (20.0, 50.0, 100.0, 200.0)

#: The cli workload: one round runs these subcommands in this order.
CLI_SWEEP_ARGS = ("sweep", "--nu", "0", "1", "--log", "1e-4", "1e5", "--count", "181")
CLI_COMMANDS = ("sweep", "figures", "check")


@dataclass(frozen=True)
class Cell:
    """One stratum: ``nu`` (or ``log10(nu+1)``) and ``log10 x`` ranges."""

    key: str
    nu_lo: float
    nu_hi: float
    x_lo: float
    x_hi: float
    pool: int
    take: int
    nu_log: bool = False  # draw log10(nu + 1) uniformly in [nu_lo, nu_hi]
    edge: bool = False  # in the untimed edge set, not the timed working set

    def draw(self, rng: random.Random) -> tuple[float, float]:
        if self.nu_log:
            nu = 10.0 ** rng.uniform(self.nu_lo, self.nu_hi) - 1.0
        else:
            nu = self.nu_lo
        return nu, 10.0 ** rng.uniform(self.x_lo, self.x_hi)


def _fixed(key: str, nu: float, x_lo: float, x_hi: float, pool: int, take: int,
           edge: bool = False) -> Cell:
    return Cell(key, nu, nu, x_lo, x_hi, pool, take, edge=edge)


def sweep_cells() -> list[Cell]:
    # timed: the figure orders over [1e-4, 1e5] in tenth-decades, one point
    # of two each, so every seed's slowest points (the p99) lie in the same
    # narrow cells; edge: the advertised domain edges over [1e-200, 1e4]
    # (4 bins of 51 decades)
    cells = [
        _fixed(f"main/nu={nu:g}/log_w={d / 10:g}", nu, d / 10, (d + 1) / 10, 2, 1)
        for nu in SWEEP_MAIN_NUS
        for d in range(-40, 50)
    ]
    cells += [
        _fixed(f"edge/nu={nu:g}/bin={b}", nu, -200 + 51 * b, -149 + 51 * b, 8, 2, edge=True)
        for nu in SWEEP_EDGE_NUS
        for b in range(4)
    ]
    return cells


def highfreq_cells() -> list[Cell]:
    # omega tenth-decades 1e5..1e12 times eight bands of log10(nu+1) over
    # [-2, log10 301]; the cost of a point grows like sqrt(omega), so narrow
    # cells keep the costly top decade equally represented in every run
    bands = 8
    top = math.log10(301.0)
    edges = [-2.0 + (top + 2.0) * i / bands for i in range(bands + 1)]
    return [
        Cell(f"log_w={d / 10:g}/nuband={b}", edges[b], edges[b + 1], d / 10, (d + 1) / 10, 2, 1,
             nu_log=True)
        for d in range(50, 120)
        for b in range(bands)
    ]


def creep_cells() -> list[Cell]:
    # timed: t twentieth-decades 1e-4..10 for the common orders (the number
    # of zeros a call needs grows like t^-1/2); edge: t decades for the rare
    # large orders
    cells = [
        _fixed(f"major/nu={nu:g}/log_t={c / 20:g}", nu, c / 20, (c + 1) / 20, 2, 1)
        for nu in CREEP_MAJOR_NUS
        for c in range(-80, 20)
    ]
    cells += [
        _fixed(f"minor/nu={nu:g}/dec={d}", nu, d, d + 1, 3, 1, edge=True)
        for nu in CREEP_MINOR_NUS
        for d in range(-4, 1)
    ]
    return cells


CELLS = {"sweep": sweep_cells, "highfreq": highfreq_cells, "creep": creep_cells}


def draw_pool(cell: Cell) -> list[tuple[float, float]]:
    """The frozen pool of one cell (used only when regenerating tables)."""
    rng = random.Random(f"{TABLE_SEED}/{cell.key}")
    return [cell.draw(rng) for _ in range(cell.pool)]


def cli_key(nu: float, omega: float) -> str:
    """Lookup key of a cli output point, robust to last-digit grid changes."""
    return f"{nu:g}/{omega:.12e}"


def load_table(workload: str) -> dict:
    with open(REFS_DIR / f"{workload}.json", encoding="ascii") as fh:
        return json.load(fh)


def working_set(workload: str, seed: int, edge: bool = False) -> list[dict]:
    """The run's timed inputs (``edge=False``) or its edge set: ``take``
    pool points per cell, in a seeded order.

    Each entry is a table row ``{"cell", "nu", "x", "ref"}``.  Raises
    ValueError when the frozen table does not match the cell definitions.
    """
    table = load_table(workload)
    by_cell: dict[str, list[dict]] = {}
    for row in table["points"]:
        by_cell.setdefault(row["cell"], []).append(row)
    rng = random.Random(seed)
    chosen: list[dict] = []
    for cell in CELLS[workload]():
        if cell.edge != edge:
            continue
        rows = by_cell.get(cell.key, [])
        if len(rows) != cell.pool:
            raise ValueError(
                f"reference table {workload}.json has {len(rows)} rows for cell "
                f"{cell.key}, expected {cell.pool}; rerun make_refs.py"
            )
        chosen += rng.sample(rows, cell.take)
    rng.shuffle(chosen)
    return chosen
