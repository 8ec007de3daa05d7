"""One traced CLI command, for the traced cli workload.

    python3 perfbench/cli_child.py AGG_JSON SPAWN_TIME <besselq cli arguments>

Runs ``besselq.cli.main`` in this process with the span recorders installed
and writes the span table and counters to AGG_JSON.  SPAWN_TIME is the
parent's ``time.perf_counter()`` just before it started this process; on
Linux that clock is system-wide, so the gap to this script's first
statement is the interpreter start.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from benchlib import Tracer  # noqa: E402
from layers import Layers  # noqa: E402


def main() -> int:
    agg_path, spawned, argv = Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    import besselq.cli

    imported = time.perf_counter() - t0
    layers = Layers(Tracer())
    layers.install()
    code = besselq.cli.main(argv)
    agg = layers.aggregate()
    agg["counters"].update({
        "cli.start_s": STARTED - spawned,
        "cli.import_s": imported,
        "cli.processes": 1,
    })
    agg_path.write_text(json.dumps(agg), encoding="ascii")
    return code


if __name__ == "__main__":
    sys.exit(main())
