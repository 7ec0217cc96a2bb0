"""Write bench/reference.json: the outputs the benchmark's checks compare with.

It holds the SHA-256 of trace.csv for every (trajectory, noise) seed pair of
the cli-default pool and the status and objective of every (layout, mode)
solve of the solve-sweep pool.  Run it from a checkout of the commit whose
outputs are the reference:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402
import worker  # noqa: E402


def main() -> None:
    cli = worker.isci_module("isci.cli")
    common.OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=common.OUT_DIR))
    try:
        traces = {}
        for t in common.CLI_TRAJECTORY_SEEDS:
            for n in common.CLI_NOISE_SEEDS:
                out = tmp / f"{t}-{n}"
                if cli.main(common.cli_args(t, n, out)) != 0:
                    raise SystemExit(f"simulate failed for seeds {t},{n}")
                traces[f"{t},{n}"] = common.sha256(out / "trace.csv")
    finally:
        shutil.rmtree(tmp)
    layouts = worker.sweep_setup()
    sweep = {}
    for layout in common.SWEEP_LAYOUT_SEEDS:
        for mode in common.SWEEP_MODES:
            _, report = worker.solve_op(layouts, layout, mode)
            optimal = report.status.value == "optimal"
            sweep[f"{layout},{mode}"] = {"status": report.status.value,
                                         "objective": report.objective if optimal else None}
    text = json.dumps({"cli_trace_sha256": traces, "sweep": sweep}, indent=1,
                      sort_keys=True)
    common.REFERENCE.write_text(text + "\n")


if __name__ == "__main__":
    main()
