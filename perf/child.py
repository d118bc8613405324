"""Processes the benchmark spawns (``python -m perf.child ...``).

``setup WORKLOAD SEED SCALE DIR [--trace]``
    Generate the workload's graph and build its grid under ``DIR``, so
    the measuring process never holds the edge list. Writes
    ``inputs.json``, ``degrees.npy`` and ``setup_trace.json`` (the
    generate span always; every wrapped entry point with ``--trace``).

``cli OUT -- ARGS...``
    Run ``repro.cli.main(ARGS)`` in this process under the entry-point
    wrappers and write the spans to ``OUT`` — the per-layer view of what
    a CLI user's one invocation spends where.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter
from typing import List

from perf.layers import SITES
from perf.trace import Installed, Recorder


def _setup(argv: List[str]) -> int:
    from perf.workloads import WORKLOADS, build_inputs

    name, seed, scale, out = argv[:4]
    rec = Recorder()
    installed = Installed(rec, SITES if "--trace" in argv else ())
    info = build_inputs(WORKLOADS[name], int(seed), int(scale), Path(out), rec)
    installed.remove()
    (Path(out) / "setup.json").write_text(
        json.dumps({"info": info, **rec.payload(installed.missing)})
    )
    return 0


def _cli(argv: List[str]) -> int:
    out, dashes, *args = argv
    if dashes != "--":
        raise SystemExit("usage: perf.child cli OUT -- ARGS...")
    rec = Recorder()
    installed = Installed(rec, SITES)
    import repro.cli

    start = perf_counter()
    code = repro.cli.main(args)
    end = perf_counter()
    installed.remove()
    Path(out).write_text(
        json.dumps({"start": start, "end": end, **rec.payload(installed.missing)})
    )
    return int(code or 0)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": _setup, "cli": _cli}[mode](rest))
