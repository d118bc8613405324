"""GSD101 — sim-determinism.

Simulated execution must be a pure function of inputs and seeds: PR 2's
pipelined==serial bit-identical guarantee (and every recorded benchmark)
dies the moment an engine path consults wall-clock time, unseeded
randomness or a thread scheduler. The rule has two halves.

In **every** file of the package, ``utils/`` and ``bench/`` included, it
forbids importing a concurrency module: ``threading``, ``_thread``,
``queue``, ``concurrent.futures``, ``multiprocessing`` or ``asyncio``
(``import x``, ``import x.y``, ``from x import …`` and
``from x.y import …`` alike; relative imports are the package's own
modules). The package starts no thread: the paper's execution threads
and its I/O–compute overlap are priced by
:class:`repro.utils.timers.SimClock`, not run concurrently, so thread
interleaving can never reorder a charge or a float sum.

Inside the engine directories (``core/``, ``graph/``, ``storage/``,
``algorithms/``, ``cluster/``, ``tune/``) it also forbids:

* importing ``time``, ``datetime`` or ``random`` at all — modeled time
  comes from :class:`repro.utils.timers.SimClock`, randomness from
  :mod:`repro.utils.rng`;
* any use of ``numpy.random`` (``np.random.default_rng`` included, even
  seeded — centralizing construction in ``utils/rng`` is the invariant);
* importing from ``numpy.random``.

``utils/`` is out of scope for this half: it is where the two
sanctioned wrappers (``WallTimer``, ``make_rng``) live.

``obs/`` is in scope with a carve-out: the observability layer's whole
job is to record *both* timelines, so it may import ``time`` /
``datetime`` (wall-clock reads never feed back into simulated state —
traced runs stay bit-identical to untraced ones). Randomness stays
forbidden there like everywhere else.

Escape hatch, for both halves: ``# sim-ok: <reason>``.
"""

from __future__ import annotations

import ast
from typing import Optional, Set, Tuple

from repro.analysis.base import Checker, dotted_name
from repro.analysis.source import SourceFile

#: Concurrency modules, forbidden in every file of the package.
_CONCURRENCY_MODULES = (
    "threading",
    "_thread",
    "queue",
    "concurrent",
    "multiprocessing",
    "asyncio",
)
_FORBIDDEN_MODULES = ("time", "datetime", "random")
#: Wall-clock modules the observability layer is allowed to read.
_WALL_CLOCK_MODULES = ("time", "datetime")
#: Directories where the time/datetime/random/numpy.random half applies.
_SIM_DIRS = ("core", "graph", "storage", "algorithms", "obs", "cluster", "tune")

_CONCURRENCY_ADVICE = (
    "the package is single-threaded; model overlap with "
    "repro.utils.timers.SimClock, do not run it"
)
_SIM_ADVICE = (
    "use repro.utils.timers (SimClock/WallTimer) for timing and "
    "repro.utils.rng for randomness"
)


class SimDeterminismChecker(Checker):
    rule_id = "GSD101"
    title = (
        "no concurrency imports anywhere; sim paths must not touch "
        "wall-clock time or ad-hoc randomness"
    )
    suppress_marker = "sim-ok"

    def visit(self, sf: SourceFile) -> None:
        head = sf.rel.split("/", 1)[0]
        sim_path = head in _SIM_DIRS
        forbidden: Tuple[str, ...] = ()
        if sim_path:
            forbidden = tuple(
                m
                for m in _FORBIDDEN_MODULES
                if not (head == "obs" and m in _WALL_CLOCK_MODULES)
            )

        def advice(module: str) -> Optional[str]:
            root = module.split(".", 1)[0]
            if root in _CONCURRENCY_MODULES:
                return _CONCURRENCY_ADVICE
            if root in forbidden:
                return _SIM_ADVICE
            return None

        numpy_aliases: Set[str] = set()
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    why = advice(alias.name)
                    if why is not None:
                        self.report(node, f"import of {alias.name!r}: {why}")
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                why = advice(module)
                if why is not None:
                    self.report(node, f"import from {module!r}: {why}")
                if not sim_path:
                    continue
                if module == "numpy" and any(a.name == "random" for a in node.names):
                    self.report(
                        node, "numpy.random import: construct RNGs via repro.utils.rng"
                    )
                if module.startswith("numpy.random"):
                    self.report(
                        node, "numpy.random import: construct RNGs via repro.utils.rng"
                    )
        if not sim_path:
            return
        # Attribute uses of <numpy alias>.random.* (catches seeded and
        # unseeded construction alike — the sanctioned path is utils/rng).
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Attribute):
                continue
            name = dotted_name(node)
            if name is None:
                continue
            parts = name.split(".")
            # Exactly <alias>.random.<member>: longer chains contain this
            # three-part Attribute as a nested node, so matching the exact
            # length reports each use once.
            if len(parts) == 3 and parts[0] in numpy_aliases and parts[1] == "random":
                self.report(
                    node,
                    f"{name}: all randomness must flow through repro.utils.rng "
                    "(make_rng / spawn_rngs)",
                )
