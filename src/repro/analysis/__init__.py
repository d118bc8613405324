"""Project-invariant static analysis (``graphsd lint``).

The engine's correctness rests on invariants no general-purpose linter
knows about: every byte charged to the :class:`~repro.utils.timers.SimClock`,
no wall-clock or ad-hoc randomness on simulated paths, no concurrency
module imported anywhere (the package starts no thread), explicit
dtypes on hot paths, and no swallowed failures. This package is a small AST-checker framework plus
one checker per invariant; see ``docs/ANALYSIS.md`` for the rule
catalogue and annotation grammar.

Every rule reads one file's AST and nothing else: the iteration-order
rule types names from the function and classes of the same file. Properties that
span files (every byte charged, streams closed on a crash, spans
recorded) are enforced by tests, listed in ``docs/ANALYSIS.md``.
"""

from repro.analysis.base import Checker
from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.findings import Finding
from repro.analysis.runner import (
    LintResult,
    check_text,
    collect_sources,
    default_baseline_path,
    load_baseline,
    package_root,
    run_lint,
    write_baseline,
)
from repro.analysis.source import SourceFile

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "Finding",
    "LintResult",
    "SourceFile",
    "check_text",
    "collect_sources",
    "default_baseline_path",
    "load_baseline",
    "package_root",
    "run_lint",
    "write_baseline",
]
