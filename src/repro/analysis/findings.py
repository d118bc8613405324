"""Findings: what a checker reports, with stable identities for baselining.

A :class:`Finding` pins one rule violation to a file and line. Its
:attr:`~Finding.key` deliberately excludes the line *number*: baselines
must survive unrelated edits above a grandfathered line, so the identity
is ``rule_id : path : stripped source line``. Two byte-identical
violating lines in one file therefore share a key — acceptable for the
intended near-empty baselines, and called out in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

#: Severity labels, ordered from most to least severe.
ERROR = "error"
WARNING = "warning"
SEVERITIES = (ERROR, WARNING)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule_id: str
    severity: str
    path: str  # package-relative posix path, e.g. "utils/timers.py"
    line: int  # 1-based
    col: int  # 0-based, matching ast's col_offset
    message: str
    context: str = ""  # the stripped source line, for stable identity

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def key(self) -> str:
        """Stable baseline identity (line-number independent)."""
        return f"{self.rule_id}:{self.path}:{self.context}"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} {self.rule_id}: {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
        }
