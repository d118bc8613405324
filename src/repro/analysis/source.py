"""Parsed source files and the annotation-comment grammar.

Annotation grammar (one annotation per line, trailing comment)::

    # <marker>: <reason>

Every marker is an escape hatch (``sim-ok``, ``charged-io-ok``,
``dtype-ok``, ``exception-ok``, ``order-ok``): it suppresses one rule's
finding on the annotated line, or — for statements whose comment would
not fit — on the line immediately below the annotation. The reason is
mandatory; an empty reason is itself reported (rule ``GSD100``).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import ERROR, Finding

#: Marker names recognized by the annotation grammar.
ESCAPE_MARKERS = (
    "sim-ok",
    "charged-io-ok",
    "dtype-ok",
    "exception-ok",
    "order-ok",
)

_MARKER_RE = re.compile(r"#\s*(" + "|".join(ESCAPE_MARKERS) + r")\s*:\s*(.*)$")

#: Rule id for malformed annotations (reason missing).
RULE_BAD_ANNOTATION = "GSD100"


class SourceFile:
    """One parsed Python file plus its annotation markers.

    ``rel`` is the path the file is reported (and scoped) under —
    package-relative for real repository files, arbitrary for fixtures.
    """

    def __init__(self, rel: str, text: str, path: Optional[Path] = None) -> None:
        self.rel = rel.replace("\\", "/")
        self.path = path
        self.text = text
        self.lines: List[str] = text.splitlines()
        self.tree = ast.parse(text, filename=self.rel)
        #: marker name -> {line number (1-based) -> reason}
        self.markers: Dict[str, Dict[int, str]] = {}
        #: (line, marker) pairs whose reason was empty.
        self.bad_annotations: List[Tuple[int, str]] = []
        for lineno, line in enumerate(self.lines, start=1):
            m = _MARKER_RE.search(line)
            if m is None:
                continue
            marker, reason = m.group(1), m.group(2).strip()
            if not reason:
                self.bad_annotations.append((lineno, marker))
                continue
            self.markers.setdefault(marker, {})[lineno] = reason

    @classmethod
    def from_path(cls, path: Path, rel: str) -> "SourceFile":
        return cls(rel, path.read_text(), path=path)

    # -- suppression -------------------------------------------------------

    def suppressed(self, marker: str, line: int) -> bool:
        """Is a finding on ``line`` suppressed by ``marker``?

        The annotation may sit on the finding's own line or on the line
        directly above it (comment-above style for long statements).
        """
        table = self.markers.get(marker, {})
        return line in table or (line - 1) in table

    # -- helpers for checkers ----------------------------------------------

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def annotation_findings(self) -> List[Finding]:
        """``GSD100`` findings for annotations missing their reason."""
        return [
            Finding(
                rule_id=RULE_BAD_ANNOTATION,
                severity=ERROR,
                path=self.rel,
                line=line,
                col=0,
                message=(
                    f"annotation '# {marker}:' requires a reason "
                    "(see docs/ANALYSIS.md)"
                ),
                context=self.line_text(line),
            )
            for line, marker in self.bad_annotations
        ]
