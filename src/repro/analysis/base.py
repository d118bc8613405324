"""Checker base class.

A checker owns one stable rule id (``GSD1xx``), a directory scope within
the ``repro`` package, and an optional escape-hatch marker. It
implements :meth:`Checker.visit` over one file's AST, sees nothing
else, and emits through :meth:`Checker.report`, which centralizes
suppression and context capture.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.analysis.findings import ERROR, Finding
from repro.analysis.source import SourceFile


class Checker:
    """One project-invariant rule."""

    #: Stable rule identifier, e.g. ``"GSD101"``.
    rule_id: str = ""
    #: One-line rule title (shown by ``graphsd lint --rules``).
    title: str = ""
    severity: str = ERROR
    #: Escape-hatch marker that suppresses this rule, or None.
    suppress_marker: Optional[str] = None
    #: First-level package directories the rule applies to; empty means
    #: every file. A file outside the package (no known segments) is in
    #: scope only for unscoped rules.
    scope_dirs: Tuple[str, ...] = ()

    def applies_to(self, rel: str) -> bool:
        if not self.scope_dirs:
            return True
        head = rel.split("/", 1)[0]
        return head in self.scope_dirs

    # -- running -----------------------------------------------------------

    def check(self, sf: SourceFile) -> List[Finding]:
        """Run the rule over one file; suppressions already applied."""
        self._findings: List[Finding] = []
        self._sf = sf
        self.visit(sf)
        return self._findings

    def visit(self, sf: SourceFile) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def report(self, node: ast.AST, message: str) -> None:
        """Emit a finding at ``node`` unless an escape hatch covers it."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.suppress_marker and self._sf.suppressed(self.suppress_marker, line):
            return
        self._findings.append(
            Finding(
                rule_id=self.rule_id,
                severity=self.severity,
                path=self._sf.rel,
                line=line,
                col=col,
                message=message,
                context=self._sf.line_text(line),
            )
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
