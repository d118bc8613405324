"""SARIF 2.1.0 output for ``graphsd lint --format sarif``.

One run, one tool (``graphsd``), one rule descriptor per checker. Each
result carries a ``partialFingerprints`` entry derived from the
finding's :attr:`~repro.analysis.findings.Finding.key` — rule id, path
and the *stripped source line*, never the line number — so code-scanning
UIs keep alert identity stable across rebases and unrelated edits that
shift line numbers.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence, Type

from repro.analysis.base import Checker
from repro.analysis.findings import ERROR, Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Finding severity -> SARIF result level.
_LEVELS = {ERROR: "error", "warning": "warning", "note": "note"}


def _fingerprint(finding: Finding) -> str:
    """Stable, line-number-independent identity for one finding."""
    return hashlib.sha256(finding.key.encode()).hexdigest()[:32]


def _rule_descriptor(cls: Type[Checker]) -> Dict[str, object]:
    return {
        "id": cls.rule_id,
        "name": cls.__name__,
        "shortDescription": {"text": cls.title},
        "properties": {"suppressMarker": cls.suppress_marker or ""},
    }


def _result(finding: Finding, baselined: bool) -> Dict[str, object]:
    return {
        "ruleId": finding.rule_id,
        "level": _LEVELS.get(finding.severity, "error"),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f"src/repro/{finding.path}",
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": max(1, finding.col + 1),
                        "snippet": {"text": finding.context},
                    },
                }
            }
        ],
        "partialFingerprints": {"graphsdFindingKey/v1": _fingerprint(finding)},
        "baselineState": "unchanged" if baselined else "new",
    }


def to_sarif(
    findings: Sequence[Finding],
    new_findings: Sequence[Finding],
    checkers: Sequence[Type[Checker]],
) -> Dict[str, object]:
    """The SARIF log object for one lint run."""
    new = set(new_findings)
    rules: List[Dict[str, object]] = [
        _rule_descriptor(cls)
        for cls in sorted(checkers, key=lambda c: c.rule_id)
        if cls.rule_id
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "graphsd",
                        "informationUri": "docs/ANALYSIS.md",
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"description": {"text": "repository root"}}
                },
                "results": [_result(f, f not in new) for f in findings],
            }
        ],
    }


def render_sarif(
    findings: Sequence[Finding],
    new_findings: Sequence[Finding],
    checkers: Sequence[Type[Checker]],
) -> str:
    return json.dumps(to_sarif(findings, new_findings, checkers), indent=2) + "\n"


__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "render_sarif", "to_sarif"]
