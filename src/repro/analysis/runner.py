"""Lint orchestration: collect files, run checkers, apply the baseline.

The committed baseline (``src/repro/analysis/baseline.json``) holds the
:attr:`~repro.analysis.findings.Finding.key` of every grandfathered
finding. ``run_lint`` reports all findings but only *new* ones (keys
absent from the baseline) affect the exit status, so the gate can land
before the last legacy violation is fixed. Regenerate with
``graphsd lint --update-baseline`` (see ``docs/ANALYSIS.md``).

Every rule sees one file at a time, so linting a subset of the package
checks exactly that subset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.analysis.base import Checker
from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

BASELINE_VERSION = 1


def package_root() -> Path:
    """The installed ``repro`` package directory (the default lint scope)."""
    return Path(__file__).resolve().parent.parent


def default_baseline_path() -> Path:
    return Path(__file__).resolve().parent / "baseline.json"


# -- file collection ---------------------------------------------------------


def collect_sources(
    paths: Sequence[Path], root: Optional[Path] = None
) -> List[Tuple[Path, str]]:
    """Expand files/directories into ``(path, rel)`` pairs.

    ``rel`` is the scope path the checkers see: relative to ``root``
    (default: the ``repro`` package) when the file lives under it,
    otherwise the file's own name — fixtures outside the package only
    match unscoped rules unless the caller supplies their root.
    """
    root = (root or package_root()).resolve()
    out: List[Tuple[Path, str]] = []
    for p in paths:
        p = Path(p)
        if not p.exists():
            raise ValueError(f"lint path does not exist: {p}")
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            f = f.resolve()
            try:
                rel = f.relative_to(root).as_posix()
            except ValueError:
                rel = f.name
            out.append((f, rel))
    return out


# -- baseline ----------------------------------------------------------------


def load_baseline(path: Path) -> Dict[str, str]:
    """``{finding key: note}`` from a baseline file (empty if absent)."""
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text())
        entries = data["entries"]
        if isinstance(entries, list):  # legacy shape: plain key list
            return {str(k): "" for k in entries}
        return {str(k): str(v) for k, v in entries.items()}
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed baseline file {path}: {exc}") from exc


def write_baseline(findings: Iterable[Finding], path: Path) -> None:
    entries = {
        f.key: f"{f.path}:{f.line} {f.message}" for f in findings
    }
    payload = {"version": BASELINE_VERSION, "entries": entries}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- running -----------------------------------------------------------------


@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)
    new_findings: List[Finding] = field(default_factory=list)
    baselined: int = 0
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if (self.new_findings or self.parse_errors) else 0

    def to_dict(self) -> Dict[str, object]:
        new = set(self.new_findings)
        return {
            "files_checked": self.files_checked,
            "new_findings": len(self.new_findings),
            "baselined": self.baselined,
            "parse_errors": list(self.parse_errors),
            "findings": [dict(f.to_dict(), new=(f in new)) for f in self.findings],
        }

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(
            f"{len(self.new_findings)} new finding(s), "
            f"{self.baselined} baselined, "
            f"{self.files_checked} file(s) checked"
        )
        lines.extend(f"parse error: {e}" for e in self.parse_errors)
        return "\n".join(lines)


def run_lint(
    paths: Optional[Sequence[Path]] = None,
    root: Optional[Path] = None,
    baseline: Optional[Dict[str, str]] = None,
    checkers: Optional[Sequence[Type[Checker]]] = None,
) -> LintResult:
    """Run every checker over ``paths`` and split findings by baseline."""
    if paths is None:
        paths = [package_root()]
    result = LintResult()
    baseline = baseline or {}
    for path, rel in collect_sources(paths, root=root):
        try:
            sf = SourceFile.from_path(path, rel)
        except SyntaxError as exc:
            result.parse_errors.append(f"{rel}: {exc}")
            continue
        result.files_checked += 1
        result.findings.extend(_check_file(sf, checkers))

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    for f in result.findings:
        if f.key in baseline:
            result.baselined += 1
        else:
            result.new_findings.append(f)
    return result


def _check_file(
    sf: SourceFile, checkers: Optional[Sequence[Type[Checker]]]
) -> List[Finding]:
    """Annotation-grammar findings plus every in-scope rule's findings."""
    findings = sf.annotation_findings()
    for cls in checkers if checkers is not None else ALL_CHECKERS:
        checker = cls()
        if checker.applies_to(sf.rel):
            findings.extend(checker.check(sf))
    return findings


def check_text(
    text: str,
    rel: str,
    checkers: Optional[Sequence[Type[Checker]]] = None,
) -> List[Finding]:
    """Run checkers over in-memory source (fixture/self-test entry point)."""
    findings = _check_file(SourceFile(rel, text), checkers)
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))
