"""One experiment runner: every ``BENCH_*.json`` record as a run table.

Each committed bench record (BENCH_2 overlap, BENCH_3 encoding, BENCH_4
cluster, BENCH_5 K-lane selective gathers, BENCH_6 async execution) is
declared as *data* in :mod:`repro.bench.tables` — a :class:`RunTable`:

* its header fields;
* one or more :class:`Section` s of factors × levels, where one cell is
  one measurement (a ``Harness.run`` / ``run_cluster`` / ``preprocess``
  call) optionally paired with a *baseline* cell it is compared against;
* the :class:`Entry` s naming the record path each cell's kept fields
  land at, so the committed JSON layout is the table's output;
* its :class:`Gated` fields, each under one tolerance rule;
* its acceptance gates (a function over a built record);
* the level subsets ``bench check`` and ``bench check --smoke`` re-run.

One code path serves every use: :func:`build_record` measures the cells
of a subset in declared order and assembles the record;
``graphsd bench write`` builds the full table and writes it
(:func:`write_records`); ``graphsd bench check`` builds the check (or
smoke) subset on the recorded header and compares every gated field
against the committed record (:func:`check_history`), then applies the
acceptance gates to the fresh cells.

Tolerance policy (each :class:`Comparison` names the rule it applied):

* **time** — simulated seconds may drift by float-fold reordering
  across refactors (observed: last-ulp differences), so a regression is
  ``fresh > recorded × (1 + SIM_REL_TOL)``. Getting *faster* is
  reported but never fails.
* **bytes** — traffic counters are integer-exact by construction;
  a regression is ``fresh > recorded × (1 + BYTES_REL_TOL)``.
* **exact** — iteration counts, message counts, byte layouts, result
  hashes, and identity flags must match exactly: any change means the
  algorithm's behavior changed and the record must be regenerated
  deliberately. A gated field the record lacks fails under this rule
  (``missing from record``).

Run order is part of a table: runs sharing a harness share a simulated
device clock, and per-run times are differences of its running totals,
so their last ulp depends on what ran before. Cells are therefore
measured in declared product order, a baseline right *after* the cell
that names it, and the check subsets list levels in the order they are
re-run. Bench ids without a table are listed as skipped, never
silently passed.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.bench.harness import Harness
from repro.utils.validation import require

#: Simulated-seconds regression threshold (a doctored 10% slip trips it).
SIM_REL_TOL = 0.05
#: Byte-counter regression threshold.
BYTES_REL_TOL = 0.01
RULES = ("time", "bytes", "exact")

Levels = Mapping[str, Any]
#: factor -> the levels to visit, in visiting order.
Subset = Mapping[str, Sequence[Any]]


@dataclass(frozen=True)
class Row:
    """What a cell's entries see: its levels, its run, its baseline."""

    cell: Levels
    run: Any
    base: Any
    bench: "Bench"

    def get(self, **levels: Any) -> Any:
        """An already-measured cell at these levels (others as ``cell``),
        or ``None`` — entries never trigger extra measurements."""
        return self.bench.measured({**self.cell, **levels})


@dataclass(frozen=True)
class Entry:
    """Fields a cell writes at one record path."""

    #: ``str.format`` template over the cell's levels, ``.``-separated.
    path: str
    fields: Callable[[Row], Dict[str, Any]]
    #: Only cells at these levels write the entry.
    when: Mapping[str, Any] = field(default_factory=dict)

    def applies(self, cell: Levels) -> bool:
        return all(cell.get(k) == v for k, v in self.when.items())


@dataclass(frozen=True)
class Section:
    """Factors × levels whose product (in declared order) is the runs."""

    factors: Mapping[str, Sequence[Any]]
    measure: Callable[["Bench", Levels], Any]
    entries: Sequence[Entry]
    #: The cell a cell is compared against (may be itself).
    baseline: Optional[Callable[[Levels], Levels]] = None
    #: Product filter: cells failing it are not part of the table.
    where: Optional[Callable[[Levels], bool]] = None

    def cells(self, subset: Subset) -> Iterator[Dict[str, Any]]:
        names = list(self.factors)
        levels = [subset.get(n, self.factors[n]) for n in names]
        for combo in itertools.product(*levels):
            cell = dict(zip(names, combo))
            if self.where is None or self.where(cell):
                yield cell


@dataclass(frozen=True)
class Gated:
    """One field ``bench check`` compares, under one tolerance rule."""

    path: str
    metric: str
    rule: str

    def __post_init__(self) -> None:
        require(self.rule in RULES, f"unknown tolerance rule {self.rule!r}")


@dataclass(frozen=True)
class RunTable:
    """One bench record declared as data (see the module docstring)."""

    bench_id: str
    header: Mapping[str, Any]
    sections: Sequence[Section]
    gated: Sequence[Gated]
    #: Acceptance gates over a (possibly partial) built record.
    accept: Callable[[Mapping[str, Any]], List[str]]
    #: Levels ``bench check`` re-runs; unlisted factors run every level.
    check: Subset = field(default_factory=dict)
    #: Levels ``bench check --smoke`` re-runs.
    smoke: Subset = field(default_factory=dict)


class Bench:
    """Measurement context of one build: harnesses, memo, trace paths."""

    def __init__(
        self,
        bench_id: str,
        header: Mapping[str, Any],
        trace_dir: Optional[str] = None,
    ) -> None:
        self.bench_id = bench_id
        self.header = header
        self.dataset = str(header["dataset"])
        self.P = int(header["partitions"])
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self._harnesses: Dict[str, Harness] = {}
        self._runs: Dict[Tuple, Any] = {}

    def harness(self, encoding: str = "raw") -> Harness:
        """The shared harness for one grid encoding (cached stores)."""
        if encoding not in self._harnesses:
            self._harnesses[encoding] = Harness(P=self.P, encoding=encoding)
        return self._harnesses[encoding]

    def trace_path(self, cell: Levels) -> Optional[str]:
        """Where a cell's structured trace goes (``--trace DIR``)."""
        if self.trace_dir is None:
            return None
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        name = "-".join([self.bench_id, *(str(v) for v in cell.values() if v != "")])
        return str(self.trace_dir / f"{name}.trace.jsonl")

    def measure(self, section: Section, cell: Levels) -> Any:
        key = tuple(sorted(cell.items()))
        if key not in self._runs:
            self._runs[key] = section.measure(self, cell)
        return self._runs[key]

    def measured(self, cell: Levels) -> Any:
        return self._runs.get(tuple(sorted(cell.items())))

    def close(self) -> None:
        for harness in self._harnesses.values():
            harness.cleanup()


def _put(record: Dict[str, Any], path: str, fields: Mapping[str, Any]) -> None:
    node = record
    for key in path.split("."):
        node = node.setdefault(key, {})
    node.update(fields)


_MISSING = object()


def _lookup(record: Mapping[str, Any], path: str, metric: str) -> Any:
    node: Any = record
    for key in [*path.split("."), metric]:
        if not isinstance(node, Mapping) or key not in node:
            return _MISSING
        node = node[key]
    return node


def build_record(
    table: RunTable,
    subset: Optional[Subset] = None,
    trace_dir: Optional[str] = None,
    header: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Measure ``subset``'s cells (all by default) into a record.

    ``header`` overrides the table's declared header fields (the
    partition count, say); every cell sees the merged header.
    """
    merged = {**table.header, **(header or {})}
    record: Dict[str, Any] = {"bench_id": table.bench_id, **merged}
    bench = Bench(table.bench_id, merged, trace_dir)
    try:
        for section in table.sections:
            for cell in section.cells(subset or {}):
                run = bench.measure(section, cell)
                base = (
                    bench.measure(section, section.baseline(cell))
                    if section.baseline is not None
                    else None
                )
                row = Row(cell, run, base, bench)
                for entry in section.entries:
                    if entry.applies(cell):
                        fields = entry.fields(row)
                        if fields:
                            _put(record, entry.path.format(**cell), fields)
    finally:
        bench.close()
    return record


@dataclass(frozen=True)
class Comparison:
    """One recorded-vs-fresh metric comparison."""

    bench_id: str
    cell: str
    metric: str
    recorded: Any
    fresh: Any
    rule: str  # "time" | "bytes" | "exact"
    ok: bool
    note: str = ""

    def render(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        extra = f"  ({self.note})" if self.note else ""
        return (
            f"  {mark} {self.bench_id} {self.cell}.{self.metric} "
            f"[{self.rule}]: recorded={self.recorded} fresh={self.fresh}{extra}"
        )


def compare(
    bench_id: str, cell: str, metric: str, rule: str, recorded: Any, fresh: Any
) -> Comparison:
    """Apply one tolerance rule to a recorded/fresh pair."""
    note = ""
    if rule == "time":
        ok = float(fresh) <= float(recorded) * (1.0 + SIM_REL_TOL)
        if ok and float(fresh) < float(recorded) * (1.0 - SIM_REL_TOL):
            note = "improved"
    elif rule == "bytes":
        ok = float(fresh) <= float(recorded) * (1.0 + BYTES_REL_TOL)
    else:
        ok = bool(recorded == fresh)
    return Comparison(bench_id, cell, metric, recorded, fresh, rule, ok, note)


@dataclass
class CheckReport:
    """All comparisons and gate verdicts of one ``graphsd bench check``."""

    comparisons: List[Comparison] = field(default_factory=list)
    gate_failures: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    def failures(self) -> List[Comparison]:
        return [c for c in self.comparisons if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failures() and not self.gate_failures

    def render(self) -> str:
        lines = [f"bench check: {len(self.comparisons)} comparisons"]
        lines.extend(c.render() for c in self.comparisons)
        lines.extend(f"  FAIL gate {g}" for g in self.gate_failures)
        for s in self.skipped:
            lines.append(f"  skip {s}")
        failures = self.failures()
        if failures:
            lines.append(f"REGRESSIONS: {len(failures)}")
        if self.gate_failures:
            lines.append(f"GATE FAILURES: {len(self.gate_failures)}")
        if self.ok:
            lines.append("no regressions")
        return "\n".join(lines) + "\n"


def check_table(
    table: RunTable,
    recorded: Mapping[str, Any],
    smoke: bool = False,
    trace_dir: Optional[str] = None,
) -> Tuple[List[Comparison], List[str]]:
    """Re-run a table's check (or smoke) cells against one record.

    Returns the gated comparisons and the acceptance-gate failures of
    the fresh cells. The fresh cells are built on the *recorded* header
    (dataset, partitions, ...), so they measure what the record did.
    """
    subset = table.smoke if smoke else table.check
    header = {k: recorded.get(k, v) for k, v in table.header.items()}
    fresh = build_record(table, subset, trace_dir, header)
    out: List[Comparison] = []
    seen = set()
    for section in table.sections:
        for cell in section.cells(subset):
            for gated in table.gated:
                try:
                    path = gated.path.format(**cell)
                except KeyError:  # the gate names a factor this cell lacks
                    continue
                if (path, gated.metric) in seen:
                    continue
                seen.add((path, gated.metric))
                new = _lookup(fresh, path, gated.metric)
                if new is _MISSING:
                    continue
                old = _lookup(recorded, path, gated.metric)
                if old is _MISSING:
                    out.append(
                        Comparison(
                            table.bench_id, path, gated.metric, None, new,
                            "exact", False, "missing from record",
                        )
                    )
                else:
                    out.append(
                        compare(table.bench_id, path, gated.metric, gated.rule, old, new)
                    )
    return out, table.accept(fresh)


def _tables() -> Dict[str, RunTable]:
    from repro.bench.tables import TABLES

    return TABLES


def load_records(bench_dir: Path) -> List[Dict[str, Any]]:
    """Load every ``BENCH_*.json`` under ``bench_dir``, sorted by name."""
    records = []
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        # charged-io-ok: host-side bench records, not simulated graph I/O
        with open(path, "r") as f:
            record = json.load(f)
        if not isinstance(record, dict) or "bench_id" not in record:
            raise ValueError(f"{path} is not a bench record (no bench_id)")
        records.append(record)
    return records


def check_history(
    bench_dir: Path,
    smoke: bool = False,
    only: Optional[Sequence[str]] = None,
    trace_dir: Optional[str] = None,
) -> CheckReport:
    """Compare fresh runs against every recorded baseline in ``bench_dir``.

    ``smoke`` re-runs each table's smoke cells (CI's budget) instead of
    its check cells; ``only`` restricts to the given bench ids;
    ``trace_dir`` writes a structured trace per executed cell. Records
    without a table are reported as skipped.
    """
    report = CheckReport()
    records = load_records(bench_dir)
    if not records:
        raise ValueError(f"no BENCH_*.json records found in {bench_dir}")
    tables = _tables()
    for record in records:
        bench_id = str(record["bench_id"])
        if only and bench_id not in only:
            report.skipped.append(f"{bench_id}: excluded by --only")
            continue
        table = tables.get(bench_id)
        if table is None:
            report.skipped.append(f"{bench_id}: no reproducer")
            continue
        comparisons, failures = check_table(table, record, smoke, trace_dir)
        report.comparisons.extend(comparisons)
        report.gate_failures.extend(f"{bench_id}: {f}" for f in failures)
    return report


def write_records(bench_dir: Path, only: Optional[Sequence[str]] = None) -> List[str]:
    """Build every table (or ``only`` these) into ``bench_dir/BENCH_N.json``.

    Returns the acceptance-gate failures of the written records.
    """
    tables = _tables()
    unknown = sorted(set(only or ()) - set(tables))
    require(not unknown, f"no run table for {unknown} (have {sorted(tables)})")
    bench_dir.mkdir(parents=True, exist_ok=True)
    failures: List[str] = []
    for bench_id, table in tables.items():
        if only and bench_id not in only:
            continue
        record = build_record(table)
        out = bench_dir / f"{bench_id}.json"
        # charged-io-ok: host-side benchmark record, not simulated graph I/O
        with open(out, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
        print(f"wrote {out}")
        for failure in table.accept(record):
            print(f"FAIL {bench_id}: {failure}", file=sys.stderr)
            failures.append(f"{bench_id}: {failure}")
    return failures
