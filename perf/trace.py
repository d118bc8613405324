"""Span recorder and entry-point wrappers (the mechanism; no repo names here).

A traced sample installs ``perf_counter`` wrappers around the program's
public entry points *from outside*: each wrapper records one span —
name, start, end, parent span — into an in-memory :class:`Recorder`, and
optionally bumps named counters from the call's arguments and result.
Nothing under ``src/`` knows it is being measured, and timed samples
never run with wrappers installed.

An entry point is named ``"module.path:attr.path"`` and resolved at
install time; a name that no longer resolves is reported back instead of
raising, so a refactor degrades the affected metrics, not the run.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: ``hook(counts, parent span name, args, kwargs, result)`` — called after
#: the span closes, to count work at the boundary the span marks.
CountHook = Callable[[Counter, Optional[str], tuple, dict, Any], None]
#: One exported span: ``[id, parent id or -1, name, start, end]``.
SpanRow = List[Any]


class Recorder:
    """Spans and counts of one traced sample, kept in memory."""

    def __init__(self) -> None:
        self._spans: List[list] = []  # [parent span or None, name, start, end]
        self.counts: Counter = Counter()
        #: Span names whose count hook failed on the live objects.
        self.broken: Set[str] = set()
        # One stack per thread: a span opened on a helper thread becomes
        # a root there instead of a bogus child of the main thread's span.
        self._local = threading.local()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [stack[-1] if stack else None, name, perf_counter(), None]
        self._spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own call into a layer."""
        span = self.begin(name)
        try:
            yield
        finally:
            self.end(span)

    def export(self) -> List[SpanRow]:
        """Closed spans as ``[id, parent, name, start, end]`` rows."""
        closed = [s for s in self._spans if s[3] is not None]
        ids = {id(s): k for k, s in enumerate(closed)}
        return [
            [k, ids.get(id(s[0]), -1), s[1], s[2], s[3]] for k, s in enumerate(closed)
        ]

    def payload(self, missing: Sequence[str] = ()) -> Dict[str, Any]:
        """Everything recorded, as JSON data (the trace-file entry of a sample)."""
        return {
            "spans": self.export(),
            "counts": dict(self.counts),
            "missing": list(missing),
            "broken": sorted(self.broken),
        }


def _wrap(fn: Callable, name: str, rec: Recorder, hook: Optional[CountHook]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if hook is not None:
            parent = span[0][1] if span[0] is not None else None
            try:
                hook(rec.counts, parent, args, kwargs, result)
            except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                # The wrapped call itself succeeded; only what the hook
                # expected of its arguments or result has drifted.
                rec.broken.add(name)
        return result

    return wrapper


def _resolve(site: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute name, raw attribute)`` of ``"module:attr.path"``."""
    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # vars() keeps classmethod/staticmethod objects intact; getattr would
    # hand back the already-bound function.
    raw = vars(owner)[leaf] if leaf in vars(owner) else getattr(owner, leaf)
    return owner, leaf, raw


#: ``(span name, site, count hook or None)``.
Site = Tuple[str, str, Optional[CountHook]]


class Installed:
    """Wrappers currently patched in; :meth:`remove` restores the originals."""

    def __init__(self, rec: Recorder, sites: Sequence[Site]) -> None:
        self.missing: List[str] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        for name, site, hook in sites:
            try:
                owner, leaf, raw = _resolve(site)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(site)
                continue
            if isinstance(raw, classmethod):
                patched: Any = classmethod(_wrap(raw.__func__, name, rec, hook))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(_wrap(raw.__func__, name, rec, hook))
            else:
                patched = _wrap(raw, name, rec, hook)
            setattr(owner, leaf, patched)
            self._restore.append((owner, leaf, raw))

    def remove(self) -> None:
        for owner, leaf, raw in reversed(self._restore):
            setattr(owner, leaf, raw)
        self._restore = []


# -- span arithmetic --------------------------------------------------------


class SpanTable:
    """Inclusive / self time and call counts over one sample's spans."""

    def __init__(self, rows: Iterable[SpanRow]) -> None:
        self.rows = list(rows)
        self._by_id = {r[0]: r for r in self.rows}
        self._child_time: Dict[int, float] = defaultdict(float)
        for r in self.rows:
            if r[1] >= 0:
                self._child_time[r[1]] += r[4] - r[3]

    def _has_ancestor_in(self, row: SpanRow, names: frozenset) -> bool:
        parent = row[1]
        while parent >= 0:
            prow = self._by_id[parent]
            if prow[2] in names:
                return True
            parent = prow[1]
        return False

    def _outermost(self, names: Sequence[str]) -> List[SpanRow]:
        """Spans of the group with no ancestor in it: a wrapped method that
        calls another of the same group (``load_column`` →
        ``load_block_range``) counts once."""
        group = frozenset(names)
        return [
            r for r in self.rows if r[2] in group and not self._has_ancestor_in(r, group)
        ]

    def inclusive(self, *names: str) -> float:
        """Time covered by spans named in ``names``."""
        return sum(r[4] - r[3] for r in self._outermost(names))

    def outer_calls(self, *names: str) -> int:
        """Calls into the group from outside it."""
        return len(self._outermost(names))

    def self_time(self, *names: str) -> float:
        """Span time minus the part covered by child spans (of any name)."""
        group = frozenset(names)
        return sum(self.row_self(r) for r in self.rows if r[2] in group)

    def row_self(self, row: SpanRow) -> float:
        return (row[4] - row[3]) - self._child_time[row[0]]

    def calls(self, *names: str) -> int:
        group = frozenset(names)
        return sum(1 for r in self.rows if r[2] in group)

    def top_level(self) -> List[SpanRow]:
        return [r for r in self.rows if r[1] < 0]
