"""GSD108 (iteration order) and GSD103's checks of ``lock-held`` helpers.

Fixtures drive :func:`check_text` with explicit checker lists so each
rule is tested in isolation; expected lines are located by searching
the fixture text (``line_of``) so edits don't silently shift the
assertions. The self-tests at the bottom seed a defect into the *real*
``repro.utils.timers`` source and pin the exact finding — proof the
rules hold on production code, not just toy fixtures.
"""

import textwrap
from pathlib import Path

import pytest

import repro.utils.timers as timers_module
from repro.analysis import check_text
from repro.analysis.checkers import IterationOrderChecker, LockDisciplineChecker


def line_of(src, needle, occurrence=1):
    """1-based line of the Nth line containing ``needle``."""
    seen = 0
    for i, line in enumerate(src.splitlines(), start=1):
        if needle in line:
            seen += 1
            if seen == occurrence:
                return i
    raise AssertionError(f"{needle!r} not in fixture")


def findings_for(src, checker, rel="utils/thing.py"):
    return check_text(src, rel, [checker])


# -- GSD103: lock-held helpers (the tests keep the id they were written under)

GSD107_FIXTURE = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._data = {}  # guarded-by: _lock

    # lock-held: _lock
    def _mutate(self):
        self._data["k"] = 1

    def bad(self):
        self._mutate()

    def good(self):
        with self._lock:
            self._mutate()

    # lock-held: _lock
    def _also_held(self):
        self._mutate()
"""


def test_gsd107_unlocked_call_flagged_locked_and_propagated_pass():
    src = textwrap.dedent(GSD107_FIXTURE)
    findings = findings_for(src, LockDisciplineChecker)
    assert [f.rule_id for f in findings] == ["GSD103"]
    # Only the call inside bad() fires: good() holds the lock lexically,
    # _also_held() inherits the context from its own declaration.
    bad_call = line_of(src, "self._mutate()", occurrence=1)
    assert findings[0].line == bad_call
    assert "lock-held: _lock" in findings[0].message


def test_gsd107_value_reference_is_an_escape():
    src = textwrap.dedent(
        """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}  # guarded-by: _lock

            # lock-held: _lock
            def _mutate(self):
                self._data["k"] = 1

            def spawn(self):
                return threading.Thread(target=self._mutate)
        """
    )
    findings = findings_for(src, LockDisciplineChecker)
    assert [f.rule_id for f in findings] == ["GSD103"]
    assert findings[0].line == line_of(src, "target=self._mutate")
    assert "referenced as a value" in findings[0].message


def test_gsd107_double_acquire_of_nonreentrant_lock():
    src = textwrap.dedent(
        """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()

            def inner(self):
                with self._lock:
                    pass

            def outer(self):
                with self._lock:
                    self.inner()
        """
    )
    findings = findings_for(src, LockDisciplineChecker)
    assert [f.rule_id for f in findings] == ["GSD103"]
    assert findings[0].line == line_of(src, "self.inner()")
    assert "self-deadlock" in findings[0].message


# -- GSD108: iteration-order determinism --------------------------------------


def order_findings(src, rel="utils/box.py"):
    return findings_for(src, IterationOrderChecker, rel)


def test_gsd108_set_iteration_into_float_accumulation():
    src = textwrap.dedent(
        """
        def acc(xs):
            bag = set(xs)
            total = 0.0
            for x in bag:
                total += x
            return total
        """
    )
    findings = order_findings(src)
    assert [f.rule_id for f in findings] == ["GSD108"]
    assert findings[0].line == line_of(src, "for x in bag")


def test_gsd108_dict_attribute_sum_without_sorted():
    src = textwrap.dedent(
        """
        class Box:
            def __init__(self):
                self._parts = {}

            def total(self):
                return float(sum(self._parts[k] for k in self._parts))
        """
    )
    findings = order_findings(src)
    assert [f.rule_id for f in findings] == ["GSD108"]
    assert findings[0].line == line_of(src, "float(sum(")


def test_gsd108_sorted_wrap_discharges():
    src = textwrap.dedent(
        """
        class Box:
            def __init__(self):
                self._parts = {}

            def total(self):
                return float(sum(self._parts[k] for k in sorted(self._parts)))
        """
    )
    assert order_findings(src) == []


def test_gsd108_order_ok_annotation_discharges():
    src = textwrap.dedent(
        """
        def acc(xs):
            bag = set(xs)
            total = 0
            # order-ok: integer sum is order-independent
            for x in bag:
                total += x
            return total
        """
    )
    assert order_findings(src) == []


def test_gsd108_local_dict_is_deterministic():
    src = textwrap.dedent(
        """
        def acc(pairs):
            parts = {}
            for k, v in pairs:
                parts[k] = v
            total = 0.0
            for k in parts:
                total += parts[k]
            return total
        """
    )
    assert order_findings(src) == []


def test_gsd108_reaching_defs_clear_rebound_name():
    # The suspect set is rebound to a sorted list before the loop: not
    # every assignment to the name builds a set, so it is not suspect.
    src = textwrap.dedent(
        """
        def acc(xs):
            bag = set(xs)
            bag = sorted(bag)
            total = 0.0
            for x in bag:
                total += x
            return total
        """
    )
    assert order_findings(src) == []


# -- self-tests against real source -------------------------------------------


def _timers_source():
    return Path(timers_module.__file__).read_text()


def test_self_gsd107_seeded_unlocked_helper_call_in_real_timers():
    base = _timers_source()
    seeded = base + textwrap.dedent(
        """

        class _SeededBox:
            def __init__(self):
                self._guard = threading.Lock()
                self._cells = {}  # guarded-by: _guard

            # lock-held: _guard
            def _poke(self):
                self._cells["x"] = 1

            def entry(self):
                self._poke()
        """
    )
    # The de-guarded call sits 13 lines below the end of the base file.
    poke_line = base.count("\n") + 13
    findings = check_text(seeded, "utils/timers.py")
    assert [(f.rule_id, f.line) for f in findings] == [("GSD103", poke_line)]
    assert "lock-held: _guard" in findings[0].message


#: The sorted() wraps over a component dict in the real timers source,
#: by the class that owns the dict.
SORTED_WRAPS = {"sorted(self._components)": "SimClock", "sorted(self.components)": "TimeBreakdown"}


def _sorted_wraps():
    """One ``(needle, occurrence)`` param per wrap in the real source."""
    text = _timers_source()
    # An empty parametrization would pass silently.
    assert all(needle in text for needle in SORTED_WRAPS)
    return [
        pytest.param(needle, k, id=f"{owner}-{k}")
        for needle, owner in SORTED_WRAPS.items()
        for k in range(1, text.count(needle) + 1)
    ]


@pytest.mark.parametrize("needle,occurrence", _sorted_wraps())
def test_self_gsd108_reverting_one_sorted_in_real_timers(needle, occurrence):
    base = _timers_source()
    bare = needle[len("sorted("):-1]
    # Revert exactly the chosen wrap: split the source at it.
    parts = base.split(needle)
    mutated = needle.join(parts[:occurrence]) + bare + needle.join(parts[occurrence:])
    bad_line = line_of(base, needle, occurrence)
    findings = check_text(mutated, "utils/timers.py")
    assert [(f.rule_id, f.line) for f in findings] == [("GSD108", bad_line)]


def test_real_timers_source_is_clean():
    assert check_text(_timers_source(), "utils/timers.py") == []
