"""GSD108: iteration-order determinism.

Fixtures drive :func:`check_text` with the GSD108 checker alone;
expected lines are located by searching the fixture text (``line_of``)
so edits don't silently shift the assertions. The self-tests at the bottom seed a defect into the *real*
``repro.utils.timers`` source and pin the exact finding — proof the
rules hold on production code, not just toy fixtures.
"""

import textwrap
from pathlib import Path

import pytest

import repro.utils.timers as timers_module
from repro.analysis import check_text
from repro.analysis.checkers import IterationOrderChecker


def line_of(src, needle, occurrence=1):
    """1-based line of the Nth line containing ``needle``."""
    seen = 0
    for i, line in enumerate(src.splitlines(), start=1):
        if needle in line:
            seen += 1
            if seen == occurrence:
                return i
    raise AssertionError(f"{needle!r} not in fixture")


# -- fixtures -----------------------------------------------------------------


def order_findings(src, rel="utils/box.py"):
    return check_text(src, rel, [IterationOrderChecker])


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
