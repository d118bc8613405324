"""GSD103 — the lock-discipline race detector.

Covers the fixture-level semantics (lock sets, closures, ``__init__``
exemption) and the mandated self-test: the real
``utils/timers.py``/``storage/gatherpool.py`` are clean, and seeding one
de-guarded access into a copy of the ``SimClock`` source is reported at
exactly that line.
"""

import textwrap
from pathlib import Path

import repro.storage.gatherpool as gatherpool_mod
import repro.utils.timers as timers_mod
from repro.analysis import check_text
from repro.analysis.checkers.locks import LockDisciplineChecker


def check(src, rel="storage/fixture.py"):
    return check_text(src, rel, [LockDisciplineChecker])


FIXTURE = textwrap.dedent(
    """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.value = 0  # guarded-by: _lock

        def bump(self):
            with self._lock:
                self.value += 1

        def peek(self):
            return self.value
    """
)


def test_guarded_access_outside_lock_is_reported():
    found = check(FIXTURE)
    assert [f.rule_id for f in found] == ["GSD103"]
    assert "peek()" in found[0].message
    assert "_lock" in found[0].message


def test_access_under_the_declared_lock_is_clean():
    src = FIXTURE.replace(
        "    def peek(self):\n        return self.value\n",
        "    def peek(self):\n        with self._lock:\n            return self.value\n",
    )
    assert check(src) == []


def test_wrong_lock_does_not_satisfy_the_declaration():
    src = textwrap.dedent(
        """
        import threading

        class TwoLocks:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()
                self.state = {}  # guarded-by: _a

            def touch(self):
                with self._b:
                    self.state.clear()
        """
    )
    found = check(src)
    assert [f.rule_id for f in found] == ["GSD103"]


def test_init_is_exempt_and_unguarded_ok_suppresses():
    src = FIXTURE.replace(
        "        return self.value\n",
        "        return self.value  # unguarded-ok: racy read tolerated for stats\n",
    )
    assert check(src) == []


def test_closures_escape_the_lock_extent():
    src = textwrap.dedent(
        """
        import threading

        class Deferred:
            def __init__(self):
                self._lock = threading.Lock()
                self.items = []  # guarded-by: _lock

            def schedule(self):
                with self._lock:
                    def later():
                        return self.items.pop()
                    return later
        """
    )
    found = check(src)
    assert [f.rule_id for f in found] == ["GSD103"]


def test_other_instance_access_requires_other_lock():
    src = textwrap.dedent(
        """
        import threading

        class Clock:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0.0  # guarded-by: _lock

            def merge(self, other):
                with other._lock:
                    amount = other.total
                with self._lock:
                    self.total += amount

            def steal(self, other):
                with self._lock:
                    self.total += other.total
        """
    )
    found = check(src)
    assert [f.rule_id for f in found] == ["GSD103"]
    assert "other.total" in found[0].message
    assert "steal" in found[0].message


# -- self-test against the real concurrent classes ---------------------------


def _source_of(module):
    return Path(module.__file__).read_text()


def test_real_simclock_and_gatherpool_are_clean():
    assert check(_source_of(timers_mod), "utils/timers.py") == []
    assert check(_source_of(gatherpool_mod), "storage/gatherpool.py") == []


def test_seeded_deguard_in_simclock_is_caught_at_its_line():
    """De-guard one access in a copy of the real source; the checker
    must report exactly that line and nothing else."""
    base = _source_of(timers_mod)
    anchor = "\n\n\nclass WallTimer"
    assert base.count(anchor) == 1
    head, tail = base.split(anchor)  # head ends with SimClock's last line
    seeded = head + (
        "\n"
        "\n"
        "    def _leak(self):\n"
        "        return self._overlap_saved"
    ) + anchor + tail
    leak_line = head.count("\n") + 4  # last line, blank line, def line, then the access
    found = check(seeded, "utils/timers.py")
    assert [f.rule_id for f in found] == ["GSD103"]
    assert found[0].line == leak_line
    assert "self._overlap_saved" in found[0].message
    assert "_lock" in found[0].message
