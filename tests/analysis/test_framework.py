"""The AST checker framework and the per-invariant checkers.

Every test drives the real entry points (``check_text`` / ``run_lint``)
over small in-memory fixtures, pinned to the rule IDs documented in
``docs/ANALYSIS.md``.
"""

import json
import textwrap
from pathlib import Path

import pytest

import repro.core.fciu as fciu_module
import repro.graph.grid as grid_module
import repro.storage.blockfile as blockfile_module
import repro.utils.timers as timers_module
from repro.analysis import (
    check_text,
    collect_sources,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.checkers.charged_io import ChargedIOChecker
from repro.analysis.checkers.determinism import SimDeterminismChecker
from repro.analysis.checkers.dtypes import DtypeSafetyChecker
from repro.analysis.checkers.exceptions import ExceptionHygieneChecker


def rules(findings):
    return [f.rule_id for f in findings]


# -- GSD101: simulation determinism -----------------------------------------


def test_determinism_flags_wallclock_and_randomness_in_core():
    src = textwrap.dedent(
        """
        import time
        import random
        from datetime import datetime
        """
    )
    found = check_text(src, "core/engine.py", [SimDeterminismChecker])
    assert rules(found) == ["GSD101", "GSD101", "GSD101"]


def test_determinism_flags_unseeded_numpy_random():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    found = check_text(src, "storage/disk.py", [SimDeterminismChecker])
    assert rules(found) == ["GSD101"]
    assert found[0].line == 2


def test_determinism_ignores_out_of_scope_dirs_and_sanctioned_rng():
    src = "import time\n"
    assert check_text(src, "bench/harness.py", [SimDeterminismChecker]) == []
    ok = "from repro.utils.rng import make_rng\n"
    assert check_text(ok, "core/engine.py", [SimDeterminismChecker]) == []


def test_determinism_suppressed_with_sim_ok():
    src = "import time  # sim-ok: wall timer reported alongside, never charged\n"
    assert check_text(src, "core/engine.py", [SimDeterminismChecker]) == []


def test_determinism_obs_may_read_wall_clock_but_not_randomness():
    """obs/ records both timelines (docs/OBSERVABILITY.md): time and
    datetime are allowed there, randomness is still forbidden."""
    wall = "import time\nfrom datetime import datetime\n"
    assert check_text(wall, "obs/trace.py", [SimDeterminismChecker]) == []
    rand = "import random\n"
    assert rules(check_text(rand, "obs/trace.py", [SimDeterminismChecker])) == ["GSD101"]
    npr = "import numpy as np\nrng = np.random.default_rng()\n"
    assert rules(check_text(npr, "obs/metrics.py", [SimDeterminismChecker])) == ["GSD101"]


#: The concurrency modules GSD101 bans in every file of the package.
CONCURRENCY_MODULES = (
    "threading",
    "_thread",
    "queue",
    "concurrent.futures",
    "multiprocessing",
    "asyncio",
)
#: Each import form, with ``{m}`` the module.
IMPORT_FORMS = {
    "import": "import {m}",
    "import-sub": "import {m}.sub",
    "from": "from {m} import name",
    "from-sub": "from {m}.sub import name",
}


@pytest.mark.parametrize("form", sorted(IMPORT_FORMS))
@pytest.mark.parametrize("module", CONCURRENCY_MODULES)
def test_determinism_bans_every_concurrency_import_form(module, form):
    src = "x = 1\n" + IMPORT_FORMS[form].format(m=module) + "\n"
    found = check_text(src, "core/engine.py", [SimDeterminismChecker])
    assert [(f.rule_id, f.line) for f in found] == [("GSD101", 2)]
    assert "single-threaded" in found[0].message


@pytest.mark.parametrize(
    "rel", ["utils/timers.py", "bench/harness.py", "obs/trace.py", "cli.py"]
)
def test_determinism_concurrency_ban_is_package_wide(rel):
    """The ban reaches the directories the wall-clock half leaves out."""
    found = check_text("import threading\n", rel, [SimDeterminismChecker])
    assert rules(found) == ["GSD101"]


def test_determinism_utils_may_still_read_wall_clock():
    src = "import time\nfrom datetime import datetime\nimport random\n"
    assert check_text(src, "utils/timers.py", [SimDeterminismChecker]) == []


def test_determinism_package_and_relative_imports_are_not_concurrency():
    src = textwrap.dedent(
        """
        import repro.cluster.messages
        from repro.cluster.messages import Inbox
        from . import queue
        from .queue import Queue
        from ..threading import local
        from .time import now
        """
    )
    assert check_text(src, "core/engine.py", [SimDeterminismChecker]) == []


def test_determinism_sim_ok_suppresses_a_concurrency_import():
    same_line = "import threading  # sim-ok: a fixture, never imported\n"
    above = "# sim-ok: a fixture, never imported\nfrom queue import Queue\n"
    for src in (same_line, above):
        assert check_text(src, "utils/timers.py", [SimDeterminismChecker]) == []


# -- GSD102: charged I/O ------------------------------------------------------


def test_charged_io_flags_raw_open_outside_storage():
    src = "f = open('x.bin', 'rb')\n"
    found = check_text(src, "graph/grid.py", [ChargedIOChecker])
    assert rules(found) == ["GSD102"]


def test_charged_io_allows_storage_layer_and_annotations():
    src = "f = open('x.bin', 'rb')\n"
    assert check_text(src, "storage/blockfile.py", [ChargedIOChecker]) == []
    annotated = (
        "# charged-io-ok: external interchange file\n"
        "f = open('x.bin', 'rb')\n"
    )
    assert check_text(annotated, "graph/io.py", [ChargedIOChecker]) == []


def test_charged_io_flags_numpy_io_and_raw_path_methods():
    src = textwrap.dedent(
        """
        import numpy as np
        data = np.fromfile("x.bin", dtype=np.int64)
        text = path.read_bytes()
        arr.tofile(path)
        """
    )
    found = check_text(src, "core/engine.py", [ChargedIOChecker])
    assert rules(found) == ["GSD102"] * 3


#: Where a raw read is seeded into the real selective reader: the first
#: statement after it sorts its entries into chunks.
SELECTIVE_NEEDLE = "        placed: Dict[int, SelectiveLoad] = {}\n"


def test_self_gsd102_seeded_raw_read_in_real_read_selective():
    """A data read that opens ``.edges`` itself — the shape the grid's
    whole-file read mapping had — inside ``GridStore.read_selective``."""
    base = Path(grid_module.__file__).read_text()
    assert base.count(SELECTIVE_NEEDLE) == 1
    at = base.index(SELECTIVE_NEEDLE)
    assert base.index("    def read_selective(") < at < base.index("    def _read_chunk(")
    raw_read = (
        '        with open(self._edges_file.path, "rb") as f:\n'
        "            f.readinto(bytearray(self._edges_file.nbytes))\n"
    )
    seeded = base[:at] + raw_read + base[at:]
    open_line = base[:at].count("\n") + 1
    findings = check_text(seeded, "graph/grid.py")
    assert [(f.rule_id, f.line) for f in findings] == [("GSD102", open_line)]


def test_real_grid_and_its_reader_are_clean():
    reader = Path(blockfile_module.__file__).read_text()
    assert "os.preadv(" in reader  # the one data reader reads the file itself
    assert check_text(reader, "storage/blockfile.py") == []
    assert check_text(Path(grid_module.__file__).read_text(), "graph/grid.py") == []


# -- GSD101/104/105 on real source -------------------------------------------


#: One defect per case, seeded into real source: (module, lint path, the
#: real text, what replaces it, the text on the line the rule must flag).
#: A case is keyed by the rule it trips, plus ``/<what>`` for a second
#: case of the same rule.
SEEDED = {
    # A wall-clock import in the FCIU round.
    "GSD101": (
        fciu_module,
        "core/fciu.py",
        "from __future__ import annotations\n",
        "from __future__ import annotations\nimport time\n",
        "import time",
    ),
    # A thread import in the simulated clock: utils/ lies outside the
    # wall-clock half's directories, not outside the concurrency ban.
    "GSD101/threading": (
        timers_module,
        "utils/timers.py",
        "from __future__ import annotations\n",
        "from __future__ import annotations\nimport threading\n",
        "import threading",
    ),
    # A block's offsets array built in numpy's default float64.
    "GSD104": (
        grid_module,
        "graph/grid.py",
        "np.zeros(hi - lo + 1, dtype=_narrowest_uint(self.count))",
        "np.zeros(hi - lo + 1)",
        "np.zeros(hi - lo + 1)",
    ),
    # An unreadable checksum sidecar swallowed instead of raised as a
    # ChecksumError.
    "GSD105": (
        blockfile_module,
        "storage/blockfile.py",
        "                except (ValueError, OSError) as exc:\n"
        "                    raise ChecksumError(\n"
        '                        f"unreadable checksum sidecar for {self.path.name}: {exc}"\n'
        "                    ) from exc\n",
        "                except Exception:\n                    pass\n",
        "except Exception:",
    ),
}


@pytest.mark.parametrize("case", sorted(SEEDED))
def test_self_seeded_defect_in_real_source_fires_at_its_line(case):
    module, rel, real, seed, flagged = SEEDED[case]
    rule = case.split("/", 1)[0]
    base = Path(module.__file__).read_text()
    assert base.count(real) == 1
    assert check_text(base, rel) == []
    seeded = base.replace(real, seed)
    line = seeded[: seeded.index(flagged)].count("\n") + 1
    assert [(f.rule_id, f.line) for f in check_text(seeded, rel)] == [(rule, line)]


# -- GSD104: explicit dtypes --------------------------------------------------


def test_dtype_flags_defaulted_constructors_in_hot_paths():
    src = textwrap.dedent(
        """
        import numpy as np
        a = np.zeros(10)
        b = np.arange(5)
        c = np.empty(3, dtype=np.int64)
        """
    )
    found = check_text(src, "algorithms/pagerank.py", [DtypeSafetyChecker])
    assert rules(found) == ["GSD104", "GSD104"]
    assert [f.line for f in found] == [3, 4]


def test_dtype_flags_builtin_int_as_dtype():
    src = "import numpy as np\na = np.zeros(4, dtype=int)\nb = x.astype(int)\n"
    found = check_text(src, "core/engine.py", [DtypeSafetyChecker])
    assert rules(found) == ["GSD104", "GSD104"]


def test_dtype_exempts_array_and_out_of_scope_dirs():
    src = "import numpy as np\na = np.array([1, 2])\nb = np.asarray([3])\n"
    assert check_text(src, "core/engine.py", [DtypeSafetyChecker]) == []
    src2 = "import numpy as np\na = np.zeros(10)\n"
    assert check_text(src2, "bench/harness.py", [DtypeSafetyChecker]) == []


# -- GSD105: exception hygiene ------------------------------------------------


def test_exceptions_flags_blanket_swallow():
    src = textwrap.dedent(
        """
        try:
            work()
        except Exception:
            pass
        """
    )
    found = check_text(src, "bench/harness.py", [ExceptionHygieneChecker])
    assert rules(found) == ["GSD105"]


def test_exceptions_allows_reraise_or_use_of_the_exception():
    src = textwrap.dedent(
        """
        try:
            work()
        except Exception as exc:
            log.append(str(exc))
        try:
            work()
        except Exception:
            raise
        """
    )
    assert check_text(src, "core/engine.py", [ExceptionHygieneChecker]) == []


def test_exceptions_narrow_handlers_are_fine():
    src = "try:\n    work()\nexcept (ValueError, KeyError):\n    pass\n"
    assert check_text(src, "core/engine.py", [ExceptionHygieneChecker]) == []


# -- GSD100: annotation grammar ----------------------------------------------


def test_empty_annotation_reason_is_a_finding():
    src = "f = open('x')  # charged-io-ok:\n"
    found = check_text(src, "graph/io.py", [ChargedIOChecker])
    assert "GSD100" in rules(found)


# -- finding keys and the baseline -------------------------------------------


def test_finding_keys_are_line_number_independent():
    src_a = "import time\n"
    src_b = "\n\n\nimport time\n"
    (fa,) = check_text(src_a, "core/x.py", [SimDeterminismChecker])
    (fb,) = check_text(src_b, "core/x.py", [SimDeterminismChecker])
    assert fa.line != fb.line
    assert fa.key == fb.key


def test_baseline_roundtrip_and_filtering(tmp_path):
    bad = tmp_path / "core"
    bad.mkdir()
    (bad / "x.py").write_text("import time\n")
    result = run_lint(paths=[tmp_path], root=tmp_path)
    assert result.exit_code == 1
    assert len(result.new_findings) == 1

    baseline_path = tmp_path / "baseline.json"
    write_baseline(result.findings, baseline_path)
    reloaded = load_baseline(baseline_path)
    result2 = run_lint(paths=[tmp_path], root=tmp_path, baseline=reloaded)
    assert result2.exit_code == 0
    assert result2.baselined == 1
    assert result2.new_findings == []


def test_malformed_baseline_raises_value_error(tmp_path):
    p = tmp_path / "baseline.json"
    p.write_text("{not json")
    with pytest.raises(ValueError, match="malformed baseline"):
        load_baseline(p)
    p.write_text(json.dumps({"version": 1}))
    with pytest.raises(ValueError, match="malformed baseline"):
        load_baseline(p)


def test_collect_sources_rejects_missing_paths(tmp_path):
    with pytest.raises(ValueError, match="does not exist"):
        collect_sources([tmp_path / "nope"])


def test_parse_errors_fail_the_run(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    result = run_lint(paths=[tmp_path], root=tmp_path)
    assert result.exit_code == 1
    assert result.parse_errors


def test_every_checker_has_distinct_rule_id():
    ids = [cls.rule_id for cls in ALL_CHECKERS]
    assert len(ids) == len(set(ids))
