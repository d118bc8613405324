"""GraphSD's core: the paper's primary contribution.

* :class:`GraphSDEngine` + :class:`GraphSDConfig` — Algorithm 1 with all
  ablation switches (§5.4's -b1..-b4 variants, buffering on/off);
* :class:`AsyncGraphSDEngine` — priority-driven asynchronous execution
  for monotonic programs (fixed-point-equivalent to BSP, see
  :mod:`repro.core.convergence`);
* :class:`StateAwareScheduler` — the §4.1 cost-model-driven choice
  between the on-demand and full I/O access models;
* :mod:`repro.core.sciu` / :mod:`repro.core.fciu` — Algorithms 2 and 3;
* :class:`SubBlockBuffer` — §4.3 priority buffering of secondary
  sub-blocks;
* :class:`RunResult` — the uniform engine output record.
"""

from repro.core.async_engine import AsyncGraphSDEngine
from repro.core.buffer import SubBlockBuffer
from repro.core.convergence import (
    assert_fixed_point_equivalent,
    fixed_point_diff,
    require_async_capable,
)
from repro.core.engine import (
    DEFAULT_BUFFER_FRACTION,
    GraphSDConfig,
    GraphSDEngine,
)
from repro.core.engine_base import EngineBase
from repro.core.result import IterationRecord, RunResult
from repro.core.scheduler import (
    CostEstimate,
    IOModel,
    StateAwareScheduler,
    DEFAULT_SEQ_RUN_THRESHOLD,
)

__all__ = [
    "SubBlockBuffer",
    "DEFAULT_BUFFER_FRACTION",
    "GraphSDConfig",
    "GraphSDEngine",
    "AsyncGraphSDEngine",
    "assert_fixed_point_equivalent",
    "fixed_point_diff",
    "require_async_capable",
    "EngineBase",
    "IterationRecord",
    "RunResult",
    "CostEstimate",
    "IOModel",
    "StateAwareScheduler",
    "DEFAULT_SEQ_RUN_THRESHOLD",
]
