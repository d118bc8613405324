"""Trace-driven cost-model fit: how well the §4.1 predictions match.

See docs/TUNING.md: trace a run with ``--trace``, then ``graphsd tune``
prints the least-squares scales that map the scheduler's predicted
``C_s`` / ``C_r`` onto the simulated cost each decision charged.
"""

from repro.tune.fit import AuditSample, FitReport, fit_scales, load_audit_samples

__all__ = [
    "AuditSample",
    "FitReport",
    "fit_scales",
    "load_audit_samples",
]
