"""The project-invariant checkers (rule registry)."""

from __future__ import annotations

from typing import List, Type

from repro.analysis.base import Checker
from repro.analysis.checkers.charged_io import ChargedIOChecker
from repro.analysis.checkers.determinism import SimDeterminismChecker
from repro.analysis.checkers.dtypes import DtypeSafetyChecker
from repro.analysis.checkers.exceptions import ExceptionHygieneChecker
from repro.analysis.checkers.order import IterationOrderChecker

ALL_CHECKERS: List[Type[Checker]] = [
    SimDeterminismChecker,
    ChargedIOChecker,
    DtypeSafetyChecker,
    ExceptionHygieneChecker,
    IterationOrderChecker,
]

__all__ = [
    "ALL_CHECKERS",
    "ChargedIOChecker",
    "DtypeSafetyChecker",
    "ExceptionHygieneChecker",
    "IterationOrderChecker",
    "SimDeterminismChecker",
]
