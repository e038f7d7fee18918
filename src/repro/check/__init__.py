"""Runtime invariant checking: the simulator's sanitizer.

``repro.check`` threads a :class:`CheckContext` of cheap assertions
through the same seams as :mod:`repro.obs` — event loop, transport,
connection pool, browser — so a run can *prove* its mechanics stayed
honest instead of silently emitting a negative wait time or a cwnd
that grew under loss.  Off by default: without a context every hook
costs one falsy check against :data:`NULL_CHECK` (the same pattern as
``NULL_TRACER``) and results are bit-identical.

Enable it with ``preset(...).with_strict()``, ``CampaignConfig(strict=True)``
or the CLI's ``--strict`` flag.  See ``docs/checking.md`` for the
invariant catalog.
"""

from repro.check.context import (
    NULL_CHECK,
    CheckContext,
    InvariantViolation,
    NullCheck,
    Violation,
)
from repro.check.controller import CheckedController
from repro.check.visit import check_entry, check_visit

__all__ = [
    "CheckContext",
    "CheckedController",
    "InvariantViolation",
    "NullCheck",
    "NULL_CHECK",
    "Violation",
    "check_entry",
    "check_visit",
]
