"""Persistent results: content-addressed store, resume, regression diff.

This package makes measurement results durable and addressable:

* :mod:`repro.store.keys` — canonical serialization and BLAKE2b keying
  of visits (config + page + hosts + vantage + derived seed + schema
  version),
* :mod:`repro.store.store` — :class:`ResultStore`, one stdlib-``sqlite3``
  file holding compact visit records as BLOBs, with named runs, a
  per-visit write-ahead journal (resumable campaigns), ``verify`` and
  ``gc``,
* :mod:`repro.store.diff` — per-page PLT regression diffing between
  named runs with bootstrap confidence intervals (the CI perf gate),
* :mod:`repro.store.cli` — ``python -m repro.store``
  (``stats`` / ``verify`` / ``gc`` / ``diff``).

The core guarantee mirrors :mod:`repro.obs` and :mod:`repro.check`:
attaching a store is *observational*.  A plan run with ``store=...``
executes cache misses exactly as a store-less run would and replays
hits bit-identically, so results never depend on what the store
happened to contain.
"""

from repro.store.diff import DEFAULT_THRESHOLD_MS, ModeDelta, PageDelta, RunDiff, diff_runs
from repro.store.keys import (
    STORE_SCHEMA_VERSION,
    campaign_config_hash,
    canonical_json,
    consecutive_key,
    paired_visit_key,
    visit_config_part,
)
from repro.store.stats import StoreStats
from repro.store.store import (
    GcReport,
    ResultStore,
    RunInfo,
    StoreError,
    VerifyProblem,
)

__all__ = [
    "DEFAULT_THRESHOLD_MS",
    "GcReport",
    "ModeDelta",
    "PageDelta",
    "ResultStore",
    "RunDiff",
    "RunInfo",
    "STORE_SCHEMA_VERSION",
    "StoreError",
    "StoreStats",
    "VerifyProblem",
    "campaign_config_hash",
    "canonical_json",
    "consecutive_key",
    "diff_runs",
    "paired_visit_key",
    "visit_config_part",
]
