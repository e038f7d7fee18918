"""The result store: one sqlite file holding index and payloads.

Layout of a store directory::

    <root>/index.sqlite3    entries with their payloads, named runs,
                            visit journal

Each ``entries`` row maps a content-addressed key to its payload, a
BLOB, and the payload's BLAKE2b hash.  The first byte tells the two
payload kinds apart:

* a paired visit is a compact record
  (:meth:`~repro.measurement.outcome.VisitOutcome.to_record`, first
  byte ``RECORD_MAGIC``), stored as the bytes the pool worker sent;
* a consecutive walk, and every payload of a store written before the
  record existed, is a canonical-JSON document (first byte ``{``).

:meth:`ResultStore.get` returns a record's bytes as they are and a JSON
document parsed.  The ``record_layout`` row of ``meta`` names the
layout of the store's records.

Entries commit together with their journal rows, one transaction per
batch of visits — that transaction sequence *is* the write-ahead
journal that makes interrupted campaigns resumable: a killed run leaves
every committed visit durable and replayable, and nothing half-written.
A named run opens in its first batch and closes in its last, so a run
killed before its first batch leaves the store as it was.

A store written with the older layout (payloads appended to an
``artifacts.jsonl`` spill file, indexed by offset and length) is
migrated on open: its payload bytes move into the BLOB column
unchanged, so their hashes and keys still hold, and the spill file is
removed.

Named runs map a label to the ordered key list of a finished campaign
(``run_visits``) plus the per-visit completion journal (``journal``).
``gc`` prunes entries reachable from neither; ``verify`` re-hashes
every payload against the index and re-checks the HAR invariants from
:mod:`repro.check`.

Single-writer by design: the campaign parent process is the only
writer (workers ship outcomes back over the pool), so there is no
cross-process locking beyond sqlite's own.
"""

from __future__ import annotations

import io
import json
import os
import sqlite3
import struct
import time
from dataclasses import dataclass, field

from repro.store.keys import STORE_SCHEMA_VERSION, blake2b_hex, canonical_json
from repro.store.stats import StoreStats

__all__ = [
    "GcReport",
    "ResultStore",
    "RunInfo",
    "StoreError",
    "StoreStats",
    "VerifyProblem",
]


class StoreError(Exception):
    """A store-level failure (schema mismatch, unknown run, corruption)."""


@dataclass(frozen=True)
class VerifyProblem:
    """One integrity failure found by :meth:`ResultStore.verify`."""

    key: str
    problem: str
    detail: str

    def __str__(self) -> str:
        return f"{self.key[:12]}…: {self.problem} — {self.detail}"


@dataclass
class GcReport:
    """What one :meth:`ResultStore.gc` pass did (or would do)."""

    entries_before: int = 0
    entries_pruned: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    dry_run: bool = False

    @property
    def bytes_reclaimed(self) -> int:
        return self.bytes_before - self.bytes_after


@dataclass(frozen=True)
class RunInfo:
    """One named run's index record."""

    name: str
    config_hash: str
    complete: bool
    n_visits: int
    journaled: int
    created_unix: float = field(compare=False, default=0.0)


_ENTRIES = """
CREATE TABLE IF NOT EXISTS entries (
    key TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    payload BLOB NOT NULL,
    payload_hash TEXT NOT NULL,
    config_hash TEXT NOT NULL,
    page_url TEXT,
    probe TEXT,
    created_unix REAL NOT NULL
)"""

_SCHEMA = _ENTRIES + """;
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    name TEXT PRIMARY KEY,
    config_hash TEXT NOT NULL,
    created_unix REAL NOT NULL,
    complete INTEGER NOT NULL DEFAULT 0,
    n_visits INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS run_visits (
    run_name TEXT NOT NULL,
    position INTEGER NOT NULL,
    key TEXT NOT NULL,
    PRIMARY KEY (run_name, position)
);
CREATE TABLE IF NOT EXISTS journal (
    run_name TEXT NOT NULL,
    seq INTEGER NOT NULL,
    key TEXT NOT NULL,
    source TEXT NOT NULL,
    created_unix REAL NOT NULL,
    PRIMARY KEY (run_name, seq)
);
CREATE INDEX IF NOT EXISTS idx_run_visits_key ON run_visits (key);
CREATE INDEX IF NOT EXISTS idx_journal_key ON journal (key);
"""


class ResultStore:
    """Content-addressed persistence for measurement results."""

    def __init__(self, root: str) -> None:
        from repro.measurement.outcome import RECORD_LAYOUT

        self.root = root
        os.makedirs(root, exist_ok=True)
        self.index_path = os.path.join(root, "index.sqlite3")
        self._db = sqlite3.connect(self.index_path)
        self._db.executescript(_SCHEMA)
        self._check_version("schema_version", STORE_SCHEMA_VERSION)
        self._check_version("record_layout", RECORD_LAYOUT)
        self._migrate_spill()
        #: Instance-wide accounting; campaign runners additionally keep
        #: per-campaign :class:`StoreStats`.
        self.stats = StoreStats()

    # -- lifecycle -----------------------------------------------------

    def _check_version(self, name: str, supported: int) -> None:
        row = self._db.execute(
            "SELECT value FROM meta WHERE key = ?", (name,)
        ).fetchone()
        if row is None:
            with self._db:
                self._db.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    (name, str(supported)),
                )
        elif int(row[0]) != supported:
            raise StoreError(
                f"{self.index_path}: store {name} {row[0]} != "
                f"supported {supported}"
            )

    def _migrate_spill(self) -> None:
        """Move the payloads of an ``artifacts.jsonl`` store into the index."""
        spill = os.path.join(self.root, "artifacts.jsonl")
        columns = {row[1] for row in self._db.execute("PRAGMA table_info(entries)")}
        if "payload" not in columns:
            rows = self._db.execute(
                "SELECT key, kind, offset, length, payload_hash, config_hash,"
                " page_url, probe, created_unix FROM entries ORDER BY offset"
            ).fetchall()
            # A missing spill file migrates as empty payloads, which
            # fail their hash check on read and in `verify`.
            source = open(spill, "rb") if os.path.exists(spill) else io.BytesIO()
            with source:
                self._db.execute("BEGIN")
                with self._db:
                    self._db.execute("ALTER TABLE entries RENAME TO spill_entries")
                    self._db.execute(_ENTRIES)
                    for key, kind, offset, length, *rest in rows:
                        source.seek(offset)
                        self._db.execute(
                            "INSERT INTO entries VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                            (key, kind, source.read(length), *rest),
                        )
                    self._db.execute("DROP TABLE spill_entries")
        if os.path.exists(spill):
            os.remove(spill)

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- entries -------------------------------------------------------

    def contains(self, key: str) -> bool:
        row = self._db.execute(
            "SELECT 1 FROM entries WHERE key = ?", (key,)
        ).fetchone()
        return row is not None

    def get(self, key: str) -> dict | bytes | None:
        """The payload for ``key``, or ``None`` on a miss.

        A JSON payload is returned parsed, a record as its bytes (decode
        it with :meth:`~repro.measurement.outcome.VisitOutcome.from_payload`).
        Every read re-hashes the payload against the index — a silently
        corrupted payload raises :class:`StoreError` instead of
        replaying garbage into a campaign.
        """
        row = self._db.execute(
            "SELECT payload, payload_hash FROM entries WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            self.stats.misses += 1
            return None
        payload, payload_hash = row
        if blake2b_hex(payload) != payload_hash:
            raise StoreError(
                f"payload corruption for key {key}: payload hash mismatch "
                f"(run `python -m repro.store verify`)"
            )
        self.stats.hits += 1
        return _parse(payload)

    def put(
        self,
        key: str,
        document: dict | bytes,
        *,
        kind: str,
        config_hash: str,
        page_url: str | None = None,
        probe: str | None = None,
    ) -> bool:
        """Durably store ``document`` under ``key``; idempotent.

        ``document`` is a JSON-able dict or an encoded record.  Returns
        ``False`` (writing nothing) when the key already exists —
        content addressing makes re-puts of the same key equivalent.
        """
        return self.put_batch([{
            "key": key,
            "document": document,
            "kind": kind,
            "config_hash": config_hash,
            "page_url": page_url,
            "probe": probe,
        }]) == 1

    # -- named runs and the visit journal ------------------------------

    def put_batch(
        self,
        entries: list[dict],
        *,
        journal: list[tuple[str, str, str]] = (),
        run_visits: list[tuple[str, int, str]] = (),
        open_runs: list[tuple[str, str, bool]] = (),
        close_runs: list[tuple[str, int]] = (),
    ) -> int:
        """Write several entries + journal rows in **one** transaction.

        The store's one write path.  ``entries`` items carry the same
        fields as :meth:`put` keyword arguments (``key``, ``document``,
        ``kind``, ``config_hash``, optional ``page_url``/``probe``);
        existing keys are skipped.  A ``document`` given as bytes (an
        encoded record) is stored as it is; a dict as canonical JSON.
        ``journal`` rows are ``(run_name, key, source)`` triples and
        ``run_visits`` rows are ``(run_name, position, key)`` — both
        commit atomically with the entries, so a batch is either fully
        durable or not there at all.  This is the streaming executor's
        write-through batching: one commit per *batch* instead of per
        visit.

        A named run opens and closes inside these transactions.
        ``open_runs`` rows are ``(run_name, config_hash, resume)``: the
        run's ``runs`` row is reset to incomplete and its ``run_visits``
        rows (and, without ``resume``, its journal) are deleted before
        anything else in the batch is written.  ``close_runs`` rows are
        ``(run_name, n_visits)`` and mark the run complete after
        everything else.  A run whose opening batch never commits
        leaves the store as it was.

        Returns the number of new entries written.
        """
        new_rows: list[tuple] = []
        seen: set[str] = set()
        for item in entries:
            key = item["key"]
            if key in seen or self.contains(key):
                continue
            seen.add(key)
            payload = item["document"]
            if not isinstance(payload, bytes):
                payload = canonical_json(payload).encode()
            new_rows.append(
                (
                    key,
                    item["kind"],
                    payload,
                    blake2b_hex(payload),
                    item["config_hash"],
                    item.get("page_url"),
                    item.get("probe"),
                    time.time(),
                )
            )
        with self._db:
            for run_name, config_hash, resume in open_runs:
                if not resume:
                    self._db.execute(
                        "DELETE FROM journal WHERE run_name = ?", (run_name,)
                    )
                self._db.execute(
                    "DELETE FROM run_visits WHERE run_name = ?", (run_name,)
                )
                self._db.execute(
                    "INSERT OR REPLACE INTO runs"
                    " (name, config_hash, created_unix, complete, n_visits)"
                    " VALUES (?, ?, ?, 0, 0)",
                    (run_name, config_hash, time.time()),
                )
            if new_rows:
                self._db.executemany(
                    "INSERT INTO entries VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    new_rows,
                )
            next_seq: dict[str, int] = {}
            for run_name, key, source in journal:
                if run_name not in next_seq:
                    next_seq[run_name] = self._db.execute(
                        "SELECT COALESCE(MAX(seq), -1) + 1 FROM journal"
                        " WHERE run_name = ?",
                        (run_name,),
                    ).fetchone()[0]
                self._db.execute(
                    "INSERT INTO journal (run_name, seq, key, source,"
                    " created_unix) VALUES (?, ?, ?, ?, ?)",
                    (run_name, next_seq[run_name], key, source, time.time()),
                )
                next_seq[run_name] += 1
            if run_visits:
                self._db.executemany(
                    "INSERT OR REPLACE INTO run_visits"
                    " (run_name, position, key) VALUES (?, ?, ?)",
                    list(run_visits),
                )
            if close_runs:
                self._db.executemany(
                    "UPDATE runs SET complete = 1, n_visits = ? WHERE name = ?",
                    [(n_visits, run_name) for run_name, n_visits in close_runs],
                )
        self.stats.writes += len(new_rows)
        return len(new_rows)

    def journal_keys(self, name: str) -> list[str]:
        """Journaled visit keys of ``name``, in completion order."""
        return [
            row[0]
            for row in self._db.execute(
                "SELECT key FROM journal WHERE run_name = ? ORDER BY seq",
                (name,),
            )
        ]

    def run_names(self) -> list[str]:
        return [
            row[0]
            for row in self._db.execute("SELECT name FROM runs ORDER BY name")
        ]

    def run_info(self, name: str) -> RunInfo | None:
        row = self._db.execute(
            "SELECT config_hash, complete, n_visits, created_unix"
            " FROM runs WHERE name = ?",
            (name,),
        ).fetchone()
        if row is None:
            return None
        journaled = self._db.execute(
            "SELECT COUNT(*) FROM journal WHERE run_name = ?", (name,)
        ).fetchone()[0]
        return RunInfo(
            name=name,
            config_hash=row[0],
            complete=bool(row[1]),
            n_visits=row[2],
            journaled=journaled,
            created_unix=row[3],
        )

    def run_keys(self, name: str) -> list[str]:
        """The ordered visit keys of a *complete* named run."""
        info = self.run_info(name)
        if info is None:
            raise StoreError(
                f"unknown run {name!r}; known: {', '.join(self.run_names()) or '(none)'}"
            )
        return [
            row[0]
            for row in self._db.execute(
                "SELECT key FROM run_visits WHERE run_name = ?"
                " ORDER BY position",
                (name,),
            )
        ]

    def run_outcomes(self, name: str) -> list:
        """Every stored :class:`~repro.measurement.outcome.VisitOutcome`
        of a named run, in visit order."""
        from repro.measurement.consecutive import WALK_FORMAT
        from repro.measurement.outcome import VisitOutcome

        outcomes = []
        for key in self.run_keys(name):
            payload = self.get(key)
            if payload is None:
                raise StoreError(
                    f"run {name!r} references missing entry {key} "
                    "(gc'd or never finished?)"
                )
            if isinstance(payload, dict) and payload.get("format") == WALK_FORMAT:
                raise StoreError(
                    f"run {name!r} holds consecutive walks, not paired visits"
                )
            outcomes.append(VisitOutcome.from_payload(payload))
        return outcomes

    # -- maintenance ---------------------------------------------------

    def stats_summary(self) -> dict:
        """Store-wide inventory (the ``stats`` subcommand's payload)."""
        by_kind = self._db.execute(
            "SELECT kind, COUNT(*), SUM(LENGTH(payload)) FROM entries GROUP BY kind"
        ).fetchall()
        return {
            "schema_version": STORE_SCHEMA_VERSION,
            "entries": sum(count for _, count, _ in by_kind),
            "entries_by_kind": {kind: count for kind, count, _ in by_kind},
            "artifact_bytes": sum(size for _, _, size in by_kind),
            "index_bytes": os.path.getsize(self.index_path),
            "runs": [
                {
                    "name": info.name,
                    "config_hash": info.config_hash,
                    "complete": info.complete,
                    "n_visits": info.n_visits,
                    "journaled": info.journaled,
                }
                for info in (
                    self.run_info(name) for name in self.run_names()
                )
                if info is not None
            ],
        }

    def verify(self) -> list[VerifyProblem]:
        """Re-hash every payload and re-check stored HAR invariants.

        Two layers: byte-level integrity (the payload's BLAKE2b hash
        against the index row) and semantic integrity (each stored
        visit decodes, and its HAR still satisfies the :mod:`repro.check`
        timing invariants — the same ones strict mode enforces at
        collection time).  Returns every problem found; an empty list
        means clean.
        """
        from repro.check.context import CheckContext
        from repro.check.visit import check_har

        problems: list[VerifyProblem] = []
        rows = self._db.execute(
            "SELECT key, kind, payload, payload_hash FROM entries ORDER BY rowid"
        )
        for key, kind, payload, payload_hash in rows:
            if blake2b_hex(payload) != payload_hash:
                problems.append(
                    VerifyProblem(key, "hash_mismatch", "payload re-hash differs")
                )
                continue
            try:
                visits = _stored_visits(kind, _parse(payload))
            except (KeyError, ValueError, TypeError, IndexError, struct.error) as exc:
                problems.append(
                    VerifyProblem(key, "bad_payload", f"{type(exc).__name__}: {exc}")
                )
                continue
            for visit in visits:
                check = CheckContext(mode="collect")
                check_har(check, visit.har)
                for violation in check.violations:
                    problems.append(
                        VerifyProblem(key, "har_invariant", str(violation))
                    )
        return problems

    def reachable_keys(self) -> set[str]:
        """Keys referenced by any named run or any run's journal.

        Journal references keep an *interrupted* run's completed visits
        alive, so a gc between the crash and the ``--resume`` never
        throws the recoverable work away.
        """
        reachable = {
            row[0] for row in self._db.execute("SELECT key FROM run_visits")
        }
        reachable.update(
            row[0] for row in self._db.execute("SELECT key FROM journal")
        )
        return reachable

    def gc(self, dry_run: bool = False) -> GcReport:
        """Prune entries unreachable from named runs.

        Reachability is defined by :meth:`reachable_keys`.  A pass that
        prunes anything vacuums the database afterwards, so reclaimed
        bytes are returned to the filesystem rather than left as free
        pages.
        """
        sizes = self._db.execute(
            "SELECT key, LENGTH(payload) FROM entries"
        ).fetchall()
        reachable = self.reachable_keys()
        report = GcReport(
            entries_before=len(sizes),
            entries_pruned=sum(1 for key, _ in sizes if key not in reachable),
            bytes_before=sum(size for _, size in sizes),
            bytes_after=sum(size for key, size in sizes if key in reachable),
            dry_run=dry_run,
        )
        if dry_run or not report.entries_pruned:
            return report
        with self._db:
            self._db.execute(
                "DELETE FROM entries WHERE key NOT IN (SELECT key FROM"
                " run_visits UNION SELECT key FROM journal)"
            )
        self._db.execute("VACUUM")
        return report


def _parse(payload: bytes) -> dict | bytes:
    """A JSON payload parsed; a record's bytes as they are."""
    return json.loads(payload) if payload[:1] == b"{" else payload


def _stored_visits(kind: str, payload: dict | bytes) -> list:
    """The :class:`~repro.browser.browser.PageVisit` values a payload carries."""
    if isinstance(payload, bytes):
        from repro.measurement.outcome import VisitOutcome

        outcome = VisitOutcome.from_record(payload)
        return [visit for visit in (outcome.h2, outcome.h3) if visit is not None]
    from repro.browser.browser import PageVisit

    if kind == "paired":
        documents = [
            doc for doc in (payload.get("h2"), payload.get("h3")) if doc is not None
        ]
    elif kind == "consecutive":
        documents = list(payload.get("visits", ()))
    else:
        documents = []
    return [PageVisit.from_dict(document) for document in documents]
