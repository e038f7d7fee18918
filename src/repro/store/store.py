"""The result store: sqlite index + JSONL artifact spill.

Layout of a store directory::

    <root>/index.sqlite3    entry index, named runs, visit journal
    <root>/artifacts.jsonl  append-only canonical-JSON payloads

The sqlite database is the source of truth: each ``entries`` row maps a
content-addressed key to a ``(offset, length, payload_hash)`` slice of
the artifact file.  Payloads are written append-only and committed
together with their index row, one transaction per visit — that
transaction sequence *is* the write-ahead journal that makes
interrupted campaigns resumable: a killed run leaves every completed
visit durable and replayable, and at worst one orphaned artifact line
(no index row), which ``gc`` compacts away.

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

import json
import os
import sqlite3
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


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    key TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL,
    payload_hash TEXT NOT NULL,
    config_hash TEXT NOT NULL,
    page_url TEXT,
    probe TEXT,
    created_unix REAL NOT NULL
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
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.index_path = os.path.join(root, "index.sqlite3")
        self.artifacts_path = os.path.join(root, "artifacts.jsonl")
        self._db = sqlite3.connect(self.index_path)
        self._db.executescript(_SCHEMA)
        self._check_schema_version()
        # Append handle (created lazily so read-only consumers never
        # touch the artifact file) and a separate read handle.
        self._append = None
        self._read = None
        #: Instance-wide accounting; campaign runners additionally keep
        #: per-campaign :class:`StoreStats`.
        self.stats = StoreStats()

    # -- lifecycle -----------------------------------------------------

    def _check_schema_version(self) -> None:
        row = self._db.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            with self._db:
                self._db.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
        elif int(row[0]) != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"{self.index_path}: store schema v{row[0]} != "
                f"supported v{STORE_SCHEMA_VERSION}"
            )

    def close(self) -> None:
        if self._append is not None:
            self._append.close()
            self._append = None
        if self._read is not None:
            self._read.close()
            self._read = None
        self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- raw payload I/O ----------------------------------------------

    def _append_handle(self):
        if self._append is None:
            self._append = open(self.artifacts_path, "ab")
        return self._append

    def _read_payload(self, offset: int, length: int) -> bytes:
        if self._append is not None:
            self._append.flush()
        if self._read is None:
            self._read = open(self.artifacts_path, "rb")
        self._read.seek(offset)
        return self._read.read(length)

    # -- entries -------------------------------------------------------

    def contains(self, key: str) -> bool:
        row = self._db.execute(
            "SELECT 1 FROM entries WHERE key = ?", (key,)
        ).fetchone()
        return row is not None

    def get(self, key: str) -> dict | None:
        """The payload document for ``key``, or ``None`` on a miss.

        Every read re-hashes the payload against the index — a silently
        corrupted artifact file raises :class:`StoreError` instead of
        replaying garbage into a campaign.
        """
        row = self._db.execute(
            "SELECT offset, length, payload_hash FROM entries WHERE key = ?",
            (key,),
        ).fetchone()
        if row is None:
            self.stats.misses += 1
            return None
        offset, length, payload_hash = row
        payload = self._read_payload(offset, length)
        if len(payload) != length or blake2b_hex(payload) != payload_hash:
            raise StoreError(
                f"artifact corruption for key {key}: payload hash mismatch "
                f"(run `python -m repro.store verify`)"
            )
        self.stats.hits += 1
        return json.loads(payload)

    def put(
        self,
        key: str,
        document: dict,
        *,
        kind: str,
        config_hash: str,
        page_url: str | None = None,
        probe: str | None = None,
    ) -> bool:
        """Durably store ``document`` under ``key``; idempotent.

        Returns ``False`` (writing nothing) when the key already exists
        — content addressing makes re-puts of the same key equivalent.
        The artifact append and the index insert commit in one
        transaction, which is the per-visit write-ahead step.
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

    def begin_run(
        self, name: str, *, config_hash: str, resume: bool = False
    ) -> set[str]:
        """Open (or reopen) a named run; returns prior journaled keys.

        Without ``resume`` any earlier run record and journal under
        ``name`` is discarded and the returned set is empty.  With
        ``resume`` the prior journal survives and its key set is
        returned, so the caller can tell recovered visits (store hits
        that a crashed invocation already completed) from replays of
        older runs.
        """
        prior: set[str] = set()
        with self._db:
            if resume:
                prior = {
                    row[0]
                    for row in self._db.execute(
                        "SELECT key FROM journal WHERE run_name = ?", (name,)
                    )
                }
            else:
                self._db.execute(
                    "DELETE FROM journal WHERE run_name = ?", (name,)
                )
            self._db.execute(
                "DELETE FROM run_visits WHERE run_name = ?", (name,)
            )
            self._db.execute(
                "INSERT OR REPLACE INTO runs"
                " (name, config_hash, created_unix, complete, n_visits)"
                " VALUES (?, ?, ?, 0, 0)",
                (name, config_hash, time.time()),
            )
        return prior

    def put_batch(
        self,
        entries: list[dict],
        *,
        journal: list[tuple[str, str, str]] = (),
        run_visits: list[tuple[str, int, str]] = (),
    ) -> int:
        """Write several entries + journal rows in **one** transaction.

        The store's one write path.  ``entries`` items carry the same
        fields as :meth:`put` keyword arguments (``key``, ``document``,
        ``kind``, ``config_hash``, optional ``page_url``/``probe``);
        existing keys are skipped.
        ``journal`` rows are ``(run_name, key, source)`` triples and
        ``run_visits`` rows are ``(run_name, position, key)`` — both
        commit atomically with the entry index, so a batch is either
        fully durable or (at worst) orphaned artifact bytes that ``gc``
        compacts away.  This is the streaming executor's write-through
        batching: one fsync-ish commit per *batch* instead of per visit.

        Returns the number of new entries written.
        """
        new_rows: list[tuple] = []
        seen: set[str] = set()
        handle = None
        for item in entries:
            key = item["key"]
            if key in seen or self.contains(key):
                continue
            seen.add(key)
            payload = (canonical_json(item["document"]) + "\n").encode()
            if handle is None:
                handle = self._append_handle()
                handle.seek(0, os.SEEK_END)
            offset = handle.tell()
            handle.write(payload)
            new_rows.append(
                (
                    key,
                    item["kind"],
                    offset,
                    len(payload),
                    blake2b_hex(payload),
                    item["config_hash"],
                    item.get("page_url"),
                    item.get("probe"),
                    time.time(),
                )
            )
        if handle is not None:
            handle.flush()
        with self._db:
            if new_rows:
                self._db.executemany(
                    "INSERT INTO entries (key, kind, offset, length,"
                    " payload_hash, config_hash, page_url, probe,"
                    " created_unix) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
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
        self.stats.writes += len(new_rows)
        return len(new_rows)

    def mark_run_complete(self, name: str, n_visits: int) -> None:
        """Flip a run to complete once its visit list has been written.

        Callers append the ``run_visits`` rows through :meth:`put_batch`
        (the streaming executor batch by batch); this is the closing
        bookend.
        """
        with self._db:
            self._db.execute(
                "UPDATE runs SET complete = 1, n_visits = ? WHERE name = ?",
                (n_visits, name),
            )

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

    def run_outcomes(self, name: str) -> list[dict]:
        """Every stored payload of a named run, in visit order."""
        documents = []
        for key in self.run_keys(name):
            document = self.get(key)
            if document is None:
                raise StoreError(
                    f"run {name!r} references missing entry {key} "
                    "(gc'd or never finished?)"
                )
            documents.append(document)
        return documents

    # -- maintenance ---------------------------------------------------

    def stats_summary(self) -> dict:
        """Store-wide inventory (the ``stats`` subcommand's payload)."""
        kinds = dict(
            self._db.execute(
                "SELECT kind, COUNT(*) FROM entries GROUP BY kind"
            ).fetchall()
        )
        if self._append is not None:
            self._append.flush()
        artifact_bytes = (
            os.path.getsize(self.artifacts_path)
            if os.path.exists(self.artifacts_path)
            else 0
        )
        return {
            "schema_version": STORE_SCHEMA_VERSION,
            "entries": sum(kinds.values()),
            "entries_by_kind": kinds,
            "artifact_bytes": artifact_bytes,
            "index_bytes": (
                os.path.getsize(self.index_path)
                if os.path.exists(self.index_path)
                else 0
            ),
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

        Two layers: byte-level integrity (payload length and BLAKE2b
        hash against the index row) and semantic integrity (each stored
        visit's HAR must still satisfy the :mod:`repro.check` timing
        invariants — the same ones strict mode enforces at collection
        time).  Returns every problem found; an empty list means clean.
        """
        from repro.check.context import CheckContext
        from repro.check.visit import check_har

        problems: list[VerifyProblem] = []
        rows = self._db.execute(
            "SELECT key, kind, offset, length, payload_hash FROM entries"
            " ORDER BY offset"
        ).fetchall()
        for key, kind, offset, length, payload_hash in rows:
            try:
                payload = self._read_payload(offset, length)
            except OSError as exc:
                problems.append(VerifyProblem(key, "unreadable", str(exc)))
                continue
            if len(payload) != length:
                problems.append(
                    VerifyProblem(
                        key, "truncated",
                        f"expected {length} bytes, read {len(payload)}",
                    )
                )
                continue
            if blake2b_hex(payload) != payload_hash:
                problems.append(
                    VerifyProblem(key, "hash_mismatch", "payload re-hash differs")
                )
                continue
            try:
                document = json.loads(payload)
            except ValueError as exc:
                problems.append(VerifyProblem(key, "bad_json", str(exc)))
                continue
            for visit_doc in _visit_documents(kind, document):
                try:
                    from repro.browser.browser import PageVisit

                    visit = PageVisit.from_dict(visit_doc)
                except (KeyError, ValueError) as exc:
                    problems.append(
                        VerifyProblem(key, "bad_visit", f"{type(exc).__name__}: {exc}")
                    )
                    continue
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
        """Prune entries unreachable from named runs; compact artifacts.

        Reachability is defined by :meth:`reachable_keys`.  The artifact
        file is rewritten with only surviving payloads (offsets updated
        atomically with the rewrite), so reclaimed bytes are actually
        returned to the filesystem rather than left as dead weight.
        """
        if self._append is not None:
            self._append.flush()
        report = GcReport(dry_run=dry_run)
        report.bytes_before = (
            os.path.getsize(self.artifacts_path)
            if os.path.exists(self.artifacts_path)
            else 0
        )
        rows = self._db.execute(
            "SELECT key, offset, length FROM entries ORDER BY offset"
        ).fetchall()
        report.entries_before = len(rows)
        reachable = self.reachable_keys()
        keep = [row for row in rows if row[0] in reachable]
        report.entries_pruned = len(rows) - len(keep)
        report.bytes_after = sum(length for __, __, length in keep)
        if dry_run or not rows:
            return report

        # Rewrite artifacts with survivors only, then swap in the new
        # offsets and file in one transaction + atomic rename.
        if self._read is not None:
            self._read.close()
            self._read = None
        if self._append is not None:
            self._append.close()
            self._append = None
        compact_path = self.artifacts_path + ".gc"
        new_offsets: list[tuple[int, str]] = []
        with open(compact_path, "wb") as compact:
            with open(self.artifacts_path, "rb") as source:
                for key, offset, length in keep:
                    source.seek(offset)
                    new_offsets.append((compact.tell(), key))
                    compact.write(source.read(length))
        with self._db:
            self._db.execute(
                "DELETE FROM entries WHERE key NOT IN (SELECT key FROM"
                " run_visits UNION SELECT key FROM journal)"
            )
            self._db.executemany(
                "UPDATE entries SET offset = ? WHERE key = ?", new_offsets
            )
        os.replace(compact_path, self.artifacts_path)
        self._db.execute("VACUUM")
        return report


def _visit_documents(kind: str, document: dict) -> list[dict]:
    """The PageVisit sub-documents a stored payload carries."""
    if kind == "paired":
        return [
            doc for doc in (document.get("h2"), document.get("h3"))
            if doc is not None
        ]
    if kind == "consecutive":
        return list(document.get("visits", ()))
    return []
