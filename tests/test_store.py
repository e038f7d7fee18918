"""The result store: keys, persistence, replay determinism, resume, gc.

The contracts under test are the subsystem's acceptance criteria:

* **Key discipline** — a visit key covers exactly what determines the
  visit (config slice, page + its hosts, vantage, probe, derived seed,
  schema version) and nothing else (fault-profile names, campaign
  topology, unrelated universe growth).
* **Replay determinism** — a warm-store campaign is bit-identical to a
  fresh one, for any worker count, with strict mode on, and with the
  store disabled entirely.
* **Incrementality** — an interrupted campaign's journal makes
  ``resume`` re-execute only the missing visits.
* **Integrity** — ``verify`` catches byte-level corruption; ``gc``
  prunes only what no named run (or journal) can reach.
"""

import dataclasses
import json
import os

import pytest

from repro.measurement import (
    CampaignConfig,
    CampaignPlan,
    ConsecutivePlan,
    ConsecutiveRun,
    MultiCampaignPlan,
    derive_seed,
    execute,
)
from repro.measurement.consecutive import _walk_key
from repro.measurement.outcome import VisitOutcome
from repro.measurement.report import campaign_report
from repro.store import (
    ResultStore,
    StoreError,
    StoreStats,
    campaign_config_hash,
    canonical_json,
    consecutive_key,
    diff_runs,
    paired_visit_key,
    visit_config_part,
)
from repro.store.keys import page_part
from repro.transport.config import TransportConfig
from repro.faults import FAULT_PROFILES, FaultProfile
from repro.web.topsites import GeneratorConfig, cached_universe

from tests.test_parallel import result_fingerprint, visit_fingerprint

SMALL = GeneratorConfig(
    n_sites=6,
    resources_per_page_median=12.0,
    min_resources=5,
    max_resources=25,
)


def small_universe(seed: int = 21):
    return cached_universe(SMALL, seed=seed)


def flip_payload_byte(root, position):
    """Corrupt the first stored payload in place: flip one of its bytes."""
    import sqlite3

    db = sqlite3.connect(os.path.join(root, "index.sqlite3"))
    with db:
        rowid, payload = db.execute(
            "SELECT rowid, payload FROM entries ORDER BY rowid"
        ).fetchone()
        data = bytearray(payload)
        data[position] ^= 0xFF
        db.execute(
            "UPDATE entries SET payload = ? WHERE rowid = ?", (bytes(data), rowid)
        )
    db.close()


def visit_key_for(universe, config, page_index=0, vp_index=0, probe_index=0):
    from repro.measurement.vantage import default_vantage_points

    page = universe.pages[page_index]
    return paired_visit_key(
        visit_config_part(config),
        page_part(page, universe.hosts),
        default_vantage_points()[vp_index],
        probe_index,
        derive_seed(config.seed, vp_index, probe_index, page_index),
    )


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestKeys:
    def test_key_is_stable(self):
        universe = small_universe()
        config = CampaignConfig(seed=3)
        assert visit_key_for(universe, config) == visit_key_for(universe, config)

    def test_keys_are_pinned_across_commits(self, tmp_path):
        """Exact key hex for a fixed 3-page seed-2 plan.

        Stability within one process says nothing about stored results
        surviving a refactor: changing the key material orphans every
        entry in every existing store.  These literals must only change
        together with ``STORE_SCHEMA_VERSION``.
        """
        universe = small_universe()
        pages = universe.pages[:3]
        with ResultStore(str(tmp_path / "st")) as store:
            execute(CampaignPlan(
                universe, sim=CampaignConfig(seed=2), pages=pages, store=store,
                run_name="paired",
            ))
            execute(ConsecutivePlan(
                universe, pages=pages, sim=CampaignConfig(seed=2), store=store,
                run_name="walk",
            ))
            assert store.run_keys("paired")[0] == "93288f9e90e57a7999222cc12d561dee"
            assert store.journal_keys("walk") == [
                "b911d37e648870b0aad1d50df0418228",  # h2-only
                "468e2a73d90fc1822c5212962ac78852",  # h3-enabled
            ]

    def test_key_covers_visit_shaping_knobs(self):
        universe = small_universe()
        base = CampaignConfig(seed=3)
        for variant in (
            CampaignConfig(seed=3, loss_rate=0.01),
            CampaignConfig(seed=3, rate_mbps=10.0),
            CampaignConfig(seed=3, visits_per_page=1),
            CampaignConfig(seed=3, warm_popular=False),
            CampaignConfig(seed=3, use_session_tickets=False),
            CampaignConfig(seed=3, trace=True),
            CampaignConfig(seed=3, strict=True),
            CampaignConfig(
                seed=3,
                transport_config=TransportConfig(initial_cwnd_packets=20),
            ),
            CampaignConfig(seed=3, fault_profile=FAULT_PROFILES["udp-blocked"]),
            CampaignConfig(seed=4),  # base seed enters via the derived seed
        ):
            assert visit_key_for(universe, base) != visit_key_for(universe, variant)

    def test_key_ignores_campaign_topology(self):
        """probes_per_vantage / max_vantage_points change how many
        visits exist, not what any one of them measures."""
        universe = small_universe()
        base = CampaignConfig(seed=3)
        wide = CampaignConfig(seed=3, probes_per_vantage=3, max_vantage_points=None)
        assert visit_key_for(universe, base) == visit_key_for(universe, wide)

    def test_key_ignores_fault_profile_name(self):
        universe = small_universe()
        profile = FAULT_PROFILES["udp-blocked"]
        renamed = FaultProfile(
            name="renamed", events=profile.events, retry=profile.retry
        )
        a = CampaignConfig(seed=3, fault_profile=profile)
        b = CampaignConfig(seed=3, fault_profile=renamed)
        assert visit_key_for(universe, a) == visit_key_for(universe, b)

    def test_key_distinct_across_slots(self):
        universe = small_universe()
        config = CampaignConfig(seed=3)
        keys = {
            visit_key_for(universe, config, page_index=p, probe_index=pr)
            for p in range(3)
            for pr in range(2)
        }
        assert len(keys) == 6

    def test_config_hash_covers_topology_and_seed(self):
        base = CampaignConfig(seed=3)
        assert campaign_config_hash(base) == campaign_config_hash(base)
        assert campaign_config_hash(base) != campaign_config_hash(
            CampaignConfig(seed=4)
        )
        assert campaign_config_hash(base) != campaign_config_hash(
            CampaignConfig(seed=3, probes_per_vantage=2)
        )

    def test_consecutive_key_depends_on_order_and_mode(self):
        universe = small_universe()
        materials = [page_part(p, universe.hosts) for p in universe.pages[:3]]
        config = {"seed": 0}
        forward = consecutive_key("h2-only", materials, config)
        assert forward == consecutive_key("h2-only", materials, config)
        assert forward != consecutive_key("h3-enabled", materials, config)
        assert forward != consecutive_key("h2-only", materials[::-1], config)


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        with ResultStore(str(tmp_path / "st")) as store:
            document = {"format": "x/1", "value": [1, 2, 3]}
            assert store.put("k1", document, kind="paired", config_hash="c")
            assert store.contains("k1")
            assert store.get("k1") == document
            assert store.get("missing") is None

    def test_put_is_idempotent(self, tmp_path):
        with ResultStore(str(tmp_path / "st")) as store:
            assert store.put("k1", {"a": 1}, kind="paired", config_hash="c")
            assert not store.put("k1", {"a": 2}, kind="paired", config_hash="c")
            assert store.get("k1") == {"a": 1}

    def test_survives_reopen(self, tmp_path):
        root = str(tmp_path / "st")
        with ResultStore(root) as store:
            store.put("k1", {"a": 1}, kind="paired", config_hash="c")
        with ResultStore(root) as store:
            assert store.get("k1") == {"a": 1}

    def test_schema_version_mismatch_raises(self, tmp_path):
        root = str(tmp_path / "st")
        ResultStore(root).close()
        import sqlite3

        db = sqlite3.connect(os.path.join(root, "index.sqlite3"))
        with db:
            db.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
        db.close()
        with pytest.raises(StoreError):
            ResultStore(root)

    def test_record_layout_mismatch_raises(self, tmp_path):
        root = str(tmp_path / "st")
        ResultStore(root).close()
        import sqlite3

        db = sqlite3.connect(os.path.join(root, "index.sqlite3"))
        with db:
            db.execute("UPDATE meta SET value = '999' WHERE key = 'record_layout'")
        db.close()
        with pytest.raises(StoreError, match="record_layout"):
            ResultStore(root)

    def test_get_detects_corruption(self, tmp_path):
        root = str(tmp_path / "st")
        with ResultStore(root) as store:
            store.put("k1", {"a": "payload-to-corrupt"}, kind="paired",
                      config_hash="c")
        flip_payload_byte(root, 10)
        with ResultStore(root) as store:
            with pytest.raises(StoreError):
                store.get("k1")
            problems = store.verify()
        assert problems and problems[0].problem == "hash_mismatch"

    def test_unknown_run_raises(self, tmp_path):
        with ResultStore(str(tmp_path / "st")) as store:
            with pytest.raises(StoreError):
                store.run_keys("nope")

    def test_stats_accounting(self, tmp_path):
        stats = StoreStats(hits=3, misses=1, writes=1, resumed=2)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        merged = StoreStats()
        merged.merge(stats)
        merged.merge(stats)
        assert merged.hits == 6 and merged.resumed == 4
        assert StoreStats().hit_rate == 0.0


class TestReplayDeterminism:
    def test_warm_store_replay_is_bit_identical(self, tmp_path):
        universe = small_universe()
        config = CampaignConfig(seed=3)
        pages = universe.pages[:3]
        with ResultStore(str(tmp_path / "st")) as store:
            fresh = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="a"
            ))
            warm = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="b"
            ))
        assert fresh.store_stats.misses == len(pages)
        assert warm.store_stats.hits == len(pages)
        assert warm.store_stats.misses == 0
        assert result_fingerprint(warm) == result_fingerprint(fresh)

    def test_warm_replay_matches_for_any_worker_count(self, tmp_path):
        universe = small_universe()
        config = CampaignConfig(seed=5)
        pages = universe.pages[:3]
        baseline = execute(CampaignPlan(universe, sim=config, pages=pages, workers=1))
        with ResultStore(str(tmp_path / "st")) as store:
            for workers in (1, 2, 4):
                run = execute(CampaignPlan(
                    universe, sim=config, pages=pages, store=store,
                    run_name=f"w{workers}", workers=workers
                ))
                assert result_fingerprint(run) == result_fingerprint(baseline)

    def test_warm_pooled_replay_starts_no_workers(self, tmp_path, monkeypatch):
        import multiprocessing

        universe = small_universe()
        config = CampaignConfig(seed=5)
        pages = universe.pages[:3]
        serial = execute(CampaignPlan(universe, sim=config, pages=pages))
        real = multiprocessing.get_context
        contexts = []

        def spy(*args, **kwargs):
            contexts.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        with ResultStore(str(tmp_path / "st")) as store:
            cold = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, workers=2
            ))
            assert len(contexts) == 1  # the cold run's misses start the pool
            warm = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, workers=2
            ))
        assert len(contexts) == 1
        assert warm.store_stats.hits == len(pages)
        assert warm.exec_stats["units_submitted"] == 0
        assert result_fingerprint(warm) == result_fingerprint(serial)
        assert result_fingerprint(cold) == result_fingerprint(serial)

    def test_strict_mode_replay_identical(self, tmp_path):
        universe = small_universe()
        config = CampaignConfig(seed=7, strict=True)
        pages = universe.pages[:2]
        with ResultStore(str(tmp_path / "st")) as store:
            fresh = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="s"
            ))
            warm = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="s2"
            ))
        assert result_fingerprint(warm) == result_fingerprint(fresh)

    def test_store_off_is_bit_identical_to_store_on(self, tmp_path):
        universe = small_universe()
        config = CampaignConfig(seed=9)
        pages = universe.pages[:2]
        plain = execute(CampaignPlan(universe, sim=config, pages=pages))
        with ResultStore(str(tmp_path / "st")) as store:
            stored = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="r"
            ))
        assert plain.store_stats is None
        assert result_fingerprint(plain) == result_fingerprint(stored)

    def test_counter_totals_identical_warm_vs_fresh(self, tmp_path):
        universe = small_universe()
        config = CampaignConfig(seed=3, collect_counters=True)
        pages = universe.pages[:2]
        with ResultStore(str(tmp_path / "st")) as store:
            fresh = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="a"
            ))
            warm = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="b"
            ))
        assert warm.counter_totals().to_dict() == fresh.counter_totals().to_dict()

    def test_report_identical_modulo_store_line(self, tmp_path):
        universe = small_universe()
        config = CampaignConfig(seed=3)
        pages = universe.pages[:3]
        with ResultStore(str(tmp_path / "st")) as store:
            fresh = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="a"
            ))
            warm = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="b"
            ))
        fresh_report = campaign_report(fresh)
        warm_report = campaign_report(warm)
        assert (
            warm_report.render(include_store=False)
            == fresh_report.render(include_store=False)
        )
        assert "store:" in warm_report.render()
        assert f"{len(pages)} hits" in warm_report.render()

    def test_replayed_outcomes_marked(self, tmp_path):
        universe = small_universe()
        config = CampaignConfig(seed=3)
        pages = universe.pages[:2]
        with ResultStore(str(tmp_path / "st")) as store:
            execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="a"
            ))
            warm = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="b"
            ))
            assert warm.store_stats.hits == len(pages)
            payload = store.get(store.run_keys("a")[0])
        # stored payloads never carry provenance (nor the loop profile)
        assert isinstance(payload, bytes) and b"source" not in payload
        assert VisitOutcome.from_payload(payload).profile is None


class TestResume:
    def test_interrupted_run_resumes_only_missing_visits(self, tmp_path, monkeypatch):
        import repro.measurement.parallel as parallel_mod

        universe = small_universe()
        config = CampaignConfig(seed=3)
        pages = universe.pages[:4]
        real = parallel_mod.measure_visit_outcome
        calls = {"n": 0}

        def dies_after_two(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt("simulated kill")
            return real(*args, **kwargs)

        with ResultStore(str(tmp_path / "st")) as store:
            monkeypatch.setattr(
                parallel_mod, "measure_visit_outcome", dies_after_two
            )
            with pytest.raises(KeyboardInterrupt):
                execute(CampaignPlan(
                    universe, sim=config, pages=pages, store=store, run_name="r"
                ))
            monkeypatch.setattr(parallel_mod, "measure_visit_outcome", real)

            info = store.run_info("r")
            assert not info.complete
            assert info.journaled == 2  # both completed visits are durable

            resumed = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="r",
                resume=True
            ))
            assert resumed.store_stats.resumed == 2
            assert resumed.store_stats.misses == 2
            assert store.run_info("r").complete
            assert len(store.run_keys("r")) == len(pages)

        baseline = execute(CampaignPlan(universe, sim=config, pages=pages))
        assert result_fingerprint(resumed) == result_fingerprint(baseline)

    def test_without_resume_prior_journal_is_not_counted(self, tmp_path):
        universe = small_universe()
        config = CampaignConfig(seed=3)
        pages = universe.pages[:2]
        with ResultStore(str(tmp_path / "st")) as store:
            execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="r"
            ))
            rerun = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="r"
            ))
            assert rerun.store_stats.hits == len(pages)
            assert rerun.store_stats.resumed == 0


class TestRunTransactions:
    """A named run opens in its first batch and closes in its last."""

    @pytest.mark.parametrize(
        "probes, commits",
        # 4, 16 (one full batch) and 20 visits on 4 pages
        [(1, 1), (4, 1), (5, 2)],
    )
    def test_warm_named_replay_commits_once_per_batch(
        self, tmp_path, probes, commits
    ):
        universe = small_universe()
        plan = CampaignPlan(
            universe, sim=CampaignConfig(seed=3, probes_per_vantage=probes),
            pages=universe.pages[:4], run_name="r",
        )
        visits = 4 * probes
        with ResultStore(str(tmp_path / "st")) as store:
            cold = execute(dataclasses.replace(plan, store=store))
            statements = []
            store._db.set_trace_callback(statements.append)
            warm = execute(dataclasses.replace(plan, store=store))
            store._db.set_trace_callback(None)
            assert warm.store_stats.hits == visits
            assert [s for s in statements if s.startswith("COMMIT")] == [
                "COMMIT"
            ] * commits
            info = store.run_info("r")
            assert info.complete and info.n_visits == visits
            assert len(store.run_keys("r")) == visits
        assert result_fingerprint(warm) == result_fingerprint(cold)

    @pytest.mark.parametrize("resume", [False, True])
    def test_kill_before_the_first_batch_changes_nothing(
        self, tmp_path, monkeypatch, resume
    ):
        import repro.measurement.parallel as parallel_mod

        universe = small_universe()
        pages = universe.pages[:2]
        with ResultStore(str(tmp_path / "st")) as store:
            execute(CampaignPlan(
                universe, sim=CampaignConfig(seed=3), pages=pages, store=store,
                run_name="r",
            ))
            before = (
                store.run_info("r"),
                store.run_info("r").created_unix,
                store.run_keys("r"),
                store.journal_keys("r"),
                store.stats_summary(),
            )

            def killed(*args, **kwargs):
                raise KeyboardInterrupt("simulated kill")

            monkeypatch.setattr(parallel_mod, "measure_visit_outcome", killed)
            with pytest.raises(KeyboardInterrupt):
                execute(CampaignPlan(
                    universe, sim=CampaignConfig(seed=4), pages=pages,
                    store=store, run_name="r", resume=resume,
                ))
            after = (
                store.run_info("r"),
                store.run_info("r").created_unix,
                store.run_keys("r"),
                store.journal_keys("r"),
                store.stats_summary(),
            )
        assert after == before
        assert before[0].complete and before[0].n_visits == 2

    def test_one_config_sweep_names_its_run_by_key(self, tmp_path):
        universe = small_universe()
        with ResultStore(str(tmp_path / "st")) as store:
            execute(MultiCampaignPlan(
                universe, pages=universe.pages[:1], store=store, run_prefix="p",
                configs={"only": CampaignConfig(seed=3)},
            ))
            assert store.run_names() == ["p/only"]
            assert store.run_info("p/only").complete


class TestGc:
    def test_gc_prunes_only_unreachable(self, tmp_path):
        universe = small_universe()
        config = CampaignConfig(seed=3)
        pages = universe.pages[:2]
        with ResultStore(str(tmp_path / "st")) as store:
            kept = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="keep"
            ))
            # an anonymous run's entries are reachable from no run
            store.put("orphan", {"x": 1}, kind="paired", config_hash="c")

            dry = store.gc(dry_run=True)
            assert dry.dry_run and dry.entries_pruned == 1
            assert store.contains("orphan")  # dry run wrote nothing

            report = store.gc()
            assert report.entries_pruned == 1
            assert report.bytes_reclaimed > 0
            assert not store.contains("orphan")
            # the named run still replays bit-identically post-compaction
            warm = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="keep2"
            ))
            assert warm.store_stats.hits == len(pages)
            assert result_fingerprint(warm) == result_fingerprint(kept)
            assert store.verify() == []

    def test_journal_keeps_interrupted_work_alive(self, tmp_path, monkeypatch):
        import repro.measurement.parallel as parallel_mod

        universe = small_universe()
        config = CampaignConfig(seed=3)
        pages = universe.pages[:3]
        real = parallel_mod.measure_visit_outcome
        calls = {"n": 0}

        def dies_after_one(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        with ResultStore(str(tmp_path / "st")) as store:
            monkeypatch.setattr(parallel_mod, "measure_visit_outcome", dies_after_one)
            with pytest.raises(KeyboardInterrupt):
                execute(CampaignPlan(
                    universe, sim=config, pages=pages, store=store, run_name="r"
                ))
            monkeypatch.setattr(parallel_mod, "measure_visit_outcome", real)
            # gc between the crash and the resume must not discard the
            # journaled visit
            report = store.gc()
            assert report.entries_pruned == 0
            resumed = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="r",
                resume=True
            ))
            assert resumed.store_stats.resumed == 1

    def test_gc_on_empty_store(self, tmp_path):
        with ResultStore(str(tmp_path / "st")) as store:
            report = store.gc()
        assert report.entries_before == 0
        assert report.entries_pruned == 0


class TestSpillStore:
    """A store in the older layout, written by that layout's own code.

    ``tests/data/store_v3`` holds a schema-v3 store whose payloads live
    in an ``artifacts.jsonl`` spill file, indexed by offset and length:
    ``index.sql`` is its sqlite index as dumped by ``iterdump``.  It
    holds the complete run ``legacy`` (the first two pages of a small
    universe, seed 3), the unreachable entry of an anonymous run over
    the third page, and the journaled consecutive walk ``walk``.
    """

    UNIVERSE = GeneratorConfig(
        n_sites=6, resources_per_page_median=6.0, min_resources=3,
        max_resources=8,
    )
    #: BLAKE2b of ``repr(result_fingerprint(...))`` of run ``legacy``,
    #: as the spill store's own code measured it.
    PINNED = "97269d852dd5b60ff3ca8683a842983c"

    @pytest.fixture()
    def root(self, tmp_path):
        import shutil
        import sqlite3

        data = os.path.join(os.path.dirname(__file__), "data", "store_v3")
        root = tmp_path / "st"
        root.mkdir()
        shutil.copy(os.path.join(data, "artifacts.jsonl"), root)
        db = sqlite3.connect(str(root / "index.sqlite3"))
        with open(os.path.join(data, "index.sql")) as script:
            db.executescript(script.read())
        db.close()
        return str(root)

    def replay(self, store, run_name):
        universe = cached_universe(self.UNIVERSE, seed=21)
        return execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=3), pages=universe.pages[:2],
            store=store, run_name=run_name,
        ))

    @staticmethod
    def pinned_digest(result) -> str:
        import hashlib

        return hashlib.blake2b(
            repr(result_fingerprint(result)).encode(), digest_size=16
        ).hexdigest()

    def test_replays_to_its_pinned_result(self, root):
        with ResultStore(root) as store:
            assert not os.path.exists(os.path.join(root, "artifacts.jsonl"))
            warm = self.replay(store, "again")
            assert warm.store_stats.hits == 2 and warm.store_stats.misses == 0
            assert store.run_keys("legacy") == store.run_keys("again")
        assert self.pinned_digest(warm) == self.PINNED
        universe = cached_universe(self.UNIVERSE, seed=21)
        cold = execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=3), pages=universe.pages[:2]
        ))
        assert result_fingerprint(warm) == result_fingerprint(cold)

    def test_payloads_move_into_the_index_unchanged(self, root):
        with open(os.path.join(root, "artifacts.jsonl"), "rb") as spill:
            spilled = spill.read()
        with ResultStore(root) as store:
            summary = store.stats_summary()
            assert summary["entries"] == 4
            assert summary["entries_by_kind"] == {"consecutive": 1, "paired": 3}
            assert summary["artifact_bytes"] == len(spilled)
            assert store.verify() == []
            payloads = store._db.execute(
                "SELECT payload FROM entries ORDER BY rowid"
            ).fetchall()
        assert b"".join(payload for (payload,) in payloads) == spilled
        with ResultStore(root) as store:  # a second open migrates nothing
            assert store.stats_summary() == summary

    def test_a_lost_spill_file_reads_as_corruption(self, root):
        os.remove(os.path.join(root, "artifacts.jsonl"))
        with ResultStore(root) as store:
            problems = store.verify()
            with pytest.raises(StoreError):
                store.get(store.run_keys("legacy")[0])
        assert [p.problem for p in problems] == ["hash_mismatch"] * 4

    def test_walk_replays(self, root):
        universe = cached_universe(self.UNIVERSE, seed=21)
        plan = ConsecutivePlan(
            universe, pages=universe.pages[:2], modes=("h2-only",),
            sim=CampaignConfig(seed=2),
        )
        fresh = execute(plan)
        with ResultStore(root) as store:
            warm = execute(dataclasses.replace(plan, store=store))
        assert warm.source == "replay"
        assert [visit_fingerprint(v) for v in warm.visits] == [
            visit_fingerprint(v) for v in fresh.visits
        ]

    def test_gc_and_diff(self, root, capsys):
        from repro.store.cli import main as store_main

        with ResultStore(root) as store:
            before = store.stats_summary()["entries"]
            report = store.gc()
            assert (report.entries_before, report.entries_pruned) == (4, 1)
            assert store.stats_summary()["entries"] == before - 1
            assert store.verify() == []
            warm = self.replay(store, "after-gc")
            assert warm.store_stats.hits == 2
            # diff decodes the spilled JSON documents as outcomes too
            diff = diff_runs(store, "legacy", "after-gc")
            assert not diff.regression and len(diff.pages) == 2
        assert self.pinned_digest(warm) == self.PINNED
        assert store_main(["verify", root]) == 0
        assert store_main(["gc", root]) == 0
        assert "pruned 0 of 3" in capsys.readouterr().out


class TestConsecutiveReplay:
    def test_walk_replay_is_bit_identical(self, tmp_path):
        universe = small_universe()
        pages = universe.pages[:3]
        with ResultStore(str(tmp_path / "st")) as store:
            plan = ConsecutivePlan(
                universe, pages=pages, sim=CampaignConfig(seed=2), store=store
            )
            fresh_h2, fresh_h3 = execute(plan)
            warm_h2, warm_h3 = execute(plan)
        assert fresh_h2.source == "fresh" and warm_h2.source == "replay"
        for fresh, warm in ((fresh_h2, warm_h2), (fresh_h3, warm_h3)):
            assert [visit_fingerprint(v) for v in warm.visits] == [
                visit_fingerprint(v) for v in fresh.visits
            ]
            assert warm.resumed_connections() == fresh.resumed_connections()

    def test_walk_round_trip_format_guard(self):
        with pytest.raises(ValueError):
            ConsecutiveRun.from_dict({"format": "other/1"})

    def test_different_seed_misses(self, tmp_path):
        universe = small_universe()
        pages = universe.pages[:2]
        with ResultStore(str(tmp_path / "st")) as store:
            for seed in (2, 3):
                execute(ConsecutivePlan(
                    universe, pages=pages, modes=("h2-only",),
                    sim=CampaignConfig(seed=seed),
                    store=store,
                ))
            assert store.stats_summary()["entries"] == 2

    def walk_plan(self, store, **kwargs):
        universe = small_universe()
        return ConsecutivePlan(
            universe, pages=universe.pages[:2], sim=CampaignConfig(seed=2),
            store=store, run_name="walk", **kwargs,
        )

    def test_named_walk_run_is_complete(self, tmp_path):
        with ResultStore(str(tmp_path / "st")) as store:
            plan = self.walk_plan(store)
            execute(plan)
            info = store.run_info("walk")
            assert info is not None and info.complete and info.n_visits == 2
            assert info.config_hash == campaign_config_hash(plan.config)
            assert store.run_names() == ["walk"]
            assert store.run_keys("walk") == [
                _walk_key(plan, "h2-only"), _walk_key(plan, "h3-enabled")
            ]

    def test_interrupted_walk_keeps_the_finished_one(self, tmp_path, monkeypatch):
        from repro.measurement.probe import Probe

        visit_once = Probe.visit_once

        def killed_in_h3(probe, page, mode):
            if mode == "h3-enabled":
                raise KeyboardInterrupt("simulated kill")
            return visit_once(probe, page, mode)

        with ResultStore(str(tmp_path / "st")) as store:
            plan = self.walk_plan(store)
            h2_key, h3_key = (
                _walk_key(plan, "h2-only"), _walk_key(plan, "h3-enabled")
            )
            monkeypatch.setattr(Probe, "visit_once", killed_in_h3)
            with pytest.raises(KeyboardInterrupt):
                execute(plan)
            assert store.contains(h2_key) and not store.contains(h3_key)
            assert not store.run_info("walk").complete
            assert store.journal_keys("walk") == [h2_key]

            monkeypatch.setattr(Probe, "visit_once", visit_once)
            h2_run, h3_run = execute(plan)
            assert (h2_run.source, h3_run.source) == ("replay", "fresh")
            assert store.run_info("walk").complete
            assert store.run_keys("walk") == [h2_key, h3_key]
            assert store.journal_keys("walk") == [h3_key]

    def test_unknown_mode_stores_nothing(self, tmp_path):
        with ResultStore(str(tmp_path / "st")) as store:
            with pytest.raises(ValueError, match="unknown mode"):
                execute(self.walk_plan(store, modes=("h2-only", "h9")))
            assert store.run_names() == []
            assert store.stats_summary()["entries"] == 0

    def test_walk_run_has_no_outcomes(self, tmp_path, capsys):
        from repro.store.cli import main as store_main

        root = str(tmp_path / "st")
        with ResultStore(root) as store:
            execute(self.walk_plan(store))
            with pytest.raises(StoreError, match="'walk' holds consecutive walks"):
                store.run_outcomes("walk")
        assert store_main(["diff", root, "walk", "walk"]) == 2
        assert "holds consecutive walks" in capsys.readouterr().err


class TestStudyIntegration:
    def test_study_campaign_and_consecutive_share_store(self, tmp_path):
        from repro.core.study import H3CdnStudy, StudyConfig

        def study(store):
            return H3CdnStudy(
                StudyConfig(
                    n_sites=6,
                    seed=4,
                    generator_config=SMALL,
                    max_campaign_pages=2,
                    max_consecutive_pages=2,
                    store=store,
                    run_name="t",
                )
            )

        with ResultStore(str(tmp_path / "st")) as store:
            first = study(store)
            first.table2()
            first.fig8a()
            assert first.campaign_result.store_stats.misses == 2
            second = study(store)
            second.table2()
            second.fig8a()
            assert second.campaign_result.store_stats.hits == 2
            assert second.campaign_result.store_stats.misses == 0
            names = store.run_names()
        assert "t/campaign" in names and "t/consecutive" in names

    def test_consecutive_stage_commits_once(self, tmp_path):
        """Cold or warm, the walks' entries, run rows and close share
        one transaction."""
        from repro.core.study import H3CdnStudy, StudyConfig

        with ResultStore(str(tmp_path / "st")) as store:
            for source in ("fresh", "replay"):
                study = H3CdnStudy(
                    StudyConfig(
                        n_sites=6,
                        seed=4,
                        generator_config=SMALL,
                        max_consecutive_pages=2,
                        store=store,
                        run_name="t",
                    )
                )
                statements = []
                store._db.set_trace_callback(statements.append)
                runs = study.consecutive_runs
                store._db.set_trace_callback(None)
                assert [run.source for run in runs] == [source, source]
                assert [s for s in statements if s.startswith("COMMIT")] == [
                    "COMMIT"
                ]
                assert store.run_info("t/consecutive").complete

    def test_loss_sweep_too_small_to_fit_stores_nothing(self, tmp_path):
        from repro.core.study import H3CdnStudy, StudyConfig

        with ResultStore(str(tmp_path / "st")) as store:
            study = H3CdnStudy(
                StudyConfig(
                    n_sites=6,
                    seed=4,
                    generator_config=SMALL,
                    max_loss_sweep_pages=1,
                    store=store,
                    run_name="t",
                )
            )
            with pytest.raises(ValueError, match="two paired visits"):
                study.fig9()
            assert store.run_names() == []
            assert store.stats_summary()["entries"] == 0

    def test_every_stored_stage_keeps_its_layout(self, tmp_path):
        """Every stage a study stores lands under the same run names,
        config hashes and ordered visit keys; an explicit-argument rerun
        stays out of the store."""
        import hashlib

        from repro.core.study import H3CdnStudy, StudyConfig

        expected_runs = [
            ("t/campaign", "236bee6174ac2965f75b9159eb697dc7", 2),
            # The walks run at the study seed (4), so their run hashes the
            # campaign config at that seed, as t/fig9/0.0-0 does.
            ("t/consecutive", "f364034f86b081d5dca4098dd9b590e4", 2),
            ("t/fig-amplification/ratio-0", "492737d07f721b4a396ee6623b76c266", 2),
            ("t/fig-amplification/ratio-0.5", "eef832a659f76e82fc09859bf1485823", 2),
            ("t/fig-amplification/ratio-1", "cc8716e94d5ea8f63a69d98ed5ef1f82", 2),
            ("t/fig-fallback/faults-0.0", "f364034f86b081d5dca4098dd9b590e4", 2),
            ("t/fig-fallback/faults-0.25", "cdc40b8855534d2863ec01b62cab5714", 2),
            ("t/fig-fallback/faults-0.5", "9c95e3dae140c95390f3975d7a9a34ef", 2),
            ("t/fig-fallback/faults-0.75", "7f51b57a4835423e146b05da5cf36b4e", 2),
            ("t/fig-fallback/faults-1.0", "56599fa68f8ea74384f7af441cff2fef", 2),
            ("t/fig-flash-crowd/flat", "31d9c25454ea40ec0f6482244e5393a1", 2),
            ("t/fig-flash-crowd/hierarchy", "70cd65c319d7d3fd96ce583b3ada50af", 2),
            ("t/fig-migration/connect-tunnel-nat_rebind", "054ee52950a2813c8d78ee9c097ee3b1", 2),
            ("t/fig-migration/connect-tunnel-none", "2b540e733b07f4dc5597c252c9b2ed71", 2),
            ("t/fig-migration/direct-nat_rebind", "c56f2c80b412217d3415fff66b961f3b", 2),
            ("t/fig-migration/direct-none", "d23557b56f94c3b33a3ce164bad93615", 2),
            ("t/fig-migration/masque-relay-nat_rebind", "52977718df8c0bdfaed17d7afcdcdd8c", 2),
            ("t/fig-migration/masque-relay-none", "5b1cd272a0588db11f2919e0a6b9b96a", 2),
            ("t/fig-miss-storm/squeezed", "74687c30f586925a6a993f449f1316f1", 2),
            ("t/fig-miss-storm/storm", "335fa89251d054534b3be5c8e101d001", 2),
            ("t/fig-miss-storm/warm", "9d33dfc7e82290f1cde2f4fe4bb5765c", 2),
            ("t/fig9/0.0-0", "f364034f86b081d5dca4098dd9b590e4", 2),
            ("t/fig9/0.005-0", "f20e9d87a10990fa2296c85740c48a6b", 2),
            ("t/fig9/0.01-0", "d11f35e80ddbe278f05f3ae0ee3b1d01", 2),
        ]
        with ResultStore(str(tmp_path / "st")) as store:
            study = H3CdnStudy(
                StudyConfig(
                    n_sites=6,
                    seed=4,
                    generator_config=SMALL,
                    max_campaign_pages=2,
                    max_consecutive_pages=2,
                    max_loss_sweep_pages=2,
                    store=store,
                    run_name="t",
                )
            )
            study.campaign_result
            study.consecutive_runs
            study.fig9()
            study.fig_fallback()
            study.fig_migration()
            study.fig_amplification()
            study.fig_miss_storm()
            study.fig_flash_crowd()
            infos = [store.run_info(name) for name in store.run_names()]
            assert all(info.complete for info in infos)
            assert [
                (info.name, info.config_hash, info.n_visits) for info in infos
            ] == expected_runs
            digest = hashlib.sha256()
            for name in store.run_names():
                for position, key in enumerate(store.run_keys(name)):
                    digest.update(f"{name}\t{position}\t{key}\n".encode())
            assert digest.hexdigest() == (
                "37ac7f5bc556a50c4e75914f3295b7b6967a9c56125943b057e08b9d8260cc13"
            )
            walk_hashes = store._db.execute(
                "SELECT DISTINCT config_hash FROM entries WHERE kind = 'consecutive'"
            ).fetchall()
            assert walk_hashes == [(store.run_info("t/consecutive").config_hash,)]
            entries = store.stats_summary()["entries"]
            assert entries == 46

            # 0.3 is not a default intensity: a stored rerun would add
            # a run and fresh entries.
            study.fig_fallback(intensities=(0.0, 0.3))
            assert [info.name for info in infos] == store.run_names()
            assert store.stats_summary()["entries"] == entries
