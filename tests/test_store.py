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

import json
import os

import pytest

from repro.measurement import (
    CampaignConfig,
    CampaignPlan,
    ConsecutivePlan,
    ConsecutiveRun,
    derive_seed,
    execute,
)
from repro.measurement.report import campaign_report
from repro.store import (
    ResultStore,
    StoreError,
    StoreStats,
    campaign_config_hash,
    canonical_json,
    consecutive_key,
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
                universe, pages=pages, seed=2, store=store, run_name="walk"
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

    def test_get_detects_corruption(self, tmp_path):
        root = str(tmp_path / "st")
        with ResultStore(root) as store:
            store.put("k1", {"a": "payload-to-corrupt"}, kind="paired",
                      config_hash="c")
        artifacts = os.path.join(root, "artifacts.jsonl")
        data = bytearray(open(artifacts, "rb").read())
        data[10] ^= 0xFF
        open(artifacts, "wb").write(bytes(data))
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
        # stored payloads never carry provenance
        assert "source" not in payload


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


class TestConsecutiveReplay:
    def test_walk_replay_is_bit_identical(self, tmp_path):
        universe = small_universe()
        pages = universe.pages[:3]
        with ResultStore(str(tmp_path / "st")) as store:
            plan = ConsecutivePlan(universe, pages=pages, seed=2, store=store)
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
                    universe, pages=pages, modes=("h2-only",), seed=seed,
                    store=store,
                ))
            assert store.stats_summary()["entries"] == 2


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
