"""``python -m repro.store`` and the experiments CLI's store flags.

The diff tests exercise the CI perf-gate contract end to end: two named
runs over the same pages, one artificially slowed (a throttled access
link), must make ``diff`` exit non-zero with a CONFIRMED regression —
and a run diffed against itself must not.
"""

import json

import pytest

from repro.measurement import CampaignConfig, CampaignPlan, execute
from repro.store import ResultStore, diff_runs
from repro.store.cli import main as store_main
from repro.web.topsites import GeneratorConfig, cached_universe

SMALL = GeneratorConfig(
    n_sites=6,
    resources_per_page_median=12.0,
    min_resources=5,
    max_resources=25,
)


def small_universe(seed: int = 21):
    return cached_universe(SMALL, seed=seed)


@pytest.fixture()
def populated_store(tmp_path):
    """A store with a baseline run and a much slower candidate run."""
    universe = small_universe()
    pages = universe.pages[:3]
    root = str(tmp_path / "st")
    with ResultStore(root) as store:
        execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=3), pages=pages, store=store,
            run_name="baseline"
        ))
        # Same pages, same seed, but a throttled access link: a large,
        # deterministic slowdown in both modes.
        execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=3, rate_mbps=2.0), pages=pages,
            store=store, run_name="slow"
        ))
    return root


class TestDiff:
    def test_regression_detected(self, populated_store):
        with ResultStore(populated_store) as store:
            result = diff_runs(store, "baseline", "slow")
        assert result.regression
        assert result.h3.ci.low > 0
        assert len(result.pages) == 3
        assert result.worst_pages(2)[0].h3_delta_ms >= (
            result.worst_pages(2)[1].h3_delta_ms
        )
        rendered = result.render()
        assert "REGRESSION" in rendered

    def test_self_diff_is_clean(self, populated_store):
        with ResultStore(populated_store) as store:
            result = diff_runs(store, "baseline", "baseline")
        assert not result.regression
        assert all(d.h2_delta_ms == 0.0 for d in result.pages)

    def test_improvement_is_not_a_regression(self, populated_store):
        with ResultStore(populated_store) as store:
            result = diff_runs(store, "slow", "baseline")
        assert not result.regression

    def test_disjoint_runs_raise(self, tmp_path):
        universe = small_universe()
        with ResultStore(str(tmp_path / "st")) as store:
            execute(CampaignPlan(
                universe, sim=CampaignConfig(seed=3), pages=universe.pages[:1],
                store=store, run_name="a"
            ))
            execute(CampaignPlan(
                universe, sim=CampaignConfig(seed=3), pages=universe.pages[1:2],
                store=store, run_name="b"
            ))
            with pytest.raises(ValueError):
                diff_runs(store, "a", "b")

    def test_to_dict_is_json_safe(self, populated_store):
        with ResultStore(populated_store) as store:
            payload = diff_runs(store, "baseline", "slow").to_dict()
        text = json.dumps(payload)
        assert json.loads(text)["regression"] is True


class TestStoreCli:
    def test_stats_exit_zero(self, populated_store, capsys):
        assert store_main(["stats", populated_store]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "complete" in out

    def test_stats_json(self, populated_store, capsys):
        assert store_main(["stats", populated_store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 6
        assert {run["name"] for run in payload["runs"]} == {"baseline", "slow"}

    def test_verify_clean_exit_zero(self, populated_store, capsys):
        assert store_main(["verify", populated_store]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_corruption_exit_one(self, populated_store, capsys):
        from tests.test_store import flip_payload_byte

        flip_payload_byte(populated_store, 20)
        assert store_main(["verify", populated_store]) == 1

    def test_gc_dry_run_and_real(self, populated_store, capsys):
        with ResultStore(populated_store) as store:
            store.put("orphan", {"x": 1}, kind="paired", config_hash="c")
        assert store_main(["gc", populated_store, "--dry-run"]) == 0
        assert "would prune 1" in capsys.readouterr().out
        assert store_main(["gc", populated_store]) == 0
        assert "pruned 1" in capsys.readouterr().out
        assert store_main(["verify", populated_store]) == 0

    def test_diff_regression_exit_one(self, populated_store, capsys):
        assert store_main(["diff", populated_store, "baseline", "slow"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_clean_exit_zero(self, populated_store, capsys):
        assert store_main(
            ["diff", populated_store, "baseline", "baseline"]
        ) == 0

    def test_diff_json_output(self, populated_store, capsys):
        assert store_main(
            ["diff", populated_store, "baseline", "slow", "--json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regression"] is True
        assert payload["run_a"] == "baseline"

    def test_unknown_store_exit_two(self, tmp_path, capsys):
        assert store_main(["stats", str(tmp_path / "missing")]) == 2

    def test_unknown_run_exit_two(self, populated_store, capsys):
        assert store_main(["diff", populated_store, "baseline", "nope"]) == 2


class TestExperimentsCliStoreFlags:
    def test_store_flag_round_trip(self, tmp_path, capsys):
        from repro.experiments.cli import main as cli_main

        root = str(tmp_path / "st")
        argv = [
            "--scale", "smoke", "--sites", "6",
            "--experiments", "table2", "--store", root,
        ]
        assert cli_main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 hits" in cold
        assert cli_main(argv) == 0
        warm = capsys.readouterr().out
        assert "100% hit rate" in warm
        # everything except the store accounting line is identical
        strip = lambda text: [
            line for line in text.splitlines()
            if not line.startswith("== store:") and "[" not in line
        ]
        assert strip(cold) == strip(warm)

    def test_no_store_flag_disables(self, tmp_path, capsys):
        from repro.experiments.cli import main as cli_main

        root = str(tmp_path / "st")
        assert cli_main(
            ["--scale", "smoke", "--sites", "6", "--experiments", "table2",
             "--store", root, "--no-store"]
        ) == 0
        out = capsys.readouterr().out
        assert "== store:" not in out
        import os

        assert not os.path.exists(root)

    def test_manifest_carries_config_hash_and_store(self, tmp_path, capsys):
        from repro.experiments.cli import main as cli_main

        root = str(tmp_path / "st")
        out_json = str(tmp_path / "out.json")
        assert cli_main(
            ["--scale", "smoke", "--sites", "6", "--experiments", "table2",
             "--store", root, "--run", "named", "--json", out_json]
        ) == 0
        capsys.readouterr()
        payload = json.load(open(out_json))
        manifest = payload["manifest"]
        assert len(manifest["config_hash"]) == 32
        assert manifest["store"]["run_name"] == "named"
        assert manifest["store"]["stats"]["misses"] > 0
        assert any(
            run["name"].startswith("named/")
            for run in manifest["store"]["summary"]["runs"]
        )
