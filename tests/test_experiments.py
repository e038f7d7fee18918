"""Tests for the experiment drivers, registry, and CLI."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import H3CdnStudy, StudyConfig
from repro.experiments import (
    EXPERIMENTS,
    find_shape,
    format_table,
    run_all,
    run_experiment,
)
from repro.experiments.cli import SCALES, _jsonable, build_parser, main, make_study


@pytest.fixture(scope="module")
def study():
    return H3CdnStudy(StudyConfig(n_sites=14, seed=3, max_loss_sweep_pages=4))


class TestRegistry:
    def test_covers_every_paper_table_and_figure(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3",
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig-fallback", "fig-migration", "fig-amplification",
            "fig-miss-storm", "fig-flash-crowd",
        }

    def test_order_follows_the_paper(self):
        assert list(EXPERIMENTS) == [
            "table1", "table2", "fig2", "fig3", "fig4", "fig5",
            "fig6", "fig7", "fig8", "table3", "fig9", "fig-fallback",
            "fig-migration", "fig-amplification", "fig-miss-storm",
            "fig-flash-crowd",
        ]

    def test_specs_are_well_formed(self):
        shape_names = []
        for experiment_id, spec in EXPERIMENTS.items():
            assert spec.name == experiment_id
            assert spec.title
            assert callable(spec.run)
            for shape in spec.shapes:
                assert shape.name.split(".")[0].startswith(experiment_id), shape.name
                assert shape.paper.strip(), shape.name
                shape_names.append(shape.name)
        assert len(shape_names) == len(set(shape_names))

    def test_reproduction_summary_names_the_shapes(self):
        """EXPERIMENTS.md's summary names only real predicates, and every
        gated paper shape backs one of its rows."""
        text = (Path(__file__).parents[1] / "EXPERIMENTS.md").read_text()
        summary = text.split("## Reproduction summary", 1)[1]
        rows = [line for line in summary.splitlines() if line.startswith("|")]
        named = set(re.findall(r"`([\w.-]+)`", "\n".join(rows)))
        shapes = {s.name: s for spec in EXPERIMENTS.values() for s in spec.shapes}
        for name in named:
            if name.startswith("repro."):
                module, attr = name.rsplit(".", 1)
                assert callable(getattr(importlib.import_module(module), attr)), name
            elif re.fullmatch(r"(fig|table)[\w-]*\.\w+", name):
                assert name in shapes, f"EXPERIMENTS.md names unknown shape {name}"
        gated = {name for name, shape in shapes.items() if shape.gated}
        assert gated <= named, sorted(gated - named)

    def test_unknown_experiment_rejected(self, study):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99", study)

    def test_run_all_produces_results(self, study):
        results = run_all(study)
        assert [r.experiment_id for r in results] == list(EXPERIMENTS)
        for result in results:
            assert result.lines, result.experiment_id
            assert result.data, result.experiment_id
            rendered = result.render()
            assert result.experiment_id in rendered


class TestDriverData:
    def test_table1_release_years(self, study):
        # Paper Table I release years, verbatim.
        paper = {"cloudflare": 2019, "google": 2021, "fastly": 2021, "quic_cloud": 2021,
                 "amazon": 2022, "meta": 2022, "akamai": 2023}
        years = run_experiment("table1", study).data["release_years"]
        assert {name: years[name] for name in paper} == paper

    def test_table2_shares(self, study):
        # table2.h3_share does not hold at 14 sites, so it stays structural.
        data = run_experiment("table2", study).data
        assert find_shape("table2.cdn_share")[1].holds(data)
        assert 0.0 < data["h3_share"] < 1.0

    def test_fig2_shares_sum_to_one(self, study):
        result = run_experiment("fig2", study)
        assert sum(result.data["market_share"].values()) == pytest.approx(1.0)
        assert sum(result.data["h3_share_by_provider"].values()) == pytest.approx(1.0)

    def test_fig3_series_monotone(self, study):
        result = run_experiment("fig3", study)
        ys = [y for __, y in result.data["ccdf_series"]]
        assert ys == sorted(ys, reverse=True)

    def test_fig4_counts_sum_to_pages(self, study):
        result = run_experiment("fig4", study)
        assert sum(result.data["pages_by_provider_count"].values()) == 14

    def test_fig6_has_all_groups(self, study):
        result = run_experiment("fig6", study)
        assert set(result.data["group_reductions"]) == {
            "Low", "Medium-Low", "Medium-High", "High",
        }
        assert set(result.data["phase_medians"]) == {"connection", "wait", "receive"}

    def test_fig7_difference_positive_overall(self, study):
        data = run_experiment("fig7", study).data
        assert find_shape("fig7b.difference_positive")[1].holds(data)

    def test_fig9_has_three_series(self, study):
        result = run_experiment("fig9", study)
        assert set(result.data["slopes"]) == {0.0, 0.005, 0.01}

    def test_table3_structure(self, study):
        data = run_experiment("table3", study).data
        assert find_shape("table3.shared_providers_ordering")[1].holds(data)


#: Driver data for the Fig. 8/9 shapes, keyed by provider bucket and by
#: loss rate: one series that rises, and one whose order as strings
#: ("0" < "1" < "10" < "2") differs from its order as numbers.
FIG8_DATA = (
    {
        "plt_reduction_by_providers": {0: -5.0, 1: 10.0, 2: 20.0, 10: 30.0},
        "resumed_by_providers": {0: 0.0, 1: 1.0, 2: 2.0, 10: 4.0},
    },
    {
        "plt_reduction_by_providers": {0: 1.0, 1: 2.0, 2: 5.0, 10: 3.0},
        "resumed_by_providers": {0: 5.0, 1: 1.0, 2: 2.0, 10: 3.0},
    },
)
FIG9_DATA = (
    {"slopes": {0.0: 0.8, 0.005: 1.42, 0.01: 2.15}, "ordered": True},
    {"slopes": {0.0: 1.5, 0.005: 1.0, 0.01: 3.0}, "ordered": False},
)


class TestShapesSurviveTheCliJson:
    """The CLI writes experiment data through ``_jsonable`` and JSON,
    which turn every dict key into a string: a shape gives the same
    verdict on the data it reads back."""

    @pytest.mark.parametrize(
        "shape, data",
        [
            (shape, data)
            for name, datasets in (("fig8", FIG8_DATA), ("fig9", FIG9_DATA))
            for shape in EXPERIMENTS[name].shapes
            for data in datasets
        ],
        ids=lambda value: getattr(value, "name", ""),
    )
    def test_same_verdict_after_the_round_trip(self, shape, data):
        read_back = json.loads(json.dumps(_jsonable(data)))
        assert shape.holds(read_back) is shape.holds(data)


class TestFormatting:
    def test_format_table_aligns_columns(self):
        lines = format_table(("a", "bbbb"), [("x", 1), ("yyyy", 22)])
        assert lines[0].index("bbbb") == lines[2].index("1")
        assert len(lines) == 4  # header, rule, two rows

    def test_format_table_handles_empty_rows(self):
        lines = format_table(("a",), [])
        assert len(lines) == 2


class TestCli:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["--experiments", "fig99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_scales_defined(self):
        assert set(SCALES) == {"smoke", "quick", "medium", "full"}
        assert SCALES["full"][0] == 325

    def test_make_study_applies_overrides(self):
        args = build_parser().parse_args(["--scale", "smoke", "--sites", "9", "--seed", "5"])
        study = make_study(args)
        assert study.config.n_sites == 9
        assert study.config.seed == 5

    def test_single_experiment_end_to_end(self, capsys):
        assert main(["--scale", "smoke", "--sites", "8", "--experiments", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "CCDF" in out

    def test_printed_output_does_not_depend_on_the_hash_seed(self):
        """Tied values print in name order, not in set-iteration order."""
        import repro

        argv = [sys.executable, "-m", "repro.experiments.cli",
                "--scale", "smoke", "--sites", "6", "--experiments", "fig4"]
        outputs = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": str(Path(repro.__file__).parents[1])}
            out = subprocess.run(argv, env=env, capture_output=True, text=True,
                                 check=True).stdout
            outputs.append([line for line in out.splitlines()
                            if not re.fullmatch(r"\s*\[\d+\.\ds\]", line)])
        assert outputs[0] == outputs[1]
