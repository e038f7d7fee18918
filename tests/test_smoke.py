"""The smoke table (``python -m repro.smoke``) is well formed, and a
named shape that does not hold fails its row."""

import re
from pathlib import Path

import pytest

import repro.experiments.fig_fallback as fig_fallback
from repro import smoke
from repro.experiments import find_shape
from repro.experiments.cli import build_parser

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("name", list(smoke.ROWS))
def test_row_is_well_formed(name):
    row = smoke.ROWS[name]
    assert row.why.strip()
    assert row.runs or row.check
    for run in row.runs:
        build_parser().parse_args(["--experiments", run.experiments, *run.flags])
        for shape_name in run.shapes:
            experiment_id, _ = find_shape(shape_name)
            assert experiment_id in run.experiments.split(","), shape_name


def test_every_named_smoke_is_a_row():
    ci = (ROOT / ".github/workflows/ci.yml").read_text()
    assert sorted(re.findall(r"make (\w+)-smoke", ci)) == sorted(smoke.ROWS)
    for path in [ROOT / "Makefile", ROOT / "README.md", *(ROOT / "docs").glob("*.md")]:
        named = set(re.findall(r"make\s+(\w+)-smoke", path.read_text()))
        assert named <= set(smoke.ROWS), (path.name, sorted(named - set(smoke.ROWS)))


def test_row_fails_when_a_named_shape_does_not_hold(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(fig_fallback, "fallback_rates_are_monotone", lambda points: False)
    assert smoke.main(["faults"]) == 1
    assert "fig-fallback.monotone_fallback does not hold" in capsys.readouterr().err


def test_unknown_row_is_refused(capsys):
    assert smoke.main(["nonesuch"]) == 2
    assert "trace" in capsys.readouterr().err
