"""Tests of the repo benchmark harness, at tiny scale.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/harness
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import compare  # noqa: E402
from layers import METRICS, profile_key  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

TINY = ["--pages", "2", "--seconds", "1", "--setup-samples", "2"]


def run(*args: str) -> tuple[int, list[str], dict]:
    """Run the harness; its exit code, stdout lines and JSON result line."""
    done = subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    return done.returncode, lines, json.loads(last) if last.startswith("{") else {}


def test_names_are_well_formed_and_match_the_harness():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [m.name for m in METRICS]
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}


def test_seed_11_is_pinned_and_the_pool_pin_equals_the_serial_one():
    with open(os.path.join(HERE, "digests.json")) as handle:
        pins = json.load(handle)["11"]
    assert set(pins) == {w["name"] for w in BENCHMARK["workloads"]}
    assert pins["store-pool"] == pins["paper-packet"]


def test_tiny_run_prints_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "report.json"
    code, lines, _ = run("--reps", "1", "--trace", *TINY, "--out", str(out))
    assert code == 0, "\n".join(lines)
    text = "\n".join(lines)
    for spec in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.search(
            rf"^\s+{re.escape(spec['name'])}\s+\S+\s+{re.escape(spec['unit'])}(\s|$)",
            text, re.MULTILINE,
        ), spec["name"]
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    assert {"git_sha", "nproc", "python", "event_loop", "seed"} <= set(report["stamp"])
    for entry in report["workloads"].values():
        assert entry["correct"] and entry["failed_visit_ratio"] == 0.0


def test_tampered_digest_fails_every_visit(tmp_path):
    pins = tmp_path / "digests.json"
    pins.write_text(json.dumps(
        {"11": {"paper-packet": {"pages": 2, "digest": "0" * 32}}}
    ))
    code, lines, result = run(
        "--workload", "paper-packet", "--seed", "11", *TINY, "--digests", str(pins)
    )
    assert code != 0
    assert any("check pinned digest: MISMATCH" in line for line in lines)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


@pytest.fixture(scope="module", params=["lossy-migration", "store-pool"])
def traced_pair(request):
    args = ("--workload", request.param, "--seed", "5", "--trace", "1", *TINY)
    return run(*args), run(*args)


def test_traced_digest_equals_untraced(traced_pair):
    for code, lines, result in traced_pair:
        assert code == 0, "\n".join(lines)
        assert "  check traced pass equals untraced: ok" in lines
        assert "  check profile_loop pass equals untraced: ok" in lines
        assert result["correct"] and result["failed"] == 0


def test_two_traced_runs_give_equal_counts(traced_pair):
    (_, _, first), (_, _, second) = traced_pair
    exact = [metric.name for metric in METRICS if metric.exact]
    assert exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_counted_functions_resolve_and_a_vanished_one_is_none():
    from repro.netsim.link import Link

    code = Link.transmit.__code__
    assert profile_key("repro.netsim.link:Link.transmit") == (
        code.co_filename, code.co_firstlineno, "transmit"
    )
    assert profile_key("repro.netsim.packet:Packet.payload_bytes")[2] == "payload_bytes"
    assert "call_later" in profile_key("repro.events:EventLoop.call_later")[2]
    assert profile_key("repro.netsim.link:Link.no_such_method") is None
    assert profile_key("repro.no_such_module:f") is None


def _side(values: list[float]) -> dict:
    ordered = sorted(values)
    return {
        "values": values, "median": ordered[len(ordered) // 2],
        "q1": ordered[len(ordered) // 4], "q3": ordered[3 * len(ordered) // 4],
    }


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([10.0, 10.1, 9.9, 10.0] * 3, [11.0, 11.1, 10.9, 11.0] * 3, "improved"),
        ([10.0, 10.1, 9.9, 10.0], [11.0, 11.1, 10.9, 11.0], "no-worse"),
        ([10.0, 10.1, 9.9, 10.0] * 3, [9.8, 9.9, 9.7, 9.8] * 3, "no-worse"),
        ([10.0, 10.1, 9.9, 10.0] * 3, [8.0, 8.1, 7.9, 8.0] * 3, "regressed"),
        ([10.0, 13.0, 7.0, 10.0] * 3, [9.9, 13.0, 7.0, 9.9] * 3, "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(_side(parent), _side(change), "higher", 0.1) == expected


def test_compare_refuses_mismatched_stamps():
    parent = {"git_sha": "a", "event_loop": "CEventLoop", "nproc": 2}
    change = {"git_sha": "b", "event_loop": "CalendarEventLoop", "nproc": 2}
    assert compare.stamp_mismatches(parent, change) == ["event_loop"]
    assert compare.stamp_mismatches(parent, dict(parent, git_sha="c")) == []
