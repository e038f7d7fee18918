"""Compare two benchmark reports, parent against change::

    python3 benchmarks/harness/compare.py PARENT.json CHANGE.json

Both files come from ``run.py --reps N --out``.  One row per (metric,
workload) gives each side's median and quartiles and a verdict:

``improved``
    At least ten rep pairs ran (rep *i* against rep *i*), the change
    won at least 9/10 of them (ties count for neither side), and the
    medians differ by more than the parent's interquartile range.
``unresolved``
    Either side's spread (IQR over median) exceeds the metric's bound,
    and not every change rep beat every parent rep.
``no-worse`` / ``regressed``
    The change's median is, or is not, within the metric's bound of the
    parent's.

Exact per-layer counts (traced reports) are compared exactly: ``same``
or ``changed``.  Other per-layer values are shown for information.

Reports whose stamps differ in anything but the git SHA are refused
(exit 2): a C-kernel host is never compared with a pure-Python one, nor
runs of different length.  Exit 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Rep pairs a gain needs: with fewer, host drift between the two sets
#: alone wins every pair now and then.
MIN_PAIRS = 10


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent["values"], change["values"]))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gap = sign * (change["median"] - parent["median"])
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and gap > parent["q3"] - parent["q1"]
    ):
        return "improved"
    spread = max(
        (
            (side["q3"] - side["q1"]) / abs(side["median"])
            for side in (parent, change) if side["median"]
        ),
        default=0.0,
    )
    every_rep_better = all(
        sign * (c - p) > 0 for p in parent["values"] for c in change["values"]
    )
    if spread > bound and not every_rep_better:
        return "unresolved"
    worse_by = -gap / abs(parent["median"]) if parent["median"] else 0.0
    return "regressed" if worse_by > bound else "no-worse"


def stamp_mismatches(parent: dict, change: dict) -> list[str]:
    keys = (set(parent) | set(change)) - {"git_sha"}
    return sorted(key for key in keys if parent.get(key) != change.get(key))


def _side(m: dict) -> str:
    return f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"


def compare(parent: dict, change: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, parent, change, verdict)``; any regressed."""
    rows = []
    regressed = False
    for workload, p_entry in parent["workloads"].items():
        c_entry = change["workloads"].get(workload)
        if c_entry is None:
            rows.append((workload, "-", "present", "missing", "missing"))
            continue
        for metric, p in p_entry["metrics"].items():
            c = c_entry["metrics"].get(metric)
            if c is None:
                rows.append((workload, metric, _side(p), "missing", "missing"))
                continue
            result = verdict(p, c, p["better"], p["bound"])
            regressed = regressed or result == "regressed"
            rows.append((workload, metric, _side(p), _side(c), result))
        for metric, p in p_entry.get("per_layer", {}).items():
            c = c_entry.get("per_layer", {}).get(metric)
            if c is None:
                continue
            if p["exact"]:
                result = "same" if p["value"] == c["value"] else "changed"
            else:
                result = "info"
            rows.append((workload, metric, f"{p['value']}", f"{c['value']}", result))
    return rows, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.parent) as handle:
        parent = json.load(handle)
    with open(args.change) as handle:
        change = json.load(handle)
    mismatched = stamp_mismatches(parent["stamp"], change["stamp"])
    if mismatched:
        for key in mismatched:
            print(
                f"stamp mismatch on {key}: {parent['stamp'].get(key)!r} vs "
                f"{change['stamp'].get(key)!r}", file=sys.stderr,
            )
        return 2
    rows, regressed = compare(parent, change)
    print(f"{'workload':<16} {'metric':<38} {'parent':<30} {'change':<30} verdict")
    for workload, metric, p, c, result in rows:
        print(f"{workload:<16} {metric:<38} {p:<30} {c:<30} {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
