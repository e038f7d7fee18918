"""Cross-run regression diffing: per-page PLT deltas with bootstrap CIs.

``diff(store, run_a, run_b)`` aligns two named runs page by page and
reports, per protocol mode, the PLT delta distribution (B − A; positive
means B got *slower*), its bootstrap confidence interval from
:mod:`repro.analysis.bootstrap`, and a verdict: a **regression** is a
mean slowdown whose CI lower bound clears the threshold — i.e. the
slowdown is both large enough to matter and resolved above simulation
noise.  The CLI (``python -m repro.store diff``) exits non-zero on a
regression, which is what makes it usable as a CI perf gate.

Alignment is by ``(page_url, occurrence)``: runs visiting the same page
from several probes match their k-th occurrences in visit order, so
multi-probe campaigns diff probe-against-probe without needing probe
names in the stored payloads.  Failed visits (graceful-degradation
records) carry no measurement and are skipped, but their counts are
reported — a run that suddenly fails pages is suspicious even if the
surviving pages got faster.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis.bootstrap import ConfidenceInterval, bootstrap_ci
from repro.store.store import ResultStore

#: Default regression threshold: mean PLT increase (ms) the CI lower
#: bound must clear before the diff exits non-zero.
DEFAULT_THRESHOLD_MS = 5.0


@dataclass(frozen=True)
class PageDelta:
    """PLT deltas (run B − run A, ms) for one aligned page visit."""

    page_url: str
    occurrence: int
    h2_delta_ms: float
    h3_delta_ms: float


@dataclass(frozen=True)
class ModeDelta:
    """One protocol mode's delta distribution across aligned pages."""

    mode: str
    ci: ConfidenceInterval
    #: Whether the mean slowdown clears the threshold above noise.
    regression: bool

    def render(self) -> str:
        verdict = "REGRESSION" if self.regression else "ok"
        return f"  {self.mode:11s} ΔPLT {self.ci} ms  [{verdict}]"


@dataclass
class RunDiff:
    """The full comparison of two named runs."""

    run_a: str
    run_b: str
    threshold_ms: float
    pages: list[PageDelta]
    h2: ModeDelta
    h3: ModeDelta
    #: Pages present in only one run (url → 'a' or 'b').
    unmatched: dict[str, str]
    failed_a: int
    failed_b: int

    @property
    def regression(self) -> bool:
        return self.h2.regression or self.h3.regression

    def worst_pages(self, n: int = 5) -> list[PageDelta]:
        """The ``n`` pages with the largest H3-mode slowdown."""
        return sorted(
            self.pages, key=lambda d: d.h3_delta_ms, reverse=True
        )[:n]

    def render(self) -> str:
        lines = [
            f"diff {self.run_a!r} → {self.run_b!r}: "
            f"{len(self.pages)} aligned paired visits "
            f"(threshold {self.threshold_ms:g} ms)",
            self.h2.render(),
            self.h3.render(),
        ]
        if self.failed_a or self.failed_b:
            lines.append(
                f"  failed visits: {self.failed_a} in A, {self.failed_b} in B"
            )
        if self.unmatched:
            lines.append(
                f"  unmatched pages: {len(self.unmatched)} "
                f"({sum(1 for side in self.unmatched.values() if side == 'a')}"
                f" only in A)"
            )
        for delta in self.worst_pages(3):
            lines.append(
                f"    {delta.page_url}: H3 {delta.h3_delta_ms:+.1f} ms, "
                f"H2 {delta.h2_delta_ms:+.1f} ms"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "run_a": self.run_a,
            "run_b": self.run_b,
            "threshold_ms": self.threshold_ms,
            "aligned_visits": len(self.pages),
            "regression": self.regression,
            "h2": _mode_dict(self.h2),
            "h3": _mode_dict(self.h3),
            "failed_a": self.failed_a,
            "failed_b": self.failed_b,
            "unmatched": dict(self.unmatched),
        }


def _mode_dict(mode: ModeDelta) -> dict:
    return {
        "mean_delta_ms": mode.ci.point,
        "ci_low": mode.ci.low,
        "ci_high": mode.ci.high,
        "confidence": mode.ci.confidence,
        "regression": mode.regression,
    }


def _visit_plts(outcomes: list) -> tuple[dict, int]:
    """``(page_url, occurrence) → (h2 PLT, h3 PLT)`` for one run.

    ``failed`` outcomes are tallied separately.
    """
    counts: dict[str, int] = defaultdict(int)
    plts: dict[tuple[str, int], tuple[float, float]] = {}
    failed = 0
    for outcome in outcomes:
        if outcome.status == "failed":
            failed += 1
            continue
        url = outcome.h2.page_url
        occurrence = counts[url]
        counts[url] += 1
        plts[(url, occurrence)] = (outcome.h2.plt_ms, outcome.h3.plt_ms)
    return plts, failed


def _mode_delta(
    mode: str,
    deltas: list[float],
    threshold_ms: float,
    confidence: float,
    seed: int,
) -> ModeDelta:
    ci = bootstrap_ci(deltas, confidence=confidence, seed=seed)
    return ModeDelta(
        mode=mode, ci=ci, regression=ci.low > threshold_ms
    )


def diff_runs(
    store: ResultStore,
    run_a: str,
    run_b: str,
    threshold_ms: float = DEFAULT_THRESHOLD_MS,
    confidence: float = 0.95,
    seed: int = 0,
) -> RunDiff:
    """Compare two named runs; see the module docstring for semantics."""
    plts_a, failed_a = _visit_plts(store.run_outcomes(run_a))
    plts_b, failed_b = _visit_plts(store.run_outcomes(run_b))
    shared = sorted(set(plts_a) & set(plts_b))
    if not shared:
        raise ValueError(
            f"runs {run_a!r} and {run_b!r} share no successfully measured pages"
        )
    pages = [
        PageDelta(
            page_url=url,
            occurrence=occurrence,
            h2_delta_ms=plts_b[(url, occurrence)][0] - plts_a[(url, occurrence)][0],
            h3_delta_ms=plts_b[(url, occurrence)][1] - plts_a[(url, occurrence)][1],
        )
        for url, occurrence in shared
    ]
    unmatched: dict[str, str] = {}
    for url, __ in set(plts_a) - set(plts_b):
        unmatched[url] = "a"
    for url, __ in set(plts_b) - set(plts_a):
        unmatched[url] = "b"
    return RunDiff(
        run_a=run_a,
        run_b=run_b,
        threshold_ms=threshold_ms,
        pages=pages,
        h2=_mode_delta(
            "h2-only", [d.h2_delta_ms for d in pages],
            threshold_ms, confidence, seed,
        ),
        h3=_mode_delta(
            "h3-enabled", [d.h3_delta_ms for d in pages],
            threshold_ms, confidence, seed,
        ),
        unmatched=unmatched,
        failed_a=failed_a,
        failed_b=failed_b,
    )
