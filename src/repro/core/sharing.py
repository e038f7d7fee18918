"""Shared-provider analysis: Fig. 8 and Table III (Section VI-D).

Consecutive browsing with a persistent TLS session-ticket store lets a
page resume connections to CDN hostnames that *earlier pages* already
contacted.  The more giant providers a page shares with its
predecessors, the more 0-RTT resumptions H3 gets, and the larger the
PLT reduction — that is Fig. 8.  Table III sharpens it into a case
study: k-means over binary domain-usage vectors splits the cohort into
a high-sharing and a low-sharing group, and the high-sharing group
must show roughly double the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.kmeans import kmeans
from repro.analysis.stats import mean
from repro.cdn.provider import GIANT_PROVIDERS
from repro.core.metrics import reduction
from repro.measurement.campaign import SimConfig
from repro.measurement.consecutive import ConsecutiveRun
from repro.measurement.executor import ConsecutivePlan, execute
from repro.measurement.farm import ProbeNetProfile
from repro.web.page import Webpage
from repro.web.topsites import WebUniverse


def giant_provider_count(page: Webpage) -> int:
    """Providers used on ``page`` among the paper's six giants."""
    return len(page.providers & set(GIANT_PROVIDERS))


def plt_reduction_by_provider_count(
    h2_run: ConsecutiveRun,
    h3_run: ConsecutiveRun,
    pages: Sequence[Webpage],
) -> dict[int, float]:
    """Fig. 8(a): mean PLT reduction vs number of used (giant) providers."""
    if not (len(h2_run.visits) == len(h3_run.visits) == len(pages)):
        raise ValueError("runs and pages must align one-to-one")
    by_count: dict[int, list[float]] = {}
    for page, h2_visit, h3_visit in zip(pages, h2_run.visits, h3_run.visits):
        count = giant_provider_count(page)
        by_count.setdefault(count, []).append(
            reduction(h2_visit.plt_ms, h3_visit.plt_ms)
        )
    return {count: mean(values) for count, values in sorted(by_count.items())}


def resumed_by_provider_count(
    h3_run: ConsecutiveRun, pages: Sequence[Webpage]
) -> dict[int, float]:
    """Fig. 8(b): mean resumed connections vs number of used providers."""
    if len(h3_run.visits) != len(pages):
        raise ValueError("run and pages must align one-to-one")
    by_count: dict[int, list[float]] = {}
    for page, visit in zip(pages, h3_run.visits):
        count = giant_provider_count(page)
        by_count.setdefault(count, []).append(
            float(visit.har.resumed_connection_count())
        )
    return {count: mean(values) for count, values in sorted(by_count.items())}


def domain_vectors(
    pages: Sequence[Webpage],
) -> tuple[list[str], list[tuple[int, ...]], list[Webpage]]:
    """Build the Table III clustering input.

    Following the paper: extract the CDN domains used by the pages,
    drop *outlier* pages none of whose domains appear on any other
    page, and represent each remaining page as a binary vector over the
    cross-page domain vocabulary.
    """
    usage: dict[str, int] = {}
    for page in pages:
        for domain in page.cdn_domains():
            usage[domain] = usage.get(domain, 0) + 1
    shared_domains = sorted(d for d, count in usage.items() if count >= 2)
    kept: list[Webpage] = []
    vectors: list[tuple[int, ...]] = []
    shared_set = set(shared_domains)
    for page in pages:
        page_domains = page.cdn_domains() & shared_set
        if not page_domains:
            continue  # outlier: shares nothing with any other page
        kept.append(page)
        vectors.append(tuple(1 if d in page_domains else 0 for d in shared_domains))
    return shared_domains, vectors, kept


@dataclass(frozen=True)
class SharingGroupStats:
    """One row-group of Table III."""

    label: str
    n_pages: int
    avg_shared_providers: float
    avg_resumed_connections: float
    plt_reduction_ms: float


@dataclass(frozen=True)
class CaseStudyResult:
    """The full Table III: high-sharing (C_H) vs low-sharing (C_L)."""

    high: SharingGroupStats
    low: SharingGroupStats
    n_domains: int
    outliers_removed: int


def case_study(
    universe: WebUniverse,
    pages: Sequence[Webpage] | None = None,
    sim: SimConfig = SimConfig(),
    net_profile: ProbeNetProfile | None = None,
) -> CaseStudyResult:
    """Run the paper's Table III case study end to end.

    k-means (k=2) over domain vectors partitions the pages; the group
    with the higher average provider count is C_H.  Each group is then
    measured with consecutive visits under both protocol modes, with
    ``sim`` as the walks' config; its seed also seeds the clustering.
    """
    pages = list(pages if pages is not None else universe.pages)
    domains, vectors, kept = domain_vectors(pages)
    if len(kept) < 4:
        raise ValueError("too few non-outlier pages for a case study")
    # k-means on binary domain vectors has many near-equivalent optima;
    # some split by *which* provider dominates rather than by *how
    # much* is shared.  The paper's stated purpose for the clustering
    # is a high-sharing vs low-sharing division, so among restarts we
    # keep the split that best separates sharing degree (and is not
    # degenerate in size).
    best_groups: list[list[Webpage]] | None = None
    best_separation = -1.0
    for restart in range(8):
        clustering = kmeans(vectors, k=2, seed=sim.seed + restart)
        groups = [
            [kept[i] for i in clustering.cluster_indices(label)]
            for label in (0, 1)
        ]
        if min(len(g) for g in groups) < max(2, len(kept) // 10):
            continue  # degenerate split
        separation = abs(
            mean(giant_provider_count(p) for p in groups[0])
            - mean(giant_provider_count(p) for p in groups[1])
        )
        if separation > best_separation:
            best_separation = separation
            best_groups = groups
    if best_groups is None:
        raise ValueError("degenerate clustering: no balanced split found")
    # C_H is the cluster with more shared (giant) providers per page.
    best_groups.sort(key=lambda group: mean(giant_provider_count(p) for p in group))
    low_pages, high_pages = best_groups

    def measure(label: str, group: list[Webpage]) -> SharingGroupStats:
        h2_run, h3_run = execute(ConsecutivePlan(
            universe=universe,
            pages=tuple(group),
            net_profile=net_profile,
            sim=sim,
        ))
        return SharingGroupStats(
            label=label,
            n_pages=len(group),
            avg_shared_providers=mean(
                float(giant_provider_count(p)) for p in group
            ),
            avg_resumed_connections=mean(
                float(v.har.resumed_connection_count()) for v in h3_run.visits
            ),
            plt_reduction_ms=mean(
                reduction(h2.plt_ms, h3.plt_ms)
                for h2, h3 in zip(h2_run.visits, h3_run.visits)
            ),
        )

    return CaseStudyResult(
        high=measure("C_H", high_pages),
        low=measure("C_L", low_pages),
        n_domains=len(domains),
        outliers_removed=len(pages) - len(kept),
    )
