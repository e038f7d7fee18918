"""CDN-usage characteristics: the paper's Section V (Figs. 3, 4, 5).

These are composition facts about the measured pages.  They accept
either ground-truth :class:`~repro.web.page.Webpage` objects or a
page's HAR entries (classification output) — the paper computes them
from the HAR + LocEdge; both views agree in this harness and tests
assert so.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.analysis.stats import EmpiricalDistribution
from repro.web.page import Webpage


def cdn_fraction_ccdf(pages: Sequence[Webpage]) -> EmpiricalDistribution:
    """Distribution of per-page CDN resource percentage (Fig. 3).

    The paper reads this as a CCDF: "75 % of webpages have exceeded
    50 % CDN resources" ⇔ ``ccdf(0.5) ≈ 0.75``.
    """
    return EmpiricalDistribution([page.cdn_fraction for page in pages])


def provider_page_probability(pages: Sequence[Webpage]) -> dict[str, float]:
    """P(provider appears on a page), descending, ties by name (Fig. 4a)."""
    if not pages:
        raise ValueError("no pages")
    appearance: Counter[str] = Counter()
    for page in pages:
        for provider in page.providers:
            appearance[provider] += 1
    probabilities = {name: count / len(pages) for name, count in appearance.items()}
    return dict(sorted(probabilities.items(), key=lambda kv: (-kv[1], kv[0])))


def pages_by_provider_count(pages: Sequence[Webpage]) -> dict[int, int]:
    """Number of pages using exactly k providers (Fig. 4b)."""
    counts: Counter[int] = Counter(page.provider_count for page in pages)
    return dict(sorted(counts.items()))


def multi_provider_share(pages: Sequence[Webpage]) -> float:
    """Fraction of pages using >= 2 providers (paper: 94.8 %)."""
    if not pages:
        raise ValueError("no pages")
    return sum(1 for page in pages if page.provider_count >= 2) / len(pages)


def provider_resource_ccdf(
    pages: Sequence[Webpage], provider: str
) -> EmpiricalDistribution:
    """Per-page count of ``provider``'s resources, over pages that use
    it at all (Fig. 5)."""
    counts = [
        page.resources_by_provider()[provider]
        for page in pages
        if provider in page.providers
    ]
    if not counts:
        raise ValueError(f"no page uses provider {provider!r}")
    return EmpiricalDistribution([float(c) for c in counts])


def cdn_fraction_ccdf_from_entries(
    pages_entries: Iterable[Sequence],
) -> EmpiricalDistribution:
    """Fig. 3 computed the paper's way: from classified HAR entries.

    ``pages_entries`` yields, per page, that page's HAR entries; the
    CDN flag comes from the LocEdge-style classifier.
    """
    fractions = []
    for entries in pages_entries:
        entries = list(entries)
        if not entries:
            continue
        fractions.append(sum(1 for e in entries if e.is_cdn) / len(entries))
    return EmpiricalDistribution(fractions)
