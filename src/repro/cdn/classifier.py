"""LocEdge-style CDN classification.

The paper uses LocEdge (Huang et al., SIGCOMM'22 demo) to decide, for
every HAR entry, whether the resource came from a CDN and from which
provider.  This module reimplements the same decision from the two
signals available in a HAR record: response headers (``Server`` /
``Via`` fingerprints) and the request hostname (known shared-edge
domains and provider-specific domain patterns).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.cdn.provider import CdnProvider, default_providers


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of classifying one response."""

    is_cdn: bool
    provider_name: str | None
    #: Which signal matched: "header", "domain", "pattern" or None.
    matched_by: str | None

    @staticmethod
    def non_cdn() -> "ClassificationResult":
        return ClassificationResult(False, None, None)


#: Hostname substrings that identify a provider even for customer-owned
#: hostnames (CNAME targets, conventional edge naming).
_DOMAIN_PATTERNS: dict[str, tuple[str, ...]] = {
    "google": ("googleapis.com", "gstatic.com", "googleusercontent.com",
               "doubleclick.net", "ytimg.com", "googletagmanager.com",
               "google-analytics.com"),
    "cloudflare": ("cloudflare.com", "cloudflare.net", "cloudflareinsights.com",
                   "videodelivery.net", "imagedelivery.net", "cloudflarestorage.com"),
    "amazon": ("cloudfront.net", "awsstatic.com", "ssl-images-amazon.com",
               "media-amazon.com"),
    "akamai": ("akamai.net", "akamaized.net", "akamaiedge.net",
               "akamai.steamstatic.com"),
    "fastly": ("fastly.net", "fastlylb.net", "jsdelivr.net.fastly",),
    "microsoft": ("azureedge.net", "aspnetcdn.com", "office.net", "azure.com"),
    "quic_cloud": ("quic.cloud",),
    "meta": ("fbcdn.net", "facebook.net",),
    "jsdelivr": ("jsdelivr.net",),
    "cdn77": ("cdn77.org",),
}


def _build_index(
    providers: tuple[CdnProvider, ...]
) -> tuple[dict[str, str], dict[str, str], dict[str, str], frozenset[str]]:
    """Header, shared-domain and name lookups for one provider registry."""
    by_server = {p.header_server.lower(): p.name for p in providers}
    by_via = {
        p.header_via.lower(): p.name for p in providers if p.header_via is not None
    }
    by_domain = {
        domain.lower(): p.name for p in providers for domain in p.shared_domains
    }
    return by_server, by_via, by_domain, frozenset(p.name for p in providers)


#: The default registry's lookups, built once: every HAR entry of every
#: visit is classified against them.
_DEFAULT_INDEX = _build_index(default_providers())


def classify_response(
    host: str,
    headers: dict[str, str] | None = None,
    providers: tuple[CdnProvider, ...] | None = None,
) -> ClassificationResult:
    """Classify one response as CDN/non-CDN and identify the provider.

    Signals are checked in decreasing reliability order, mirroring
    LocEdge: exact header fingerprints, then exact shared-domain
    matches, then provider domain patterns.  Anything unmatched is
    non-CDN.  Header names match case-insensitively; when several
    spell the same name, the last one wins.  Verdicts against the
    default registry are memoised on the host and header items as
    sent; a caller-supplied ``providers`` registry is classified afresh
    each time.
    """
    items = tuple(headers.items()) if headers else ()
    if providers is not None:
        return _classify(*_decision_inputs(host, items), _build_index(providers))
    return _classify_sent(host, items)


def _decision_inputs(host: str, items: tuple) -> tuple[str, str, str]:
    """The lower-cased host, ``server`` and ``via`` the decision reads."""
    server = via = ""
    for name, value in items:
        name = name.lower()
        if name == "server":
            server = value
        elif name == "via":
            via = value
    return host.lower(), server.lower(), via.lower()


@lru_cache(maxsize=1 << 16)
def _classify_sent(host: str, items: tuple) -> ClassificationResult:
    """The default registry's verdict on a response as sent: a response
    seen before skips the header scan and its ``str.lower`` calls."""
    return _classify_default(*_decision_inputs(host, items))


@lru_cache(maxsize=1 << 16)
def _classify_default(host: str, server: str, via: str) -> ClassificationResult:
    """:func:`_classify` against the default registry, memoised on the
    three lower-cased inputs the decision reads.  Results are frozen, so
    every caller may share one."""
    return _classify(host, server, via, _DEFAULT_INDEX)


def _classify(
    host: str,
    server: str,
    via: str,
    index: tuple[dict[str, str], dict[str, str], dict[str, str], frozenset[str]],
) -> ClassificationResult:
    """The decision on lower-cased inputs against one registry's index."""
    by_server, by_via, by_domain, known_names = index
    if server in by_server:
        return ClassificationResult(True, by_server[server], "header")
    if via in by_via:
        return ClassificationResult(True, by_via[via], "header")

    if host in by_domain:
        return ClassificationResult(True, by_domain[host], "domain")

    for provider_name, patterns in _DOMAIN_PATTERNS.items():
        if provider_name not in known_names:
            continue
        if any(pattern in host for pattern in patterns):
            return ClassificationResult(True, provider_name, "pattern")

    return ClassificationResult.non_cdn()


def _default_dictionary() -> dict[str, str]:
    """Suffix table seeded from the provider registry's shared domains
    plus the domain patterns above."""
    table: dict[str, str] = {}
    for provider in default_providers():
        for domain in provider.shared_domains:
            table.setdefault(domain.lower(), provider.name)
    for provider_name, patterns in _DOMAIN_PATTERNS.items():
        for pattern in patterns:
            table.setdefault(pattern.lower(), provider_name)
    return table


class DictClassifier:
    """Hostname-dictionary CDN classifier (scoky/detect_website_cdn style).

    The cheap second opinion: a flat domain-suffix table, no headers
    needed.  Matching is on DNS label boundaries — ``cdn.fastly.net``
    matches the ``fastly.net`` entry but ``myfastly.network.example``
    does not — which makes it stricter than ``classify_response``'s
    substring patterns.  It also knows nothing about customer-owned
    hostnames whose only CDN signal is in the response headers, so the
    two classifiers disagree at a measurable rate on realistic traffic;
    that disagreement rate is reported in the run manifest as a realism
    check.
    """

    def __init__(self, table: dict[str, str] | None = None) -> None:
        self._table = dict(table) if table is not None else _default_dictionary()

    def classify(self, host: str) -> ClassificationResult:
        labels = host.lower().rstrip(".").split(".")
        for start in range(len(labels) - 1):
            provider = self._table.get(".".join(labels[start:]))
            if provider is not None:
                return ClassificationResult(True, provider, "dict")
        return ClassificationResult.non_cdn()


def classifier_disagreement(
    entries,
    dict_classifier: DictClassifier | None = None,
) -> dict[str, object]:
    """Compare the dictionary classifier against HAR-entry labels.

    ``entries`` is an iterable of HAR entries carrying ``host``,
    ``is_cdn`` and ``provider`` (as produced by the LocEdge-style
    classifier at visit time).  Returns a manifest-ready summary.
    """
    dict_classifier = dict_classifier or DictClassifier()
    total = 0
    disagreements = 0
    missed_cdn = 0
    extra_cdn = 0
    provider_mismatch = 0
    for entry in entries:
        total += 1
        verdict = dict_classifier.classify(entry.host)
        if verdict.is_cdn != entry.is_cdn:
            disagreements += 1
            if entry.is_cdn:
                missed_cdn += 1
            else:
                extra_cdn += 1
        elif verdict.is_cdn and verdict.provider_name != entry.provider:
            disagreements += 1
            provider_mismatch += 1
    return {
        "entries": total,
        "disagreements": disagreements,
        "disagreement_rate": disagreements / total if total else 0.0,
        "missed_cdn": missed_cdn,
        "extra_cdn": extra_cdn,
        "provider_mismatch": provider_mismatch,
    }
