"""Pinned hashes of whole visit documents, not just PLTs.

The benchmark digest hashes only PLTs and statuses, so a change to any
other HAR timing (``blocked``, ``wait``, …), to the pool statistics, to
a counter or to a trace event would slip past it.  These tests hash the
JSON of every visit document a short traced, counter-collecting
campaign produces — HAR, ``poolStats``, counters and trace, key order
included — and compare it with a pinned value.

A legitimate behaviour change re-pins the affected hash; a refactor
that claims to be bit-identical must leave every hash as it is.
"""

import hashlib
import json

import pytest

from repro.measurement import CampaignPlan, execute
from repro.netsim.proxy import ProxyConfig
from repro.scenario import preset
from repro.web.topsites import GeneratorConfig, cached_universe

PAGES = 3

SCENARIOS = {
    "paper-default": preset("paper-default"),
    "udp-blocked": preset("udp-blocked"),
    "lossy+masque-relay+nat-rebind": (
        preset("lossy").with_proxy("masque-relay").with_faults("nat-rebind")
    ),
    "connect-tunnel+cache": preset("paper-default").with_proxy(
        ProxyConfig(model="connect-tunnel", cache_mb=8.0)
    ),
    "cdn-hierarchy": preset("cdn-hierarchy"),
}

PINNED = {
    "paper-default": "7f32a40fa15d06bed71f255f01f2c4d4",
    "udp-blocked": "4bf377ebb850d64c76d0905c00b38835",
    "lossy+masque-relay+nat-rebind": "9e23612b53f9bfef2d974621d18ac786",
    "connect-tunnel+cache": "fcf601009c568f5032ac434449d8aca4",
    "cdn-hierarchy": "f40ba9c4930ffb1ce27187869cd52c9d",
}


@pytest.fixture(scope="module")
def universe():
    return cached_universe(GeneratorConfig(n_sites=8), seed=11)


def payload_hash(result) -> str:
    """BLAKE2b over every visit document, in campaign order."""
    h = hashlib.blake2b(digest_size=16)
    for paired in result.paired_visits:
        for visit in (paired.h2, paired.h3):
            document = json.dumps(visit.to_dict(), separators=(",", ":"))
            h.update(f"{paired.probe_name}|{document}\n".encode())
    for failure in result.failures:
        h.update(f"failed|{failure.probe_name}|{failure.page_url}|{failure.error}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_visit_documents_are_pinned(universe, name):
    config = SCENARIOS[name].campaign_config(
        seed=11, trace=True, collect_counters=True
    )
    result = execute(
        CampaignPlan(universe, sim=config, pages=universe.pages[:PAGES], workers=1)
    )
    assert result.paired_visits
    assert all(
        "trace" in visit.to_dict() and "counters" in visit.to_dict()
        for paired in result.paired_visits
        for visit in (paired.h2, paired.h3)
    )
    assert payload_hash(result) == PINNED[name]
