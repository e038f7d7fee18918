"""Store keys spliced from cached fragments equal the dict-rendered keys.

Keys are assembled from canonical-JSON fragments of resources, hosts,
vantage points and a once-rendered config part.  The oracle here is
the plain rendering those fragments replace: build the key material as
one dict and hash ``canonical_json`` of it.  Both must give the same
bytes for every scenario preset, on the reference top list the repo
benchmark runs, for paired visits and for consecutive walks.
"""

import dataclasses

import pytest

from repro.measurement import CampaignConfig, derive_seed
from repro.measurement.consecutive import ConsecutivePlan, _walk_key
from repro.measurement.farm import ProbeNetProfile
from repro.measurement.vantage import default_vantage_points
from repro.scenario import SCENARIOS
from repro.store import campaign_config_hash, paired_visit_key, visit_config_part
from repro.store.keys import _schema_for, blake2b_hex, canonical_json, page_part
from repro.web.topsites import GeneratorConfig, TopSitesGenerator, cached_universe

PAGES = 8


@pytest.fixture(scope="module")
def universe():
    return cached_universe(GeneratorConfig(n_sites=128), seed=11)


# -- the dict rendering the fragments replace ---------------------------


def dict_resource(resource) -> dict:
    return {
        "url": resource.url,
        "host": resource.host,
        "type": resource.rtype.value,
        "size": resource.size_bytes,
        "provider": resource.provider_name,
        "wave": resource.wave,
        "popular": resource.popular,
        "request_bytes": resource.request_bytes,
    }


def dict_host(spec) -> dict:
    return {
        "hostname": spec.hostname,
        "kind": spec.kind,
        "provider": spec.provider_name,
        "h3": spec.supports_h3,
        "h2": spec.supports_h2,
        "rtt_ms": spec.base_rtt_ms,
        "think_ms": spec.base_think_ms,
        "origin_fetch_ms": spec.origin_fetch_ms,
        "h3_overhead_ms": spec.h3_think_overhead_ms,
        "tls": spec.tls_version.value,
    }


def dict_page(page, hosts) -> dict:
    return {
        "url": page.url,
        "origin_host": page.origin_host,
        "html": dict_resource(page.html),
        "resources": [dict_resource(r) for r in page.resources],
        "hosts": [
            dict_host(hosts[name]) for name in sorted(page.hosts())
            if name in hosts
        ],
    }


def dict_visit_key(config_part, page, hosts, vantage, probe_index, seed) -> str:
    material = {
        "schema": _schema_for(config_part),
        "kind": "paired",
        "mode": "h2+h3",
        "config": config_part,
        "page": dict_page(page, hosts),
        "vantage": {
            "name": vantage.name,
            "rtt_scale": vantage.rtt_scale,
            "extra_delay_ms": vantage.extra_delay_ms,
        },
        "probe_index": probe_index,
        "seed": seed,
    }
    return blake2b_hex(canonical_json(material).encode())


def dict_walk_key(plan, mode) -> str:
    config = {
        "net_profile": (
            dataclasses.asdict(plan.net_profile)
            if plan.net_profile is not None
            else None
        ),
        "seed": plan.config.seed,
        "transport": None,
        "use_session_tickets": plan.config.use_session_tickets,
        "warm_edges_first": True,
        "strict": plan.config.strict,
    }
    material = {
        "schema": _schema_for(config),
        "kind": "consecutive",
        "mode": mode,
        "config": config,
        "pages": [dict_page(page, plan.universe.hosts) for page in plan.pages],
    }
    return blake2b_hex(canonical_json(material).encode())


# -- the oracle ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_visit_keys_equal_the_dict_rendering(universe, name):
    config = SCENARIOS[name].campaign_config(seed=5)
    part = visit_config_part(config)
    hosts = universe.hosts
    for page_index, page in enumerate(universe.pages[:PAGES]):
        material = page_part(page, hosts)
        for vp_index, vantage in enumerate(default_vantage_points()):
            for probe_index in range(2):
                seed = derive_seed(config.seed, vp_index, probe_index, page_index)
                assert paired_visit_key(
                    part, material, vantage, probe_index, seed
                ) == dict_visit_key(part, page, hosts, vantage, probe_index, seed)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_campaign_hash_reuses_the_visit_part(name):
    config = SCENARIOS[name].campaign_config(seed=5)
    material = dict(visit_config_part(config))
    material.update(
        seed=config.seed,
        probes_per_vantage=config.probes_per_vantage,
        max_vantage_points=config.max_vantage_points,
    )
    material["schema"] = _schema_for(material)
    assert campaign_config_hash(config) == blake2b_hex(
        canonical_json(material).encode()
    )


@pytest.mark.parametrize(
    "plan_kwargs",
    [
        {"sim": CampaignConfig(seed=3)},
        {"sim": CampaignConfig(seed=4, use_session_tickets=False, strict=True)},
        {"sim": CampaignConfig(seed=5), "net_profile": ProbeNetProfile(loss_rate=0.01)},
    ],
    ids=["default", "no-tickets-strict", "lossy-profile"],
)
def test_walk_keys_equal_the_dict_rendering(universe, plan_kwargs):
    plan = ConsecutivePlan(universe, pages=tuple(universe.pages[:PAGES]), **plan_kwargs)
    for mode in ("h2-only", "h3-enabled"):
        assert _walk_key(plan, mode) == dict_walk_key(plan, mode)


def test_equal_pages_from_fresh_objects_share_their_keys(universe):
    """Fragments are cached by value: a regenerated universe (new,
    equal objects) renders the same bytes."""
    regenerated = TopSitesGenerator(GeneratorConfig(n_sites=128)).generate(seed=11)
    page, twin = universe.pages[3], regenerated.pages[3]
    assert page is not twin and page == twin
    assert page_part(page, universe.hosts) == page_part(twin, regenerated.hosts)
