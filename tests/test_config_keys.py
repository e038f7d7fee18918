"""Store keys of the configs the project actually runs, pinned as literals.

A stored visit is addressed by a hash over its config slice, so a change
to how a config is declared or rendered must leave these literals alone:
a moved key orphans every entry of every existing store, and a moved
``campaign_config_hash`` breaks the provenance run manifests record.
The pins cover every scenario preset, the scenario variants the repo
benchmark and ``tests/test_visit_payloads.py`` run, the default
``SimConfig`` and one consecutive walk.

The property tests hold the key complete: every visit-shaping
``SimConfig`` field enters the visit key, the three topology/seed fields
enter only the campaign hash, and observe-only telemetry enters neither.
"""

from dataclasses import fields, replace

import pytest

from repro.cdn.compression import CompressionConfig
from repro.cdn.hierarchy import hierarchy_preset
from repro.faults import FAULT_PROFILES
from repro.measurement import CampaignConfig, SimConfig, TelemetryConfig, derive_seed
from repro.measurement.consecutive import ConsecutivePlan, _walk_key
from repro.measurement.vantage import default_vantage_points
from repro.netsim.proxy import ProxyConfig
from repro.scenario import SCENARIOS, preset
from repro.store import campaign_config_hash, paired_visit_key, visit_config_part
from repro.store.keys import _VISIT_CONFIG_FIELDS, page_part
from repro.transport.config import TransportConfig
from repro.web.topsites import GeneratorConfig, cached_universe

SEED = 11

CONFIGS = {
    **{
        f"preset:{name}": SCENARIOS[name].campaign_config(seed=SEED)
        for name in SCENARIOS
    },
    "cdn-hierarchy+fast-path": preset("cdn-hierarchy")
    .with_transport(TransportConfig(fast_path=True))
    .campaign_config(seed=SEED),
    "lossy+masque-relay+nat-rebind": preset("lossy")
    .with_proxy("masque-relay")
    .with_faults("nat-rebind")
    .campaign_config(seed=SEED),
    "connect-tunnel+cache": preset("paper-default")
    .with_proxy(ProxyConfig(model="connect-tunnel", cache_mb=8.0))
    .campaign_config(seed=SEED),
    "SimConfig()": CampaignConfig.from_groups(SimConfig()),
}

#: name -> (campaign_config_hash, paired_visit_key of page 0, vantage 0, probe 0)
PINNED = {
    "preset:paper-default": (
        "ec2bc3da9c6b2d4af826d78dbd0ad798",
        "0e924746a3dc36d67e3eb436a895abc5",
    ),
    "preset:lossy": (
        "32f6ed057c36521b8d9506cdb21bbc1f",
        "ef72e6fb5a8a64cf27c4753a3da980b3",
    ),
    "preset:udp-blocked": (
        "9c2ffe2d6a9450d1ed452eac5eae237e",
        "a8315f96402eb76f3c0b045a123a034e",
    ),
    "preset:cdn-hierarchy": (
        "c915a93ef63812ba451b064db113a465",
        "666304f18a84f496d903cc99992e3870",
    ),
    "cdn-hierarchy+fast-path": (
        "12c17828c8699e13e317e2015536e6be",
        "bad9c69d32469974ce1edce2e7bbc216",
    ),
    "lossy+masque-relay+nat-rebind": (
        "263b9be0fa654e229bcd7a049ddd670e",
        "db2053ad86a28350b63e2a96dd225824",
    ),
    "connect-tunnel+cache": (
        "9b538c71b87fe47513e344103d26b99c",
        "b9f142f2f58617a8780b523e39cbdc4a",
    ),
    "SimConfig()": (
        "236bee6174ac2965f75b9159eb697dc7",
        "99422f429ad3d8afe3aa58c5289e528b",
    ),
}

#: A value other than the default for every ``SimConfig`` field.  A new
#: field must be added here, so the completeness tests cover it.
ALTERNATIVES = {
    "visits_per_page": 3,
    "probes_per_vantage": 3,
    "max_vantage_points": None,
    "loss_rate": 0.01,
    "rate_mbps": 10.0,
    "warm_popular": False,
    "seed": 12,
    "transport_config": TransportConfig(initial_cwnd_packets=20),
    "use_session_tickets": False,
    "fault_profile": FAULT_PROFILES["udp-blocked"],
    "proxy": ProxyConfig(model="masque-relay"),
    "cache_hierarchy": hierarchy_preset("edge-regional"),
    "compression": CompressionConfig(),
}

#: SimConfig fields that select which visits run (or seed them), not
#: what one visit measures.
TOPOLOGY_FIELDS = ("seed", "probes_per_vantage", "max_vantage_points")

#: Telemetry alternatives for the fields outside the visit key.
TELEMETRY_ALTERNATIVES = {
    "metrics_interval_ms": 5.0,
    "metrics_max_samples": 64,
    "spans": True,
    "profile_loop": True,
    "progress": True,
}


@pytest.fixture(scope="module")
def universe():
    return cached_universe(GeneratorConfig(n_sites=8), seed=SEED)


def visit_key(universe, config: CampaignConfig) -> str:
    """The key the executor derives for page 0, vantage 0, probe 0."""
    return paired_visit_key(
        visit_config_part(config),
        page_part(universe.pages[0], universe.hosts),
        default_vantage_points()[0],
        0,
        derive_seed(config.seed, 0, 0, 0),
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_keys_are_pinned(universe, name):
    config = CONFIGS[name]
    assert (campaign_config_hash(config), visit_key(universe, config)) == PINNED[name]


def test_walk_keys_are_pinned(universe):
    plan = ConsecutivePlan(
        universe, pages=tuple(universe.pages[:3]), sim=CampaignConfig(seed=SEED)
    )
    assert (_walk_key(plan, "h2-only"), _walk_key(plan, "h3-enabled")) == (
        "37e05402f44f7c35aec933f1fe868836",
        "b420d9a66b859578d253f30023d030ba",
    )


def test_every_sim_field_has_an_alternative():
    assert set(ALTERNATIVES) == {f.name for f in fields(SimConfig)}
    base = CampaignConfig(seed=SEED)
    for name, value in ALTERNATIVES.items():
        assert getattr(base, name) != value, name


@pytest.mark.parametrize(
    "name", sorted(set(ALTERNATIVES) - set(TOPOLOGY_FIELDS))
)
def test_visit_shaping_field_changes_the_visit_key(universe, name):
    base = CampaignConfig(seed=SEED)
    changed = replace(base, **{name: ALTERNATIVES[name]})
    assert visit_key(universe, changed) != visit_key(universe, base)
    assert campaign_config_hash(changed) != campaign_config_hash(base)


@pytest.mark.parametrize("name", TOPOLOGY_FIELDS)
def test_topology_field_changes_only_the_campaign_hash(name):
    base = CampaignConfig(seed=SEED)
    changed = replace(base, **{name: ALTERNATIVES[name]})
    assert campaign_config_hash(changed) != campaign_config_hash(base)
    assert visit_config_part(changed) == visit_config_part(base)


def test_telemetry_alternatives_cover_the_unkeyed_fields():
    assert set(TELEMETRY_ALTERNATIVES) == {
        f.name for f in fields(TelemetryConfig)
    } - set(_VISIT_CONFIG_FIELDS)


@pytest.mark.parametrize("name", sorted(TELEMETRY_ALTERNATIVES))
def test_unkeyed_telemetry_field_changes_neither(universe, name):
    base = CampaignConfig(seed=SEED)
    changed = replace(base, **{name: TELEMETRY_ALTERNATIVES[name]})
    assert changed != base
    assert campaign_config_hash(changed) == campaign_config_hash(base)
    assert visit_key(universe, changed) == visit_key(universe, base)
