"""Content-addressed keys: canonical serialization + BLAKE2b hashing.

A stored result is addressed by a hash over *everything that determines
it* — and nothing else.  The key material for one paired visit is the
canonical JSON rendering of:

* the per-visit slice of the :class:`~repro.measurement.campaign.
  CampaignConfig` (protocol knobs, shaping, transport config, fault
  profile, strict flag — but *not* campaign topology like
  ``probes_per_vantage``, which changes how many visits exist rather
  than what any one visit measures),
* the page spec (HTML + subresources) plus the
  :class:`~repro.web.hosts.HostSpec` of every host the page touches —
  so regenerating a universe with more sites, or renaming it, never
  invalidates visits whose actual inputs are unchanged,
* the vantage point, the probe index, and the *derived* per-visit seed
  (which folds in the campaign seed and the page's position — page
  order changes RNG streams, so it legitimately changes the key),
* the store schema version (:data:`STORE_SCHEMA_VERSION`), so a format
  bump invalidates everything at once instead of mis-reading old
  payloads.

Deliberately excluded: the fault profile's *name* (two profiles with
identical events and retry policy produce identical results) and the
universe's generator config/seed (captured through the concrete page
and host specs instead).

Canonical JSON is ``sort_keys=True`` with compact separators and
``allow_nan=False``; the only non-finite value in any config —
``FaultEvent.end_ms`` defaulting to infinity — is rendered as the
string ``"inf"``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from typing import Mapping

from repro.measurement.campaign import CampaignConfig
from repro.measurement.vantage import VantagePoint
from repro.web.hosts import HostSpec
from repro.web.page import Webpage
from repro.web.resource import Resource

#: Bump on any incompatible change to key material or payload formats;
#: every key embeds it, so old entries simply become misses.
#:
#: v2: the proxy topology (:class:`~repro.netsim.proxy.ProxyConfig`)
#: joined the per-visit key material — a proxied visit traverses a
#: different path chain, so it must never collide with a direct one.
#:
#: v3: cache-hierarchy and compression knobs (plus a proxy-side cache
#: size) joined the key material.  Configs that use none of the new
#: features keep *absent* keys and embed schema 2 (see
#: :func:`_schema_for`), so every pre-v3 store entry still replays as a
#: hit and run hashes of default campaigns are unchanged.
STORE_SCHEMA_VERSION = 3

#: Hex digest length for visit keys and payload hashes (128-bit).
DIGEST_SIZE = 16


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, compact, no NaN/Infinity."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def blake2b_hex(data: bytes, digest_size: int = DIGEST_SIZE) -> str:
    return hashlib.blake2b(data, digest_size=digest_size).hexdigest()


def _finite(value):
    """Render non-finite floats as strings (canonical JSON rejects them)."""
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    return value


# ----------------------------------------------------------------------
# Config canonicalization
# ----------------------------------------------------------------------


def transport_part(config) -> dict:
    """A :class:`~repro.transport.config.TransportConfig` as key material."""
    return {k: _finite(v) for k, v in dataclasses.asdict(config).items()}


def fault_profile_part(profile) -> dict | None:
    """A :class:`~repro.faults.FaultProfile` as key material.

    The profile *name* is excluded: it is presentation metadata and two
    identically-scripted profiles must share cached results.
    """
    if profile is None:
        return None
    return {
        "events": [
            {
                "kind": event.kind,
                "start_ms": _finite(event.start_ms),
                "end_ms": _finite(event.end_ms),
                "hosts": list(event.hosts) if event.hosts is not None else None,
                "host_fraction": event.host_fraction,
                "salt": event.salt,
            }
            for event in profile.events
        ],
        "retry": dataclasses.asdict(profile.retry),
    }


def proxy_part(proxy) -> dict | None:
    """A :class:`~repro.netsim.proxy.ProxyConfig` as key material.

    The proxy model changes the wire behaviour (a CONNECT tunnel
    downgrades H3, a MASQUE relay passes it through), the client-leg
    profile shapes the access segment, and the forward delay adds hop
    latency — all of it determines the visit outcome.
    """
    if proxy is None:
        return None
    part = {
        "model": proxy.model,
        "client_profile": {
            k: _finite(v)
            for k, v in dataclasses.asdict(proxy.client_profile).items()
        },
        "forward_delay_ms": _finite(proxy.forward_delay_ms),
    }
    # Absent (not 0) when unset, so cacheless-proxy key material is
    # byte-identical to schema v2.
    if proxy.cache_mb:
        part["cache_mb"] = _finite(proxy.cache_mb)
    return part


def hierarchy_part(hierarchy) -> dict | None:
    """A :class:`~repro.cdn.hierarchy.HierarchyConfig` as key material."""
    if hierarchy is None:
        return None
    return {
        "tiers": [
            {
                "name": tier.name,
                "capacity_bytes": tier.capacity_bytes,
                "fetch_ms": _finite(tier.fetch_ms),
            }
            for tier in hierarchy.tiers
        ]
    }


def compression_part(compression) -> dict | None:
    """A :class:`~repro.cdn.compression.CompressionConfig` as key material."""
    if compression is None:
        return None
    return {
        "identity_request_ratio": _finite(compression.identity_request_ratio),
        "conversion_think_ms": _finite(compression.conversion_think_ms),
    }


def _schema_for(config_part: dict) -> int:
    """The schema version a key embeds for this config.

    v3 only *added* key material (hierarchy, compression, proxy cache).
    A config using none of it carries no v3 keys, so embedding schema 2
    keeps its keys — and therefore every pre-v3 store entry — valid.
    """
    if "hierarchy" in config_part or "compression" in config_part:
        return STORE_SCHEMA_VERSION
    proxy = config_part.get("proxy")
    if proxy is not None and proxy.get("cache_mb"):
        return STORE_SCHEMA_VERSION
    return 2


#: CampaignConfig fields that shape *one* visit's simulation.  Topology
#: fields (probes_per_vantage, max_vantage_points) and the base seed are
#: excluded — the first two only change how many visits exist, and the
#: seed enters each key through the derived per-visit seed.  Purely
#: observational knobs (metrics_interval_ms, metrics_max_samples, spans,
#: profile_loop, progress) are excluded *by design*: telemetry never
#: changes what a visit measures, so toggling it must not invalidate
#: cached visits.
_VISIT_CONFIG_FIELDS = (
    "visits_per_page",
    "loss_rate",
    "rate_mbps",
    "warm_popular",
    "use_session_tickets",
    "collect_counters",
    "trace",
    "strict",
)


def visit_config_part(config: CampaignConfig) -> dict:
    """The per-visit slice of a campaign config, as key material."""
    part = {name: getattr(config, name) for name in _VISIT_CONFIG_FIELDS}
    part["transport"] = transport_part(config.transport_config)
    part["faults"] = fault_profile_part(config.fault_profile)
    part["proxy"] = proxy_part(config.proxy)
    # v3 knobs stay *absent* (not null) at their defaults so default
    # configs produce byte-identical key material to schema v2.
    hierarchy = hierarchy_part(config.cache_hierarchy)
    if hierarchy is not None:
        part["hierarchy"] = hierarchy
    compression = compression_part(config.compression)
    if compression is not None:
        part["compression"] = compression
    return part


def campaign_config_hash(
    config: CampaignConfig, config_part: dict | None = None
) -> str:
    """Hash of the *whole* campaign config (run-level provenance).

    Unlike :func:`visit_config_part` this covers every field — seed and
    topology included — because it identifies a campaign, not a visit.
    It is the ``config_hash`` recorded in run manifests and the store's
    ``runs`` table.  A caller that already holds
    ``visit_config_part(config)`` passes it as ``config_part``.
    """
    material = dict(
        visit_config_part(config) if config_part is None else config_part
    )
    material["seed"] = config.seed
    material["probes_per_vantage"] = config.probes_per_vantage
    material["max_vantage_points"] = config.max_vantage_points
    material["schema"] = _schema_for(material)
    return blake2b_hex(canonical_json(material).encode())


@dataclasses.dataclass(frozen=True)
class ConfigFragment:
    """A config part rendered once: its canonical JSON and its schema.

    :func:`paired_visit_key` and :func:`consecutive_key` accept either
    this or the config part itself; a campaign renders its part once
    and reuses the fragment for every slot.
    """

    json: str
    schema: int

    @classmethod
    def of(cls, config_part: dict) -> "ConfigFragment":
        return cls(canonical_json(config_part), _schema_for(config_part))


def _config_fragment(config_part: dict | ConfigFragment) -> ConfigFragment:
    if isinstance(config_part, ConfigFragment):
        return config_part
    return ConfigFragment.of(config_part)


# ----------------------------------------------------------------------
# Workload canonicalization
# ----------------------------------------------------------------------
#
# Resources, hosts and vantage points enter a key as canonical-JSON
# fragments, spliced into the key material in sorted-key order.  The
# three are frozen dataclasses, so each fragment is cached by the
# value of its object; ``Webpage`` and a universe's host map are
# mutable, so pages are never cached here.

#: Bound of each fragment cache (a page has ~100 resources).
_FRAGMENT_CACHE = 1 << 14


@functools.lru_cache(maxsize=_FRAGMENT_CACHE)
def _resource_fragment(resource: Resource) -> str:
    """One :class:`~repro.web.resource.Resource` as key material."""
    return canonical_json({
        "url": resource.url,
        "host": resource.host,
        "type": resource.rtype.value,
        "size": resource.size_bytes,
        "provider": resource.provider_name,
        "wave": resource.wave,
        "popular": resource.popular,
        "request_bytes": resource.request_bytes,
    })


@functools.lru_cache(maxsize=_FRAGMENT_CACHE)
def _host_fragment(spec: HostSpec) -> str:
    """One :class:`~repro.web.hosts.HostSpec` as key material."""
    return canonical_json({
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
    })


@functools.lru_cache(maxsize=256)
def _vantage_fragment(vantage: VantagePoint) -> str:
    """One :class:`~repro.measurement.vantage.VantagePoint` as key material."""
    return canonical_json({
        "name": vantage.name,
        "rtt_scale": vantage.rtt_scale,
        "extra_delay_ms": vantage.extra_delay_ms,
    })


def page_part(page: Webpage, hosts: Mapping[str, HostSpec]) -> str:
    """One page plus the host specs it touches, as key material.

    ``hosts`` is the universe's full inventory; only the page's own
    hosts are folded in, so unrelated universe changes don't invalidate
    the page's cached visits.  Returns the canonical-JSON rendering of
    ``{"url", "origin_host", "html", "resources", "hosts"}``, assembled
    from cached resource and host fragments.
    """
    page_hosts = ",".join([
        _host_fragment(hosts[name]) for name in sorted(page.hosts())
        if name in hosts
    ])
    resources = ",".join(map(_resource_fragment, page.resources))
    return (
        f'{{"hosts":[{page_hosts}],"html":{_resource_fragment(page.html)},'
        f'"origin_host":{canonical_json(page.origin_host)},'
        f'"resources":[{resources}],"url":{canonical_json(page.url)}}}'
    )


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------


def paired_visit_key(
    config_part: dict | ConfigFragment,
    page_material: str,
    vantage: VantagePoint,
    probe_index: int,
    derived_seed: int,
) -> str:
    """The store key for one paired (H2, H3) visit.

    The key material is ``{"schema", "kind": "paired", "mode": "h2+h3",
    "config", "page", "vantage", "probe_index", "seed"}`` in canonical
    JSON.  ``config_part`` comes from :func:`visit_config_part` (or its
    :class:`ConfigFragment`) and ``page_material`` from
    :func:`page_part`, so campaign-scale key derivation renders each
    config and page once, not once per slot.
    """
    config = _config_fragment(config_part)
    material = (
        f'{{"config":{config.json},"kind":"paired","mode":"h2+h3",'
        f'"page":{page_material},"probe_index":{probe_index},'
        f'"schema":{config.schema},"seed":{derived_seed},'
        f'"vantage":{_vantage_fragment(vantage)}}}'
    )
    return blake2b_hex(material.encode())


def consecutive_key(
    mode: str,
    pages_material: list[str],
    config_material: dict | ConfigFragment,
) -> str:
    """The store key for one whole consecutive-visit walk.

    Session tickets persist across the walk, so individual visits don't
    decompose — the unit of caching is the ordered walk under one mode.
    The key material is ``{"schema", "kind": "consecutive", "mode",
    "config", "pages"}`` in canonical JSON, ``pages`` from
    :func:`page_part`.
    """
    config = _config_fragment(config_material)
    material = (
        f'{{"config":{config.json},"kind":"consecutive",'
        f'"mode":{canonical_json(mode)},"pages":[{",".join(pages_material)}],'
        f'"schema":{config.schema}}}'
    )
    return blake2b_hex(material.encode())
