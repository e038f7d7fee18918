"""Universe serialization: save/load a generated cohort as JSON.

A :class:`~repro.web.topsites.WebUniverse` is normally regenerated from
``(config, seed)``; serialization exists for interoperability — export
a workload for external tools, archive the exact cohort a result was
produced on, or hand-craft universes for targeted experiments.
"""

from __future__ import annotations

import json
from typing import Any

from repro.transport.tcp import TlsVersion
from repro.web.hosts import HostSpec
from repro.web.page import Webpage, Website
from repro.web.resource import Resource, ResourceType
from repro.web.topsites import GeneratorConfig, WebUniverse


def _resource_to_dict(resource: Resource) -> dict[str, Any]:
    return {
        "url": resource.url,
        "host": resource.host,
        "type": resource.rtype.value,
        "size": resource.size_bytes,
        "provider": resource.provider_name,
        "wave": resource.wave,
        "popular": resource.popular,
    }


def _resource_from_dict(raw: dict[str, Any]) -> Resource:
    return Resource(
        url=raw["url"],
        host=raw["host"],
        rtype=ResourceType(raw["type"]),
        size_bytes=raw["size"],
        provider_name=raw.get("provider"),
        wave=raw.get("wave", 0),
        popular=raw.get("popular", True),
    )


def _host_to_dict(spec: HostSpec) -> dict[str, Any]:
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


def _host_from_dict(raw: dict[str, Any]) -> HostSpec:
    return HostSpec(
        hostname=raw["hostname"],
        kind=raw["kind"],
        provider_name=raw.get("provider"),
        supports_h3=raw["h3"],
        supports_h2=raw["h2"],
        base_rtt_ms=raw["rtt_ms"],
        base_think_ms=raw["think_ms"],
        origin_fetch_ms=raw.get("origin_fetch_ms", 60.0),
        h3_think_overhead_ms=raw.get("h3_overhead_ms", 4.0),
        tls_version=TlsVersion(raw.get("tls", "tls1.3")),
    )


def universe_to_dict(universe: WebUniverse) -> dict[str, Any]:
    """Serialize a universe (config is recorded as its field dict)."""
    return {
        "format": "repro-h3cdn-universe/1",
        "seed": universe.seed,
        "config": {
            key: value
            for key, value in universe.config.__dict__.items()
            if isinstance(value, (int, float, str, bool))
        },
        "hosts": [_host_to_dict(spec) for spec in universe.hosts.values()],
        "websites": [
            {
                "domain": site.domain,
                "rank": site.rank,
                "url": site.landing_page.url,
                "origin_host": site.landing_page.origin_host,
                "html": _resource_to_dict(site.landing_page.html),
                "resources": [
                    _resource_to_dict(r) for r in site.landing_page.resources
                ],
            }
            for site in universe.websites
        ],
    }


def universe_from_dict(document: dict[str, Any]) -> WebUniverse:
    """Reconstruct a universe saved by :func:`universe_to_dict`.

    The generator config is restored only for its scalar fields; the
    cohort itself is taken verbatim from the document, so analyses are
    unaffected by any config drift.
    """
    if document.get("format") != "repro-h3cdn-universe/1":
        raise ValueError(f"unrecognized universe format: {document.get('format')!r}")
    config_kwargs = {
        key: value
        for key, value in document.get("config", {}).items()
        if key in GeneratorConfig.__dataclass_fields__
    }
    hosts = {
        raw["hostname"]: _host_from_dict(raw) for raw in document["hosts"]
    }
    websites = []
    for raw in document["websites"]:
        page = Webpage(
            url=raw["url"],
            origin_host=raw["origin_host"],
            html=_resource_from_dict(raw["html"]),
            resources=tuple(_resource_from_dict(r) for r in raw["resources"]),
            rank=raw["rank"],
        )
        websites.append(Website(domain=raw["domain"], rank=raw["rank"], landing_page=page))
    return WebUniverse(
        websites=tuple(websites),
        hosts=hosts,
        config=GeneratorConfig(**config_kwargs),
        seed=document.get("seed", -1),
    )


def save_universe(universe: WebUniverse, path: str) -> None:
    """Write a universe to ``path`` as JSON."""
    with open(path, "w") as handle:
        json.dump(universe_to_dict(universe), handle)


def load_universe(path: str) -> WebUniverse:
    """Read a universe written by :func:`save_universe`."""
    with open(path) as handle:
        return universe_from_dict(json.load(handle))
