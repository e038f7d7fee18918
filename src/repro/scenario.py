"""Scenarios: a campaign config under a name.

A :class:`Scenario` pairs a name with a
:class:`~repro.measurement.campaign.CampaignConfig` and renders it, with
per-run overrides, in a single call::

    config = preset("udp-blocked").campaign_config(trace=True)

Presets cover the paper baseline and the common fault studies; the
builder methods (:meth:`with_faults`, :meth:`with_loss`, …) derive
variants without mutating anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.cdn.compression import CompressionConfig
from repro.cdn.hierarchy import HierarchyConfig, hierarchy_preset
from repro.faults import FAULT_PROFILES, FaultProfile
from repro.measurement.campaign import CampaignConfig
from repro.netsim.proxy import ProxyConfig
from repro.transport.config import TransportConfig


@dataclass(frozen=True)
class Scenario:
    """A named, immutable campaign config."""

    name: str
    #: The run conditions; :meth:`campaign_config` renders them.
    config: CampaignConfig = field(default_factory=CampaignConfig)

    def _derive(self, suffix: str | None = None, **knobs: Any) -> "Scenario":
        """This scenario with ``knobs`` replaced, its name gaining ``suffix``."""
        name = self.name if suffix is None else f"{self.name}+{suffix}"
        return Scenario(name, replace(self.config, **knobs))

    # -- builders ------------------------------------------------------

    def with_faults(self, faults: FaultProfile | str | None) -> "Scenario":
        """This scenario with a different fault profile.

        Accepts a profile object, a :data:`FAULT_PROFILES` preset name,
        or ``None`` to disarm faults.  The scenario name gains the
        profile name as a suffix.
        """
        if isinstance(faults, str):
            faults = FAULT_PROFILES[faults]
        suffix = faults.name if faults is not None else "no-faults"
        return self._derive(suffix, fault_profile=faults)

    def with_loss(self, loss_rate: float) -> "Scenario":
        """This scenario with a different netem loss rate."""
        return self._derive(f"loss{loss_rate:g}", loss_rate=loss_rate)

    def with_proxy(self, proxy: ProxyConfig | str | None) -> "Scenario":
        """This scenario with a proxy hop on every path.

        Accepts a :class:`ProxyConfig`, a proxy *model* name
        (``"connect-tunnel"`` / ``"masque-relay"``) for the default
        configuration of that model, or ``None`` to go direct.  The
        scenario name gains the model as a suffix.
        """
        if isinstance(proxy, str):
            proxy = ProxyConfig(model=proxy)
        suffix = proxy.model if proxy is not None else "direct"
        return self._derive(suffix, proxy=proxy)

    def with_cache_tiers(
        self, hierarchy: HierarchyConfig | str | None
    ) -> "Scenario":
        """This scenario with a multi-tier edge cache chain.

        Accepts a :class:`HierarchyConfig`, a :data:`~repro.cdn.
        hierarchy.HIERARCHY_PRESETS` name (``"edge-regional"`` /
        ``"edge-metro-regional"``), or ``None`` for the flat cache.
        """
        if isinstance(hierarchy, str):
            hierarchy = hierarchy_preset(hierarchy)
        suffix = (
            "+".join(tier.name for tier in hierarchy.tiers)
            if hierarchy is not None
            else "flat-cache"
        )
        return self._derive(suffix, cache_hierarchy=hierarchy)

    def with_compression(
        self, compression: CompressionConfig | float | None
    ) -> "Scenario":
        """This scenario with compression negotiation on edges.

        Accepts a :class:`CompressionConfig`, a bare float (treated as
        ``identity_request_ratio`` — the fraction of clients demanding
        identity encoding, the Lin et al. amplification knob), or
        ``None`` to turn encoding off.
        """
        if isinstance(compression, (int, float)) and not isinstance(
            compression, bool
        ):
            compression = CompressionConfig(
                identity_request_ratio=float(compression)
            )
        suffix = (
            f"compress{compression.identity_request_ratio:g}"
            if compression is not None
            else "no-compress"
        )
        return self._derive(suffix, compression=compression)

    def with_transport(self, transport: TransportConfig) -> "Scenario":
        """This scenario with a different transport configuration."""
        return self._derive(transport_config=transport)

    def with_strict(self, strict: bool = True) -> "Scenario":
        """This scenario with invariant checking on (or off)."""
        return self._derive(strict=strict)

    # -- rendering -----------------------------------------------------

    def config_hash(self, **overrides: Any) -> str:
        """Content hash of this scenario's rendered campaign config.

        The scenario *name* is presentation metadata and does not enter
        the hash — two differently-named scenarios that render the same
        :class:`CampaignConfig` hash identically, exactly like the
        result store's visit keys.
        """
        from repro.store.keys import campaign_config_hash

        return campaign_config_hash(self.campaign_config(**overrides))

    def campaign_config(self, **overrides: Any) -> CampaignConfig:
        """This scenario's config with ``overrides`` (e.g. ``seed=3``) applied."""
        return replace(self.config, **overrides)


def _build_scenarios() -> dict[str, Scenario]:
    return {
        "paper-default": Scenario("paper-default"),
        # Fig. 9's heavy end: 1% netem loss, faults dormant.
        "lossy": Scenario("lossy", CampaignConfig(loss_rate=0.01)),
        # Every host's UDP blackholed: the H3-fallback stress scenario.
        "udp-blocked": Scenario(
            "udp-blocked",
            CampaignConfig(fault_profile=FAULT_PROFILES["udp-blocked"]),
        ),
        # Tiered CDN with compression negotiation: the hierarchy/
        # economics scenarios build on this.
        "cdn-hierarchy": Scenario(
            "cdn-hierarchy",
            CampaignConfig(
                cache_hierarchy=hierarchy_preset("edge-regional"),
                compression=CompressionConfig(),
            ),
        ),
    }


#: Named presets, ready to render.
SCENARIOS: dict[str, Scenario] = _build_scenarios()


def preset(name: str) -> Scenario:
    """Look up a named scenario preset."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        ) from None
