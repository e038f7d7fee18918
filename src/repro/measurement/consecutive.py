"""Consecutive-visit measurement (paper Section VI-D).

Pages are visited in a fixed order.  Between pages, connections are
terminated and the HTTP cache is cleared — but the browser's TLS
session-ticket store survives, so a connection to a CDN hostname
already seen on an *earlier page* can resume (H3: 0-RTT; H2: TCP round
trip + TLS early data).  This is the mechanism behind the paper's
Fig. 8 and the Table III case study.

``execute(ConsecutivePlan(...))`` replays each walk from a store or
simulates it with :func:`run_walk`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.browser.browser import H2_ONLY, H3_ENABLED, PageVisit
from repro.measurement.campaign import PlanConfig
from repro.measurement.farm import ProbeNetProfile
from repro.measurement.probe import Probe, collector_paused
from repro.web.page import Webpage

#: Serialization format of a stored consecutive walk.
WALK_FORMAT = "repro-h3cdn-walk/1"


@dataclass
class ConsecutiveRun:
    """Per-page visits of one ordered walk under one protocol mode."""

    mode: str
    visits: list[PageVisit]
    #: ``"fresh"`` or ``"replay"`` (served from a result store).
    source: str = "fresh"

    def resumed_connections(self) -> list[int]:
        """Per page: entries served on ticket-resumed connections."""
        return [v.har.resumed_connection_count() for v in self.visits]

    def to_dict(self) -> dict:
        """Store payload (``source`` is provenance, never serialized)."""
        return {
            "format": WALK_FORMAT,
            "mode": self.mode,
            "visits": [visit.to_dict() for visit in self.visits],
        }

    @classmethod
    def from_dict(cls, document: dict) -> "ConsecutiveRun":
        if document.get("format") != WALK_FORMAT:
            raise ValueError(
                f"unrecognized walk format: {document.get('format')!r}"
            )
        return cls(
            mode=document["mode"],
            visits=[PageVisit.from_dict(doc) for doc in document["visits"]],
        )


@dataclass(frozen=True)
class ConsecutivePlan(PlanConfig):
    """One ordered walk per mode; tickets persist across pages.

    A walk reads only ``seed``, ``use_session_tickets`` and ``strict``
    of its config: it runs on the default transport, without faults,
    proxy, cache hierarchy or compression.  With a store, ``run_name``
    names a run listing the walks' keys in mode order.
    """

    universe: object
    pages: tuple[Webpage, ...] = ()
    modes: tuple[str, ...] = (H2_ONLY, H3_ENABLED)
    net_profile: ProbeNetProfile | None = None
    store: object | None = None
    run_name: str | None = None


def _walk_key(plan: ConsecutivePlan, mode: str) -> str:
    """Content-addressed key for one whole walk under one mode.

    Session tickets carry state from page to page, so the ordered walk
    is the unit.  The key holds what a walk reads (seed, tickets,
    strict, ``net_profile``) and keeps ``transport`` (``None``) and
    ``warm_edges_first`` (``True``) entries so stored walk keys stay
    valid: a walk always runs on the default transport and warms the
    edges first.
    """
    from repro.store.keys import consecutive_key, page_part

    config = plan.config
    config_material = {
        "net_profile": (
            dataclasses.asdict(plan.net_profile)
            if plan.net_profile is not None
            else None
        ),
        "seed": config.seed,
        "transport": None,
        "use_session_tickets": config.use_session_tickets,
        "warm_edges_first": True,
        "strict": config.strict,
    }
    return consecutive_key(
        mode,
        [page_part(page, plan.universe.hosts) for page in plan.pages],
        config_material,
    )


def run_walk(plan: ConsecutivePlan, mode: str) -> ConsecutiveRun:
    """Simulate ``plan.pages`` in order under ``mode``; tickets persist.

    A fresh probe (fresh clock, caches and ticket store) is built per
    walk so that H2 and H3 walks are independent, mirroring the paper's
    separate browser instances.
    """
    config = plan.config
    check = None
    if config.strict:
        from repro.check import CheckContext

        check = CheckContext()
    with collector_paused():
        probe = Probe(
            name=f"consecutive-{mode}",
            universe=plan.universe,
            net_profile=plan.net_profile,
            seed=config.seed,
            use_session_tickets=config.use_session_tickets,
            check=check,
        )
        probe.warm_edges(plan.pages)
        probe.clear_session_state()
        return ConsecutiveRun(
            mode=mode, visits=[probe.visit_once(page, mode) for page in plan.pages]
        )
