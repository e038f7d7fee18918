"""Consecutive-visit measurement (paper Section VI-D).

Pages are visited in a fixed order.  Between pages, connections are
terminated and the HTTP cache is cleared — but the browser's TLS
session-ticket store survives, so a connection to a CDN hostname
already seen on an *earlier page* can resume (H3: 0-RTT; H2: TCP round
trip + TLS early data).  This is the mechanism behind the paper's
Fig. 8 and the Table III case study.

A :class:`ConsecutivePlan` describes one walk; ``execute(plan)`` from
:mod:`repro.measurement.executor` runs it through :func:`run_walk`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.browser.browser import H2_ONLY, H3_ENABLED, PageVisit
from repro.measurement.farm import ProbeNetProfile
from repro.measurement.probe import Probe
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
class ConsecutivePlan:
    """An ordered consecutive-visit walk (tickets persist across pages)."""

    universe: object
    pages: tuple[Webpage, ...] = ()
    modes: tuple[str, ...] = (H2_ONLY, H3_ENABLED)
    net_profile: ProbeNetProfile | None = None
    seed: int = 0
    use_session_tickets: bool = True
    strict: bool = False
    store: object | None = None
    run_name: str | None = None


def _walk_key(plan: ConsecutivePlan, mode: str) -> str:
    """Content-addressed key for one whole walk under one mode.

    Session tickets carry state from page to page, so individual
    visits don't cache independently — the ordered walk is the unit.
    A walk always runs on the default transport and always warms the
    edges first; the key keeps its ``transport`` (``None``) and
    ``warm_edges_first`` (``True``) entries so stored walk keys stay
    valid.
    """
    from repro.store.keys import consecutive_key, page_part

    config_material = {
        "net_profile": (
            dataclasses.asdict(plan.net_profile)
            if plan.net_profile is not None
            else None
        ),
        "seed": plan.seed,
        "transport": None,
        "use_session_tickets": plan.use_session_tickets,
        "warm_edges_first": True,
        "strict": plan.strict,
    }
    return consecutive_key(
        mode,
        [page_part(page, plan.universe.hosts) for page in plan.pages],
        config_material,
    )


def run_walk(plan: ConsecutivePlan, mode: str) -> ConsecutiveRun:
    """Visit ``plan.pages`` in order under ``mode``; tickets persist.

    A fresh probe (fresh clock, caches and ticket store) is built per
    walk so that H2 and H3 walks are independent, mirroring the paper's
    separate browser instances.  With a store attached, a previously
    completed identical walk is replayed bit-identically instead of
    re-simulated.
    """
    if mode not in (H2_ONLY, H3_ENABLED):
        raise ValueError(f"unknown mode {mode!r}")
    store = plan.store
    pages = plan.pages
    walk_key = None
    if store is not None:
        walk_key = _walk_key(plan, mode)
        document = store.get(walk_key)
        if document is not None:
            run = ConsecutiveRun.from_dict(document)
            run.source = "replay"
            if plan.run_name is not None:
                store.put_batch([], journal=[(plan.run_name, walk_key, "replay")])
            return run
    check = None
    if plan.strict:
        from repro.check import CheckContext

        check = CheckContext()
    probe = Probe(
        name=f"consecutive-{mode}",
        universe=plan.universe,
        net_profile=plan.net_profile,
        seed=plan.seed,
        use_session_tickets=plan.use_session_tickets,
        check=check,
    )
    probe.warm_edges(pages)
    probe.clear_session_state()
    visits = [probe.visit_once(page, mode) for page in pages]
    run = ConsecutiveRun(mode=mode, visits=visits)
    if walk_key is not None:
        store.put_batch(
            [{
                "key": walk_key,
                "document": run.to_dict(),
                "kind": "consecutive",
                "config_hash": "",
                "page_url": pages[0].url if pages else None,
                "probe": f"consecutive-{mode}",
            }],
            journal=(
                [] if plan.run_name is None
                else [(plan.run_name, walk_key, "fresh")]
            ),
        )
    return run
