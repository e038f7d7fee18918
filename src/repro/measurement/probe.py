"""A probe: one measurement machine with its own clock and browsers.

Each probe owns an isolated event loop (its simulation is independent
of other probes, exactly as separate CloudLab machines are), a server
farm view of the universe, and one browser instance per protocol mode
(the paper uses separate Chrome user-data directories to keep H2 and
H3 state apart).
"""

from __future__ import annotations

import random

from repro.browser.browser import (
    H2_ONLY,
    H3_ENABLED,
    Browser,
    BrowserConfig,
    PageVisit,
)
from repro.events import EventLoop
from repro.faults import FaultInjector, FaultProfile
from repro.measurement.farm import ProbeNetProfile, ServerFarm
from repro.netsim.proxy import ProxyConfig
from repro.transport.config import TransportConfig
from repro.web.page import Webpage
from repro.web.topsites import WebUniverse


class Probe:
    """One probe machine, bound to a vantage point's network profile."""

    def __init__(
        self,
        name: str,
        universe: WebUniverse,
        net_profile: ProbeNetProfile | None = None,
        seed: int = 0,
        transport_config: TransportConfig | None = None,
        use_session_tickets: bool = True,
        obs=None,
        fault_profile: FaultProfile | None = None,
        check=None,
        proxy: ProxyConfig | None = None,
        cache_hierarchy=None,
        compression=None,
    ) -> None:
        self.name = name
        self.universe = universe
        self.loop = EventLoop()
        #: Optional :class:`repro.obs.ObsContext` shared by both
        #: browsers; each visit drains it into its own PageVisit.
        self.obs = obs
        #: Optional :class:`repro.check.CheckContext` (strict mode),
        #: shared by the loop and both browsers.
        self.check = check
        if check:
            self.loop.set_check(check)
        if obs is not None and obs.profile_loop:
            self.loop.enable_profiling()
        #: Optional fault injector, shared by both browsers so the H2
        #: and H3 lanes experience the same scripted faults.
        self.faults = (
            FaultInjector(fault_profile, self.loop, obs=obs)
            if fault_profile is not None
            else None
        )
        self.rng = random.Random(seed)
        self.farm = ServerFarm(
            self.loop,
            universe.hosts,
            net_profile,
            rng=random.Random(self.rng.getrandbits(64)),
            proxy=proxy,
            hierarchy=cache_hierarchy,
            compression=compression,
        )
        transport_config = transport_config or TransportConfig()
        self.browsers = {
            mode: Browser(
                self.loop,
                self.farm,
                BrowserConfig(
                    protocol_mode=mode,
                    transport_config=transport_config,
                    use_session_tickets=use_session_tickets,
                    compression=compression,
                ),
                rng=random.Random(self.rng.getrandbits(64)),
                obs=obs,
                faults=self.faults,
                check=check,
            )
            for mode in (H2_ONLY, H3_ENABLED)
        }

    def warm_edges(self, pages) -> None:
        """Seed edge caches with popular objects (long-lived content)."""
        self.farm.warm_caches(pages)

    def measure_page(
        self, page: Webpage, mode: str, visits: int = 2
    ) -> PageVisit:
        """Measure one page under ``mode``, paper-style.

        The page is visited ``visits`` times; the first visit warms the
        edge caches and the *last* visit is the measurement.  Between
        visits all connections are torn down (each visit uses a fresh
        pool) and browser state — HTTP cache is not modelled, session
        tickets and Alt-Svc are — is cleared, per Section III-B.
        """
        if visits < 1:
            raise ValueError("visits must be >= 1")
        browser = self.browsers[mode]
        result: PageVisit | None = None
        for _ in range(visits):
            browser.clear_session_state()
            result = browser.visit(page)
        assert result is not None
        return result

    def visit_once(self, page: Webpage, mode: str) -> PageVisit:
        """Single visit *without* clearing session state beforehand
        (the consecutive-visit primitive)."""
        return self.browsers[mode].visit(page)

    def clear_session_state(self) -> None:
        for browser in self.browsers.values():
            browser.clear_session_state()

    def close(self) -> None:
        """Done measuring: cancel what is still scheduled (packets in
        flight, armed deadlines), so the probe's connections are freed
        by reference counting once it is dropped."""
        self.loop.close()

    def average_traffic_kbps(self) -> float:
        """Mean traffic rate this probe has generated so far.

        The paper's ethics section reports 126.7 Kbps per nearby CDN
        server; this is the analogous probe-level figure for the
        simulated campaign (kilobits per second over simulated time).
        """
        if self.loop.now <= 0.0:
            return 0.0
        bits = self.farm.total_bytes_transferred() * 8
        return bits / self.loop.now  # bits per ms == kilobits per second

    def __repr__(self) -> str:
        return f"<Probe {self.name} t={self.loop.now:.0f}ms>"
