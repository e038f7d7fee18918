"""Alt-Svc (RFC 7838) broken-alternative memory.

The paper's probes force-enable QUIC in Chrome, so the browser reaches
an H3-capable host over H3 directly instead of waiting for an
``Alt-Svc: h3=":443"`` advertisement.  What it keeps of Alt-Svc is the
fallback half (RFC 7838 §2.4): a client that fails to reach an
alternative service falls back to the origin, and does not retry the
alternative for a while.
"""

from __future__ import annotations

#: How long a host whose QUIC connection failed stays demoted to TCP.
BROKEN_TTL_MS = 60_000.0


class AltSvcCache:
    """Hosts whose QUIC connection just failed, each demoted to TCP
    until :data:`BROKEN_TTL_MS` after the failure.

    The pool marks a host when its QUIC connection dies of anything
    but a reset (UDP blackholed, connect timeout); the browser asks
    :meth:`h3_broken` before it picks H3 for a request.
    """

    def __init__(self) -> None:
        #: host -> when its demotion ends; the browser asks
        #: :meth:`h3_broken` only while this is not empty.
        self.broken_until: dict[str, float] = {}

    def mark_h3_broken(self, host: str, now_ms: float) -> None:
        """Note that QUIC to ``host`` just failed; demote it for a while."""
        self.broken_until[host] = now_ms + BROKEN_TTL_MS

    def h3_broken(self, host: str, now_ms: float) -> bool:
        """Whether ``host`` is currently demoted to TCP."""
        deadline = self.broken_until.get(host)
        if deadline is None:
            return False
        if now_ms >= deadline:
            del self.broken_until[host]
            return False
        return True

    def clear(self) -> None:
        self.broken_until.clear()
