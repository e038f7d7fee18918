"""Alt-Svc (RFC 7838) discovery cache.

Browsers normally learn that an origin speaks H3 from an
``Alt-Svc: h3=":443"`` header on a TCP-borne response, and only race
QUIC afterwards.  The paper's probes force-enable QUIC in Chrome, so
the measurement harness defaults to *direct* H3; this cache implements
the standards-path discovery for completeness and for the protocol-
advisor example.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=1 << 12)
def _alt_svc_header(items: tuple) -> str:
    """The first ``Alt-Svc`` header's value among the header items, or
    "" — memoised, as responses repeat a few header sets many times."""
    for name, value in items:
        if name.lower() == "alt-svc":
            return value
    return ""


class AltSvcCache:
    """Host → advertised-H3 knowledge, with an expiry horizon.

    Besides positive discovery, the cache records *negative* knowledge:
    :meth:`mark_h3_broken` notes that QUIC to a host just failed (UDP
    blackholed, connect timeout), and :meth:`h3_broken` lets the browser
    demote that host to TCP until the entry expires.  This is the
    Alt-Svc-driven H3→H2 fallback path described in RFC 7838 §2.4 —
    clients that fail to reach an alternative fall back to the origin.
    """

    def __init__(
        self,
        default_max_age_ms: float = 86_400_000.0,
        broken_ttl_ms: float = 60_000.0,
    ) -> None:
        self.default_max_age_ms = default_max_age_ms
        self.broken_ttl_ms = broken_ttl_ms
        self._until: dict[str, float] = {}
        self._broken_until: dict[str, float] = {}

    def observe(self, host: str, headers: dict[str, str], now_ms: float) -> None:
        """Record an Alt-Svc advertisement seen on a response.

        Header names are matched case-insensitively (RFC 9110 §5.1) —
        real servers emit anything from ``alt-svc`` to ``Alt-Svc`` to
        ``ALT-SVC``.
        """
        alt_svc = _alt_svc_header(tuple(headers.items()))
        if "h3" in alt_svc:
            self._until[host] = now_ms + self._parse_max_age(alt_svc)

    def advertise(self, host: str, now_ms: float) -> None:
        """Directly mark a host as H3-capable (server-side injection)."""
        self._until[host] = now_ms + self.default_max_age_ms

    def knows_h3(self, host: str, now_ms: float) -> bool:
        """Whether the browser currently believes ``host`` speaks H3."""
        deadline = self._until.get(host)
        if deadline is None:
            return False
        if now_ms >= deadline:
            del self._until[host]
            return False
        return True

    def mark_h3_broken(
        self, host: str, now_ms: float, ttl_ms: float | None = None
    ) -> None:
        """Note that QUIC to ``host`` just failed; demote it for a while."""
        self._broken_until[host] = now_ms + (
            self.broken_ttl_ms if ttl_ms is None else ttl_ms
        )

    def h3_broken(self, host: str, now_ms: float) -> bool:
        """Whether ``host`` is currently demoted to TCP."""
        deadline = self._broken_until.get(host)
        if deadline is None:
            return False
        if now_ms >= deadline:
            del self._broken_until[host]
            return False
        return True

    def clear(self) -> None:
        self._until.clear()
        self._broken_until.clear()

    def _parse_max_age(self, alt_svc: str) -> float:
        for part in alt_svc.replace(";", " ").split():
            if part.startswith("ma="):
                try:
                    return float(part[3:].strip('"')) * 1000.0
                except ValueError:
                    break
        return self.default_max_age_ms
