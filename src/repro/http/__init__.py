"""HTTP layer: protocol semantics on top of TCP/QUIC transports.

Provides the three protocols the paper's Table II distinguishes
(HTTP/1.1, HTTP/2, HTTP/3), a connection pool with Chrome-like reuse
rules (the mechanism behind the paper's Fig. 7 "reused connections"
analysis), TLS session resumption wiring (Fig. 8), and the Alt-Svc
memory of hosts whose QUIC connection failed.  The pool keeps one
table of lanes: one H2 or H3 connection per ``(coalesce_key,
protocol)`` lane, up to six H1 connections per ``(host, H1)`` lane.

Each pooled connection owns its lifecycle: *queued* for a handshake
slot, *connecting* (under fault injection: the connect deadline),
*established* (the scripted reset and migration events and each
request's deadline), then *failed* (fault recovery retries its fetches
or moves them to TCP) or *closed* with the pool.

Each request is one object, the caller's :class:`Fetch`,
handed to ``ConnectionPool.fetch``; the connection that takes it
issues it and drives its stream.  Its one record is its
:class:`HarEntry`: the connection fills the protocol, phases, bytes,
headers and reuse/resumption/cache flags when it issues the request,
and the pool calls the fetch's ``complete`` with the entry when the
response lands (or the fetch gives up).
"""

from repro.http.alt_svc import AltSvcCache
from repro.http.messages import EntryTiming, HarEntry, HttpProtocol
from repro.http.pool import ConnectionPool, Fetch, PoolStats

__all__ = [
    "AltSvcCache",
    "ConnectionPool",
    "EntryTiming",
    "Fetch",
    "HarEntry",
    "HttpProtocol",
    "PoolStats",
]
