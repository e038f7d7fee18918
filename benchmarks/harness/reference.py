"""A fixed pure-Python reference program that tracks host speed.

The benchmark runs on shared hosts, where the speed a process gets
changes by up to 1.8x from one second to the next as neighbours come
and go, and every timing changes with it.  So a run also times this
program, which never changes, after every visit and around every warm
replay it measures, and in every set-up interpreter.  A timing is
reported scaled by the host's slowdown while it was taken: the mean
time of the reference samples taken alongside it over
:data:`REFERENCE_S`.  A host
running Python slower right now then reads the same as a quiet one,
while a change to ``repro`` moves the metric in full, because it does
not touch this program.

The program does what the simulator does most: it pushes and pops
timestamped events on a heap, calls small methods on slotted objects,
and updates dicts and floats.  One sample takes about 5 ms, short
enough to take after every visit.
"""

from __future__ import annotations

import heapq
import time

#: Seconds one sample takes on a quiet host (2.1 GHz Xeon vCPU,
#: CPython 3.11): scaled timings read as if taken on that host.
REFERENCE_S = 0.00525
#: Events one sample pushes through its heap.
SAMPLE_EVENTS = 2_000


class _Event:
    __slots__ = ("time", "seq", "callback", "arg")

    def __init__(self, time_ms: float, seq: int, callback, arg: float) -> None:
        self.time = time_ms
        self.seq = seq
        self.callback = callback
        self.arg = arg

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class _Flow:
    __slots__ = ("sent", "acked", "bytes")

    def __init__(self) -> None:
        self.sent = 0
        self.acked = 0
        self.bytes = 0.0

    def on_event(self, size: float) -> None:
        self.acked += 1
        self.bytes += size * 0.5


def _program(events: int) -> float:
    heap: list[_Event] = []
    flows = {f"flow-{i}": _Flow() for i in range(32)}
    names = list(flows)
    for seq in range(events):
        flow = flows[names[seq % 32]]
        flow.sent += 1
        heapq.heappush(heap, _Event((seq * 7919) % 1000 / 10.0, seq, flow.on_event, float(seq)))
        if len(heap) > 64:
            event = heapq.heappop(heap)
            event.callback(event.arg)
    while heap:
        event = heapq.heappop(heap)
        event.callback(event.arg)
    return sum(flow.bytes for flow in flows.values())


def reference_seconds() -> tuple[float, float]:
    """``(cpu, wall)`` seconds of one sample of the reference program."""
    cpu, wall = time.process_time(), time.perf_counter()
    _program(SAMPLE_EVENTS)
    return time.process_time() - cpu, time.perf_counter() - wall


def slowdown(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """``(cpu, wall)`` slowdown of the host over ``samples``.

    Each is the mean sample time over :data:`REFERENCE_S`; 1.0 when
    there are no samples.
    """
    if not samples:
        return 1.0, 1.0
    n = len(samples) * REFERENCE_S
    return sum(c for c, _ in samples) / n, sum(w for _, w in samples) / n
