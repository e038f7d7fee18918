"""The event loop at the heart of the simulator.

Design notes
------------

* Time is a ``float`` in milliseconds.  All higher layers (links,
  transports, the browser) express delays in the same unit so there is
  never a conversion step.
* Events scheduled for the same instant fire in the order they were
  scheduled (FIFO).  This is achieved with a monotonically increasing
  sequence number used as a tie-breaker.
* Events can be cancelled, which retransmission timers rely on.  A
  cancelled event drops its callback and arguments at once.  The two
  schedulers remove it differently: the C heap takes it out at once, by
  the heap index the event keeps (O(log n)), so it holds live events
  only; the Python heap marks it dead (O(1)) and discards it when it
  surfaces at the head ("lazy deletion"), so the dead entry pins
  nothing while it waits.  A cancelled event never fires on either, so
  both pop the same (time, seq) sequence.

Two scheduler implementations share one API and one (time, seq) total
order, so results are bit-identical on either:

:class:`CEventLoop` (the default ``EventLoop`` when built)
    A binary heap of plain C structs compiled from ``_ckernel.c`` on
    first import; push, pop and dispatch run outside the interpreter.
:class:`HeapEventLoop`
    The pure-Python binary heap: the fallback when the C kernel cannot
    be built (or ``REPRO_NO_CKERNEL=1`` is set) and the differential
    oracle the edge-case suite runs the C kernel against.

``REPRO_EVENT_LOOP`` selects one explicitly: ``c`` (the C kernel,
falling back to the heap when it is unavailable) or ``heap``.  Any
other value raises at import.
"""

from __future__ import annotations

import heapq
import os
from time import perf_counter
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class ScheduledEvent:
    """A single entry in the event queue.

    Instances are ordered by ``(time, seq)`` so that simultaneous events
    preserve scheduling order.  ``callback`` and ``args`` are excluded
    from comparisons.  ``_loop`` doubles as the "still pending" marker:
    it is cleared when the event is popped (executed or discarded) so
    the loop's live-event counter stays exact under double-cancels and
    cancels of already-fired events.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_loop")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        loop: "EventLoop | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._loop = loop

    def __lt__(self, other: "ScheduledEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped.

        The callback and its arguments are let go at once: a dead event
        may sit in the queue long after its owner is done, and nothing
        ever runs or reads it again.
        """
        self.cancelled = True
        self.callback = None
        self.args = ()
        loop = self._loop
        if loop is not None:
            self._loop = None
            loop._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time} seq={self.seq} {state}>"


class Timer:
    """A restartable one-shot timer bound to an :class:`EventLoop`.

    Transports use timers for retransmission timeouts: ``start`` arms the
    timer, ``stop`` disarms it, and re-arming implicitly cancels the
    previous deadline.
    """

    __slots__ = ("_loop", "_callback", "_event")

    def __init__(self, loop: "EventLoop", callback: Callable[[], None]) -> None:
        self._loop = loop
        self._callback = callback
        self._event: ScheduledEvent | None = None

    @property
    def armed(self) -> bool:
        """Whether the timer currently has a pending deadline."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay_ms: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay_ms`` from now."""
        # ``stop()`` inlined: transports re-arm on every send burst.
        event = self._event
        if event is not None:
            event.cancel()
        self._event = self._loop.call_later(delay_ms, self._fire)

    def stop(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class HeapEventLoop:
    """The pure-Python binary-heap scheduler (fallback and oracle).

    Example
    -------
    >>> loop = HeapEventLoop()
    >>> fired = []
    >>> _ = loop.call_later(5.0, fired.append, "a")
    >>> _ = loop.call_later(2.0, fired.append, "b")
    >>> loop.run()
    >>> fired
    ['b', 'a']
    >>> loop.now
    5.0
    """

    def __init__(self) -> None:
        self._queue: list[ScheduledEvent] = []
        self._seq = 0
        self._now = 0.0
        self._processed = 0
        # Live (scheduled, not cancelled) events; maintained on push,
        # cancel and pop so __len__ is O(1).
        self._live = 0
        # Callback profiling: None (off, the default — the dispatch
        # loop stays branch-only) or a dict mapping callback qualname
        # to [count, total_seconds].
        self._profile: dict[str, list] | None = None
        # Invariant checking (strict mode): None keeps the dispatch
        # loop branch-only; set_check() installs a CheckContext and
        # every pop verifies time monotonicity before advancing.
        self._check = None

    def set_check(self, check) -> None:
        """Install (or clear) a :class:`repro.check.CheckContext`.

        ``call_later``/``call_at`` already refuse to schedule in the
        past; the per-pop check additionally catches queue corruption or
        events pushed behind the clock's back.
        """
        self._check = check if check else None

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (diagnostics/benchmarks)."""
        return self._processed

    @property
    def scheduled_events(self) -> int:
        """Number of events scheduled so far, cancelled ones included."""
        return self._seq

    def __len__(self) -> int:
        return self._live

    # -- callback profiling --------------------------------------------

    def enable_profiling(self) -> None:
        """Start attributing wall-clock time and counts per callback.

        Profiling reads only the host clock — it never touches simulated
        time or scheduling order, so enabling it cannot change results.
        """
        if self._profile is None:
            self._profile = {}

    def disable_profiling(self) -> None:
        """Stop profiling and drop collected data."""
        self._profile = None

    @property
    def profiling_enabled(self) -> bool:
        return self._profile is not None

    def profile_stats(self) -> dict[str, dict]:
        """Per-callback-name ``{"count", "total_ms"}``, sorted by time.

        Callback names are ``__qualname__`` (bound methods keep their
        class, lambdas show their defining scope).
        """
        if self._profile is None:
            return {}
        return {
            name: {"count": entry[0], "total_ms": entry[1] * 1000.0}
            for name, entry in sorted(
                self._profile.items(), key=lambda item: -item[1][1]
            )
        }

    def _profiled_call(self, event: ScheduledEvent) -> None:
        profile = self._profile
        assert profile is not None
        callback = event.callback
        start = perf_counter()
        callback(*event.args)
        elapsed = perf_counter() - start
        key = getattr(callback, "__qualname__", None) or repr(callback)
        entry = profile.get(key)
        if entry is None:
            profile[key] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed

    def _execute(self, event: ScheduledEvent) -> None:
        """Advance the clock to ``event`` and run its callback."""
        if self._check is not None:
            self._check.require(
                event.time >= self._now,
                "loop:time_monotonic",
                "popped an event scheduled in the past",
                time_ms=self._now,
                event_time_ms=event.time,
            )
        self._now = event.time
        self._processed += 1
        if self._profile is None:
            event.callback(*event.args)
        else:
            self._profiled_call(event)

    # -- scheduling ----------------------------------------------------

    def call_later(
        self, delay_ms: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay_ms`` from now."""
        if delay_ms < 0:
            raise SimulationError(f"cannot schedule {delay_ms}ms in the past")
        self._seq += 1
        event = ScheduledEvent(self._now + delay_ms, self._seq, callback, args, self)
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def call_at(
        self, time_ms: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute time ``time_ms``."""
        if time_ms < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ms}ms, already at {self._now}ms"
            )
        self._seq += 1
        event = ScheduledEvent(time_ms, self._seq, callback, args, self)
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    # -- dequeueing ----------------------------------------------------

    def _peek(self) -> ScheduledEvent | None:
        """The next live event without executing it (purges dead ones)."""
        queue = self._queue
        while queue:
            head = queue[0]
            if head.cancelled:
                heapq.heappop(queue)
                continue
            return head
        return None

    def _take(self, event: ScheduledEvent) -> None:
        """Remove the event returned by :meth:`_peek` from the queue."""
        heapq.heappop(self._queue)
        event._loop = None
        self._live -= 1

    def close(self) -> None:
        """Cancel every pending event and empty the queue.

        A finished simulation's pending events (packets still in flight,
        armed timers) hold callbacks bound to objects that hold this
        loop; cancelling them lets the whole simulation be freed by
        reference counting instead of the cyclic garbage collector.
        """
        queue, self._queue = self._queue, []
        for event in queue:
            event.cancel()

    def next_event_time(self) -> float | None:
        """Time of the earliest pending live event, or ``None`` if empty.

        The transport fast path uses this to decide how far it may walk
        analytically before yielding back to the scheduler: it never
        advances its virtual clock past a pending real event.
        """
        event = self._peek()
        return None if event is None else event.time

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was
        empty (dead entries are skipped silently).
        """
        event = self._peek()
        if event is None:
            return False
        self._take(event)
        self._execute(event)
        return True

    def run(self, until_ms: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains.

        Parameters
        ----------
        until_ms:
            Stop once simulated time would pass this point.  Events at
            exactly ``until_ms`` still run.
        max_events:
            Safety valve against runaway simulations; raises
            :class:`SimulationError` as soon as a pending event would
            exceed the bound, so exactly ``max_events`` events execute
            before the error.
        """
        executed = 0
        while True:
            event = self._peek()
            if event is None:
                return
            if until_ms is not None and event.time > until_ms:
                self._now = until_ms
                return
            if max_events is not None and executed >= max_events:
                raise SimulationError(f"exceeded {max_events} events; likely livelock")
            self._take(event)
            executed += 1
            self._execute(event)

    def run_until(self, predicate: Callable[[], bool], max_events: int = 50_000_000) -> None:
        """Run until ``predicate()`` becomes true or the queue drains.

        Raises :class:`SimulationError` if the predicate is still false
        after exactly ``max_events`` events have executed.
        """
        executed = 0
        step = self.step
        while not predicate():
            if executed >= max_events:
                raise SimulationError(f"exceeded {max_events} events; likely livelock")
            if not step():
                return
            executed += 1


# -- optional C-accelerated scheduler ----------------------------------

from repro.events import _accel

_ckernel = _accel.load()

if _ckernel is not None:
    _ckernel._install(SimulationError)

    class CEventLoop(_ckernel.LoopCore):
        """C-accelerated scheduler (compiled from ``_ckernel.c``).

        Same API and same (time, seq) total order as the Python
        scheduler — results are bit-identical — but push, pop and
        dispatch run outside the interpreter.  Only available when the
        host toolchain could build the extension; ``EventLoop`` falls
        back to :class:`HeapEventLoop` otherwise.

        Example
        -------
        >>> loop = CEventLoop()
        >>> fired = []
        >>> _ = loop.call_later(5.0, fired.append, "a")
        >>> _ = loop.call_later(2.0, fired.append, "b")
        >>> loop.run()
        >>> fired
        ['b', 'a']
        >>> loop.now
        5.0
        """

        __slots__ = ()

        def profile_stats(self) -> dict[str, dict]:
            """Per-callback-name ``{"count", "total_ms"}``, sorted by time."""
            raw = self._profile_raw()
            if raw is None:
                return {}
            return {
                name: {"count": entry[0], "total_ms": entry[1] * 1000.0}
                for name, entry in sorted(
                    raw.items(), key=lambda item: -item[1][1]
                )
            }

else:  # pragma: no cover - exercised on hosts without a C toolchain
    CEventLoop = None  # type: ignore[assignment,misc]


def _select_event_loop():
    """Honour ``REPRO_EVENT_LOOP`` (``c`` | ``heap``).

    The default (and ``c``) is the C kernel when the toolchain could
    build it, the pure-Python heap otherwise.  Results are bit-identical
    across both; the knob exists for benches, bisection and differential
    tests.  Any other value raises instead of silently picking one.
    """
    choice = os.environ.get("REPRO_EVENT_LOOP", "")
    if choice.lower() not in ("", "c", "heap"):
        raise ValueError(
            f"REPRO_EVENT_LOOP={choice!r} is not a scheduler; "
            "accepted values are 'c' and 'heap'"
        )
    if choice.lower() == "heap" or CEventLoop is None:
        return HeapEventLoop
    return CEventLoop


#: The default scheduler; see :func:`_select_event_loop`.
EventLoop = _select_event_loop()
