"""Discrete-event scheduler: the clock of the asynchronous system model.

The paper's system model (Sec. 2.1) is an asynchronous message-passing
composition of I/O automata where the only sources of asynchrony are
processing and communication delays.  The scheduler realises that model: it
maintains a simulated clock and an event heap; network deliveries, timers
(e.g. periodic Garbage_Collection), and client invocations are all events.

Determinism: events at equal times fire in schedule order (a monotone
sequence number breaks ties), so a fixed seed yields a reproducible
execution.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = ["Scheduler", "EventHandle"]


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    fn: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """Handle returned by :meth:`Scheduler.schedule`; allows cancellation."""

    __slots__ = ("_event",)

    def __init__(self, event: _Event):
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


class Scheduler:
    """Event heap with a simulated clock (time unit: milliseconds)."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[_Event] = []
        self._seq = itertools.count()
        self.events_processed = 0

    def schedule(self, delay: float, fn: Callable[[], None]) -> EventHandle:
        """Run ``fn`` after ``delay`` simulated time units."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.at(self.now + delay, fn)

    def at(self, time: float, fn: Callable[[], None]) -> EventHandle:
        """Run ``fn`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError("cannot schedule in the past")
        ev = _Event(time, next(self._seq), fn)
        heapq.heappush(self._heap, ev)
        return EventHandle(ev)

    def step(self) -> bool:
        """Fire the next event; returns False when the heap is empty."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self.now = ev.time
            self.events_processed += 1
            ev.fn()
            return True
        return False

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> None:
        """Process events until quiescence, a deadline, or a predicate.

        ``until`` is an absolute simulated-time bound (events scheduled at or
        before it still fire); ``max_events`` bounds work; ``stop_when`` is
        checked after every event.
        """
        count = 0
        while self._heap:
            if max_events is not None and count >= max_events:
                return
            nxt = self._heap[0]
            if nxt.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and nxt.time > until:
                self.now = until
                return
            if not self.step():
                return
            count += 1
            if stop_when is not None and stop_when():
                return
        if until is not None and until > self.now:
            self.now = until
