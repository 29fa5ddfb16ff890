"""Event records for the discrete-event simulator.

An :class:`Event` is an internal record the simulator keys on its heap.
Callers interact with an :class:`EventHandle`, which supports cancellation
and status queries but hides heap bookkeeping.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A scheduled callback: the record behind an :class:`EventHandle`.

    The simulator's heap orders ``(time, seq, event)`` tuples, so ordering
    never reaches this class; ``time`` and ``seq`` are kept for handles and
    debugging. ``seq`` is a monotonically increasing tie-breaker so that
    events scheduled for the same instant fire in FIFO order — a property
    several protocols in this library (TCP-ordered cache update delivery,
    in-order trigger replication) rely on.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[..., None],
                 args: Tuple[Any, ...] = ()):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False


class EventHandle:
    """Caller-facing handle for a scheduled event."""

    __slots__ = ("_event",)

    def __init__(self, event: Event):
        self._event = event

    @property
    def time(self) -> float:
        """Simulated time at which the event fires."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling an already-cancelled or already-fired event is a no-op;
        cancellation is lazy (the heap entry is skipped when popped).
        """
        self._event.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, {state})"
