"""Counting resources and locks for the simulation kernel.

A :class:`Resource` models a contended unit of capacity (a NAND channel,
a die, a host queue slot).  Processes acquire it by yielding the event
returned from :meth:`Resource.acquire` and must call
:meth:`Resource.release` when done::

    yield channel.acquire()
    try:
        yield transfer_time
    finally:
        channel.release()

Resources track *who* holds them (the process whose generator performed
the acquire, ``None`` for code running outside the loop) and who is
parked waiting — this is what the kernel's waits-for deadlock report
and the kill sanitizer read.  A deliberate
cross-process transfer (the buffered-program die, freed later by a
timer callback) calls :meth:`hand_off` so the bookkeeping follows the
protocol instead of blaming the original acquirer.

Plain kernel callbacks (no process behind them) wait with :meth:`park`
instead of an event: the grant schedules the callback as one ready
item, in the slot a parked process's resume would take, and the unit
is held anonymously, as after :meth:`hand_off`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Tuple

from repro.sim.kernel import Event, Kernel, SimError


class Resource:
    """FIFO counting semaphore living in virtual time."""

    def __init__(self, kernel: Kernel, capacity: int = 1,
                 name: str = "") -> None:
        if capacity < 1:
            raise SimError(f"capacity must be >= 1, got {capacity}")
        self.kernel = kernel
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        # Current holders: the process (or None for the main thread /
        # an anonymous hand-off) per held unit of capacity.
        self._holders: List[Any] = []
        # Parked acquirers in FIFO order: (event, process-at-call-time),
        # or (callback, None) for a callback waiter (see park()).
        self._waiting: Deque[Tuple[Any, Any]] = deque()
        kernel._resources.append(self)

    def describe(self) -> str:
        label = f" {self.name!r}" if self.name else " (unnamed)"
        return f"{type(self).__name__}{label}"

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_depth(self) -> int:
        """Number of processes currently parked waiting for capacity."""
        return len(self._waiting)

    def holder_names(self) -> List[str]:
        return [h.name if h is not None else "<main>" for h in self._holders]

    def acquire(self) -> Event:
        """Return an event that triggers once a unit of capacity is held.

        The capacity is considered held from the moment the returned
        event triggers until :meth:`release` is called.
        """
        actor = self.kernel.current
        ev = self.kernel.event()
        ev._resource = self
        if self._in_use < self.capacity:
            self._in_use += 1
            self._holders.append(actor)
            ev.trigger()
        else:
            self._check_self_deadlock(actor)
            self._waiting.append((ev, actor))
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns True if capacity was taken."""
        if self._in_use < self.capacity:
            self._in_use += 1
            self._holders.append(self.kernel.current)
            return True
        return False

    def park(self, callback: Callable[[], None]) -> None:
        """Queue a plain callback behind the current holders.

        For kernel callbacks, which have no process to resume: call it
        after :meth:`try_acquire` fails.  When the unit is granted,
        ``callback`` runs as one ready item, in the FIFO slot a parked
        process's resume would have taken, holding the unit anonymously
        (holder ``None``).  ``callback.name`` labels it in the kernel's
        waits-for graph.
        """
        self._waiting.append((callback, None))

    def release(self) -> None:
        """Give back one unit of capacity, waking the next waiter if any."""
        if self._in_use <= 0:
            actor = self.kernel.current
            who = actor.name if actor is not None else "<main>"
            raise SimError(
                f"{self.describe()}: release() without matching acquire() "
                f"by process {who!r}")
        holders = self._holders
        if len(holders) == 1:
            # Every capacity-1 resource: the only holder is the one
            # _ungrant's search would retire.
            holders.pop()
        else:
            self._ungrant(self.kernel.current)
        if self._waiting:
            # Hand the capacity straight to the next waiter: _in_use
            # stays constant across the hand-off.
            ev, waiter = self._waiting.popleft()
            holders.append(waiter)
            if ev.__class__ is Event:
                ev.trigger()
            else:
                self.kernel._push(0, None, ev, None)
        else:
            self._in_use -= 1

    def hand_off(self) -> None:
        """Transfer the current actor's held unit to anonymous ownership.

        For protocols where the acquirer returns while the capacity
        stays busy and a *different* context (a timer callback, another
        process) releases it later.  Keeps holder bookkeeping — and the
        kill sanitizer — honest about who is on the hook for the
        release.
        """
        actor = self.kernel.current
        if self._in_use <= 0:
            raise SimError(f"{self.describe()}: hand_off() while not held")
        self._ungrant(actor)
        self._holders.append(None)

    # -- bookkeeping internals -------------------------------------------
    def _ungrant(self, actor: Any) -> None:
        # Releases normally come from the holder; a release on behalf
        # of an anonymous hand-off (or a foreign context) retires the
        # anonymous unit first, then an arbitrary one.
        holders = self._holders
        for candidate in (actor, None):
            for i, h in enumerate(holders):
                if h is candidate:
                    del holders[i]
                    return
        if holders:
            del holders[0]

    def _check_self_deadlock(self, actor: Any) -> None:
        """Hook for Lock's nested-acquire guard; no-op for capacity > 1."""


class Lock(Resource):
    """A mutex: a :class:`Resource` with capacity 1.

    A process acquiring a Lock it already holds would park forever
    behind itself (nobody else can release it), so nested acquisition
    raises :class:`SimError` instead of self-deadlocking silently.
    """

    def __init__(self, kernel: Kernel, name: str = "") -> None:
        super().__init__(kernel, capacity=1, name=name)

    @property
    def locked(self) -> bool:
        return self._in_use > 0

    def _check_self_deadlock(self, actor: Any) -> None:
        if actor is not None and any(h is actor for h in self._holders):
            raise SimError(
                f"{self.describe()}: nested acquire by process "
                f"{actor.name!r} which already holds it; this would "
                f"self-deadlock")
