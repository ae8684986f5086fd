"""Event loop, processes, and events for the simulation kernel.

The kernel is deliberately small.  A *process* is a generator; the value
it yields decides how it is resumed:

==================  =========================================================
yielded value       behaviour
==================  =========================================================
``int`` / ``float`` sleep that many virtual nanoseconds, resume with ``None``
:class:`Event`      park until the event triggers, resume with its value
:class:`Process`    join: park until the process finishes, resume with its
                    return value (or re-raise its exception)
==================  =========================================================

Resources (see :mod:`repro.sim.resources`) hand out events from their
``acquire()`` methods, so they compose with the same protocol.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro import sanitize


class SimError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *untriggered*; :meth:`trigger` (or :meth:`fail`)
    fires it exactly once, resuming every waiting process with the
    attached value (or exception).
    """

    __slots__ = ("kernel", "_value", "_error", "_triggered", "_waiters",
                 "_resource")

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._triggered = False
        self._waiters: List["Process"] = []
        # Back-reference set by Resource.acquire(): lets the deadlock
        # reporter say *which lock* a parked process is waiting on.
        self._resource: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    def trigger(self, value: Any = None) -> None:
        """Fire the event, resuming all waiters with ``value``."""
        if self._triggered:
            raise SimError("event already triggered")
        self._triggered = True
        self._value = value
        for proc in self._waiters:
            self.kernel._schedule_resume(proc, value, None)
        self._waiters.clear()

    def fail(self, error: BaseException) -> None:
        """Fire the event, raising ``error`` inside all waiters."""
        if self._triggered:
            raise SimError("event already triggered")
        self._triggered = True
        self._error = error
        for proc in self._waiters:
            self.kernel._schedule_resume(proc, None, error)
        self._waiters.clear()

    def _add_waiter(self, proc: "Process") -> None:
        if self._triggered:
            self.kernel._schedule_resume(proc, self._value, self._error)
        else:
            self._waiters.append(proc)


class Process:
    """A running generator coroutine inside the kernel."""

    __slots__ = ("kernel", "name", "_gen", "_done", "_result", "_error",
                 "_error_observed", "_joiners", "_waiting_on")

    def __init__(self, kernel: "Kernel", gen: Generator, name: str = "") -> None:
        self.kernel = kernel
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._error_observed = False
        self._joiners: List["Process"] = []
        # What this process last parked on (an Event or a Process).
        # Only consulted by the deadlock reporter, which cross-checks
        # against the event's live waiter list, so it is set when
        # parking but never needs clearing on the hot resume path.
        self._waiting_on: Any = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def result(self) -> Any:
        """Return value of the finished process (raises if it failed)."""
        if not self._done:
            raise SimError(f"process {self.name!r} still running")
        if self._error is not None:
            self._error_observed = True
            raise self._error
        return self._result

    @property
    def error(self) -> Optional[BaseException]:
        if self._error is not None:
            self._error_observed = True
        return self._error

    def kill(self) -> None:
        """Terminate the process immediately (crash semantics).

        Closes the generator — running its ``finally`` blocks, so held
        locks are released — and marks the process done with a None
        result.  Safe on an already-finished process.  Any resume
        already scheduled for the process is ignored when dispatched.
        """
        if self._done:
            return
        self._gen.close()
        if sanitize.enabled:
            held = [res for res in self.kernel._resources
                    if any(h is self for h in res._holders)]
            sanitize.check(
                not held,
                f"process {self.name!r} killed with resources still held: "
                + ", ".join(res.describe() for res in held)
                + " (a finally-block release is missing, or the holder "
                "should hand_off() before parking)")
        self._finish(None, None)

    def _add_joiner(self, proc: "Process") -> None:
        if self._done:
            self._error_observed = self._error_observed or self._error is not None
            self.kernel._schedule_resume(proc, self._result, self._error)
        else:
            self._joiners.append(proc)

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        self._done = True
        self._result = result
        self._error = error
        self.kernel._procs.discard(self)
        if self._joiners:
            self._error_observed = self._error_observed or error is not None
            for joiner in self._joiners:
                self.kernel._schedule_resume(joiner, result, error)
            self._joiners.clear()
        if error is not None and not self._error_observed:
            self.kernel._note_unobserved_failure(self)


class Kernel:
    """The discrete-event loop: a clock plus a priority queue of work.

    Scheduling is allocation-light: work items are tuple-coded
    ``(proc, value, error)`` entries (``proc is None`` marks a plain
    callable stored in ``value``) rather than one closure per event,
    and zero-delay items — the dominant case: every event trigger,
    process join, spawn, and zero-cost resume — bypass the time heap
    entirely via a FIFO ready deque.  Heap entries carry a monotonic
    sequence number, and the dispatch loop compares it against the
    ready deque's head, so same-timestamp ordering is exactly the
    global FIFO the closure-based scheduler had.
    """

    def __init__(self, schedule_rng: Any = None) -> None:
        self._now = 0
        self._seq = 0
        # Timed work: (when, seq, proc, value, error).
        self._queue: List[Tuple] = []
        # Zero-delay work at the current timestamp: (seq, proc, value,
        # error).  Strictly drained before virtual time advances.
        self._ready: Deque[Tuple] = deque()
        self._failed: List[Process] = []
        # The process whose generator is currently being advanced (None
        # while running plain callables or code outside the loop).
        # Resources read this to attribute acquires to their holder.
        self.current: Optional[Process] = None
        # Live (unfinished) processes, for the deadlock reporter.
        self._procs: set = set()
        # Every Resource constructed against this kernel (see
        # repro.sim.resources) — scanned by the deadlock reporter and
        # the kill sanitizer; both are cold paths.
        self._resources: List[Any] = []
        # Schedule perturbation (the scenario campaign's "shuffled"
        # axis, TortureConfig.schedule_seed): a seeded
        # random.Random-like object.  When set, the ready-deque pick is
        # randomized among the zero-delay items at the current
        # timestamp — every such interleaving is a legal cooperative
        # schedule, so correctness must hold under all of them.  The
        # kernel itself stays deterministic: it never constructs an
        # RNG, it only consumes one handed in by the caller.
        self._sched_rng = schedule_rng

    @property
    def now(self) -> int:
        """Current virtual time, in nanoseconds."""
        return self._now

    @property
    def events(self) -> int:
        """Work items scheduled so far (spawns, resumes, timers).

        Depends only on code, workload and seed, so it fingerprints
        simulated behaviour the way ``now`` does.
        """
        return self._seq

    # -- construction ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start ``gen`` as a new process, scheduled to run immediately."""
        proc = Process(self, gen, name=name)
        self._procs.add(proc)
        self._seq += 1
        self._ready.append((self._seq, proc, None, None))
        return proc

    def timeout(self, delay: int) -> Event:
        """An event that triggers ``delay`` virtual ns from now."""
        if delay < 0:
            raise SimError(f"negative delay {delay}")
        ev = Event(self)
        self._push(int(delay), None, ev.trigger, None)
        return ev

    def call_at(self, when: int, fn: Callable[[], None]) -> None:
        """Run plain callable ``fn`` at absolute virtual time ``when``."""
        if when < self._now:
            raise SimError(f"cannot schedule in the past ({when} < {self._now})")
        self._push(when - self._now, None, fn, None)

    # -- running ---------------------------------------------------------
    def run(self, until: Optional[int] = None) -> None:
        """Drain the event queue (optionally stopping at time ``until``)."""
        ready, queue = self._ready, self._queue
        heappop, popleft = heapq.heappop, ready.popleft
        rng = self._sched_rng
        while ready or queue:
            if ready and (not queue or queue[0][0] > self._now
                          or queue[0][1] > ready[0][0]):
                if until is not None and self._now > until:
                    break
                if rng is None or len(ready) == 1:
                    _seq, proc, value, error = popleft()
                else:
                    # Perturbed schedule: any zero-delay item at this
                    # timestamp may legally run next.
                    idx = rng.randrange(len(ready))
                    _seq, proc, value, error = ready[idx]
                    del ready[idx]
            else:
                when = queue[0][0]
                if until is not None and when > until:
                    break
                when, _seq, proc, value, error = heappop(queue)
                self._now = when
            if proc is None:
                self.current = None
                value()
            else:
                self.current = proc
                self._step(proc, value, error)
            if self._failed:
                self._raise_unobserved()
        self.current = None
        if until is not None and until > self._now:
            self._now = until

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn ``gen`` and run the loop until it finishes; return its result.

        This is the synchronous façade used by callers that do not care
        about concurrency (e.g. tests doing one read at a time).
        """
        proc = self.spawn(gen, name=name)
        # The caller observes this process's outcome directly; a
        # failure must surface as proc.result raising, not as an
        # unobserved-failure kernel error.
        proc._error_observed = True
        ready, queue = self._ready, self._queue
        heappop, popleft = heapq.heappop, ready.popleft
        rng = self._sched_rng
        while not proc._done and (ready or queue):
            if ready and (not queue or queue[0][0] > self._now
                          or queue[0][1] > ready[0][0]):
                if rng is None or len(ready) == 1:
                    _seq, item, value, error = popleft()
                else:
                    idx = rng.randrange(len(ready))
                    _seq, item, value, error = ready[idx]
                    del ready[idx]
            else:
                when, _seq, item, value, error = heappop(queue)
                self._now = when
            if item is None:
                self.current = None
                value()
            else:
                self.current = item
                self._step(item, value, error)
            if self._failed:
                self._raise_unobserved()
        self.current = None
        if not proc._done:
            raise SimError(self._deadlock_report(proc))
        return proc.result

    # -- deadlock reporting ----------------------------------------------
    def blocked_processes(self) -> List[Tuple[Process, Any]]:
        """Live processes genuinely parked, with what they wait on.

        A stale ``_waiting_on`` (the event has since triggered) is
        filtered by cross-checking the target's live waiter list.
        """
        blocked: List[Tuple[Process, Any]] = []
        for proc in self._procs:
            target = proc._waiting_on
            if isinstance(target, Event):
                if not target._triggered \
                        and any(w is proc for w in target._waiters):
                    blocked.append((proc, target))
            elif isinstance(target, Process):
                if not target._done \
                        and any(j is proc for j in target._joiners):
                    blocked.append((proc, target))
        blocked.sort(key=lambda pair: pair[0].name)
        return blocked

    def waits_for_graph(self) -> List[dict]:
        """The waits-for graph as data: who waits on what, who holds it.

        Parked processes come first, then callback waiters parked on a
        resource (see ``Resource.park``), listed under their ``name``.
        """
        graph: List[dict] = []
        for proc, target in self.blocked_processes():
            entry: dict = {"process": proc.name}
            if isinstance(target, Process):
                entry["waits_on"] = f"process {target.name!r}"
                entry["holders"] = []
            else:
                res = target._resource
                if res is None:
                    entry["waits_on"] = "event"
                    entry["holders"] = []
                else:
                    entry["waits_on"] = res.describe()
                    entry["holders"] = res.holder_names()
            graph.append(entry)
        for res in self._resources:
            for waiter, _actor in res._waiting:
                if waiter.__class__ is not Event:
                    graph.append({"process": waiter.name,
                                  "waits_on": res.describe(),
                                  "holders": res.holder_names()})
        return graph

    def _deadlock_report(self, root: Process) -> str:
        lines = [f"process {root.name!r} deadlocked (no runnable work "
                 f"left); waits-for graph:"]
        graph = self.waits_for_graph()
        for entry in graph:
            holders = entry["holders"]
            held = (" held by " + ", ".join(repr(h) for h in holders)
                    if holders else " (not held by anyone)")
            if entry["waits_on"] == "event":
                held = ""
                target = "an untriggered event"
            else:
                target = entry["waits_on"]
            lines.append(f"  {entry['process']!r} waits on {target}{held}")
        if not graph:
            lines.append("  (no parked process found: the queue drained "
                         "with the root process still unfinished)")
        return "\n".join(lines)

    # -- internals -------------------------------------------------------
    def _push(self, delay: int, proc: Optional[Process], value: Any,
              error: Optional[BaseException]) -> None:
        self._seq += 1
        if delay == 0:
            self._ready.append((self._seq, proc, value, error))
        else:
            heapq.heappush(self._queue,
                           (self._now + int(delay), self._seq, proc, value,
                            error))

    def _schedule_resume(self, proc: Process, value: Any,
                         error: Optional[BaseException]) -> None:
        # Zero-delay resume: straight onto the ready deque, no heap op.
        self._seq += 1
        self._ready.append((self._seq, proc, value, error))

    def _note_unobserved_failure(self, proc: Process) -> None:
        self._failed.append(proc)

    def _raise_unobserved(self) -> None:
        if self._failed:
            proc = self._failed.pop(0)
            raise SimError(
                f"process {proc.name!r} died with no observer"
            ) from proc._error

    def _step(self, proc: Process, value: Any,
              error: Optional[BaseException]) -> None:
        """Advance ``proc`` by one yield."""
        if proc._done:
            return  # killed while a resume for it was in flight
        try:
            if error is not None:
                yielded = proc._gen.throw(error)
            else:
                yielded = proc._gen.send(value)
        except StopIteration as stop:
            proc._finish(stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001  # lint: allow-broad-except(the kernel must capture every exception to re-route it into Process._finish; it re-surfaces at join(), so a power cut is propagated, not masked)
            proc._finish(None, exc)
            return

        if type(yielded) is int or isinstance(yielded, (int, float)):
            if yielded < 0:
                self._step(proc, None, SimError(f"negative delay {yielded}"))
                return
            delay = int(yielded)
            self._seq += 1
            if delay == 0:
                self._ready.append((self._seq, proc, None, None))
            else:
                heapq.heappush(self._queue,
                               (self._now + delay, self._seq, proc, None, None))
        elif isinstance(yielded, Event):
            proc._waiting_on = yielded
            yielded._add_waiter(proc)
        elif isinstance(yielded, Process):
            proc._waiting_on = yielded
            yielded._add_joiner(proc)
        else:
            self._step(
                proc, None,
                SimError(f"process {proc.name!r} yielded {yielded!r}; "
                         "expected delay, Event, or Process"),
            )
