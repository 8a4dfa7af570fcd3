"""The discrete-event simulator.

The simulator maintains a heap of (time, priority, sequence, event)
entries and advances simulated time by popping the earliest entry and
running its callbacks.  Time is a float; throughout this project the
unit is **microseconds**, matching the scale at which NVMe and RDMA
operations complete.

Fast paths (see docs/performance.md):

* zero-delay, normal-priority events — the bulk of the schedule:
  process wakeups, ``Event.succeed``, immediate resumes — bypass the
  heap through a FIFO ``deque``.  Dispatch order (and therefore the
  schedule digest) is byte-identical to the pure-heap engine: every
  entry still consumes a sequence number, and a normal-priority heap
  entry for the current timestep goes first when its number is lower.
* one dispatch loop, :meth:`Simulator._dispatch`, serves
  :meth:`Simulator.run` and :meth:`Simulator.step`.  It drains
  same-timestamp events without re-entering the dispatch preamble
  (deadline check, heap access) between them, and keeps the schedule
  digest, the tie permutation and ``step()``'s one-dispatch limit
  behind one flag read at loop entry: a run with all three off pays
  one local test per event for them.

Network deliveries ride the same heap (:meth:`Simulator.post_delivery`)
as records at :data:`DELIVERY_PRIORITY`; every delivery due at one
instant lands in one dispatch (see :meth:`Simulator._dispatch`).
"""

from __future__ import annotations

import hashlib
import heapq
import struct
from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.sim.errors import StopSimulation
from repro.sim.events import Event, Timeout, all_of
from repro.sim.process import STARTED, Process
from repro.sim.rng import derive_stream

#: Default (and lowest-numbered) priority of scheduled events.
NORMAL_PRIORITY = 1

#: Priority of network delivery records (:meth:`Simulator.post_delivery`).
#: Strictly after normal events at the same timestamp, so handlers
#: scheduled *at* t observe a stable world before new cross-NIC traffic
#: lands — and so the landing order is a function of the records alone
#: (``(dst, src, seq)``), not of which sender happened to transmit first.
DELIVERY_PRIORITY = 2

#: A bare instance of an event class, slots unset (one C call; the
#: hot constructors below fill the slots themselves).
_new = object.__new__

_heappush = heapq.heappush

_INF = float("inf")


def _bad_time(when: float, now: float) -> RuntimeError:
    """The error for a dispatch that would move the clock back or to
    infinity (where it would stay for good)."""
    if when < now:
        return RuntimeError("time went backwards: %r < %r" % (when, now))
    return RuntimeError("an event at time %r would stop the clock" % when)


def _bad_delay(delay: float) -> ValueError:
    """The error for a delay that is not ``>= 0``."""
    if delay < 0:
        return ValueError("negative delay %r" % delay)
    return ValueError("delay %r is not a number" % delay)


class Simulator:
    """A discrete-event simulation kernel.

    Usage::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(5)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert proc.value == "done"
    """

    def __init__(self):
        #: Current simulated time (microseconds by project convention).
        #: A plain attribute, read on every model step; only the
        #: dispatch loop of :mod:`repro.sim` assigns it (simlint SIM010).
        self.now = 0.0
        #: ``(time, NORMAL_PRIORITY, sequence, event)`` entries and
        #: delivery records (:meth:`post_delivery`), earliest first.
        self._heap: list = []
        #: FIFO of (sequence, event) for zero-delay normal-priority
        #: entries at the current timestep.
        self._imm: deque = deque()
        self._sequence = 0
        self._digest = None
        self._digest_events = 0
        self._events_dispatched = 0
        #: The callback list of the event being dispatched, which the
        #: dispatch loop is walking (None outside a dispatch):
        #: :meth:`Event.succeed_inline` appends to it.
        self._walking: Optional[list] = None
        #: Tie-permutation stream (:meth:`enable_tie_permutation`), or
        #: None for FIFO ties.
        self._sanitize_rng = None

    # -- inspection ---------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Number of entries still on the schedule (heap + immediate
        queue): events, and one delivery record per message in flight."""
        return len(self._heap) + len(self._imm)

    @property
    def events_dispatched(self) -> int:
        """Total events dispatched over this simulator's lifetime."""
        return self._events_dispatched

    def enable_schedule_digest(self) -> None:
        """Start hashing the event schedule (determinism verifier).

        Every popped schedule entry folds its
        ``(time, priority, sequence, event-kind)`` into a running
        SHA-256.  Two runs of the same seeded model must produce the
        same digest; any divergence pinpoints nondeterminism in the
        schedule itself rather than in derived metrics.  Takes effect
        at the next :meth:`run` or :meth:`step` call.
        """
        self._digest = hashlib.sha256()
        self._digest_events = 0

    def enable_tie_permutation(self, seed: int) -> None:
        """Break ties among zero-delay events at random (the
        order-dependence sanitizer, :mod:`repro.lint.sanitize`).

        From the next :meth:`run` or :meth:`step` call on, the next
        entry of the FIFO of zero-delay events is drawn from the
        ``sim.sanitize`` stream of ``seed`` instead of taken from its
        head: distinct seeds, distinct legal schedules of the same
        model.  Only that FIFO is permuted: same-instant heap entries
        (timeouts with a delay, :meth:`timeout_at` for a later
        instant) keep their sequence order and wait until the FIFO is
        empty, and deliveries keep their record order.  Every such
        order is a legal cooperative schedule, so *functional*
        outcomes must not change; code whose results move under the
        permutation has a hidden order dependence (see
        docs/static-analysis.md).
        """
        self._sanitize_rng = derive_stream(seed, "sim.sanitize")

    @property
    def schedule_digest(self) -> Optional[str]:
        """Hex digest of the schedule so far, or None when disabled."""
        return self._digest.hexdigest() if self._digest is not None else None

    @property
    def schedule_digest_events(self) -> int:
        """Number of events folded into the schedule digest."""
        return self._digest_events

    # -- event construction ---------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        if not delay >= 0.0:
            raise _bad_delay(delay)
        # ``Event.__init__`` and ``_schedule_event`` (normal priority),
        # spelled out: this is the hottest constructor of the model.
        timeout = _new(Timeout)
        timeout.sim = self
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._defused = False
        self._sequence += 1
        if delay == 0.0:
            self._imm.append((self._sequence, timeout))
        else:
            _heappush(self._heap, (self.now + delay, NORMAL_PRIORITY,
                                   self._sequence, timeout))
        return timeout

    def process(self, generator: Generator, name: Optional[str] = None,
                after: Optional[Event] = None) -> Process:
        """Start a new process from ``generator`` — now, or with
        ``after``, inside that event's dispatch."""
        return Process(self, generator, name=name, after=after)

    def process_inline(self, generator: Generator,
                       name: Optional[str] = None) -> Process:
        """Start a process right here, inside the current dispatch.

        The generator's first resume runs before this call returns —
        what ``process(generator, after=event)`` does when ``event`` is
        the one whose callback is making this call, without having
        decided on the process before the event fired.  Like ``after=``
        it spends no event and no sequence number on the start.  Call
        it from a callback; outside a dispatch the generator simply
        starts at the call.
        """
        return Process(self, generator, name=name, after=STARTED)

    def all_of(self, events):
        """Composite event firing once all ``events`` fire."""
        return all_of(self, events)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run a plain callable ``delay`` time units from now."""
        event = self.timeout(delay)
        event.callbacks.append(lambda _evt: callback())
        return event

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """An event firing at the absolute time ``when`` (>= now).

        Unlike ``timeout(when - now)`` the fire time is exactly
        ``when`` — no ``now + (when - now)`` rounding — so analytic
        models that compute a completion instant (and deadlines armed
        after they were computed) land on that very timestamp.
        """
        delay = when - self.now
        if not delay > 0.0:
            if delay != 0.0:  # in the past, or NaN
                raise ValueError("cannot fire at %r, now is %r"
                                 % (when, self.now))
            return self.timeout(0.0, value)
        timeout = _new(Timeout)
        timeout.sim = self
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._defused = False
        self._sequence += 1
        _heappush(self._heap, (float(when), NORMAL_PRIORITY,
                               self._sequence, timeout))
        return timeout

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Run a plain callable at the absolute time ``when`` (>= now)."""
        event = self.timeout_at(when)
        event.callbacks.append(lambda _evt: callback())
        return event

    def post_delivery(self, record: tuple) -> None:
        """Put a network delivery on the schedule.

        ``record`` is ``(deliver_at, DELIVERY_PRIORITY, dst, src, seq,
        wire_bytes, payload, land)`` (:data:`repro.net.topology.
        MessageRecord`): at exactly ``deliver_at``, after every
        normal-priority event of that instant, a dispatch loop calls
        ``land(record)``.  ``(dst, src, seq)`` must be unique among
        same-instant records; it is their landing order.  Spends no
        sequence number.
        """
        if not record[0] >= self.now:       # in the past, or NaN
            raise ValueError("cannot deliver at %r, now is %r"
                             % (record[0], self.now))
        _heappush(self._heap, record)

    # -- engine ---------------------------------------------------------------

    def _schedule_event(self, event: Event) -> None:
        """Queue ``event`` for dispatch at the current instant."""
        self._sequence += 1
        self._imm.append((self._sequence, event))

    def step(self) -> None:
        """Dispatch the next event.  Raises IndexError when the schedule
        is empty.

        One call is one dispatch of :meth:`run`'s loop, so a replay
        that steps event by event dispatches what :meth:`run` would, in
        the same order: a delivery batch (:meth:`post_delivery`) counts
        as one.
        """
        if not (self._heap or self._imm):
            raise IndexError("step() on an empty schedule")
        self._dispatch(_INF, 1)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until simulated time reaches it;
        * an :class:`Event` — run until that event triggers, returning
          its value (re-raising its exception when it failed).
        """
        stop_event: Optional[Event] = None
        if until is None:
            deadline = _INF
        elif isinstance(until, Event):
            stop_event = until
            deadline = _INF
            if stop_event.callbacks is not None:
                stop_event.callbacks.append(self._stop_on_event)
            elif stop_event.triggered:
                return self._event_outcome(stop_event)
        else:
            deadline = float(until)
            if not deadline >= self.now:
                raise ValueError("cannot run until %r, now is %r" % (deadline, self.now))

        try:
            self._dispatch(deadline, None)
        except StopSimulation as stop:
            if stop_event is not None and stop_event.triggered:
                return self._event_outcome(stop_event)
            return stop.value
        if stop_event is not None:
            if not stop_event.triggered:
                raise RuntimeError(
                    "run() until an event, but the simulation ran out of "
                    "events before %r triggered" % stop_event)
            return self._event_outcome(stop_event)
        if deadline != _INF:
            # Model code that moved ``now`` past the deadline would
            # otherwise see the clock rewound here.
            if self.now > deadline:
                raise RuntimeError("time went backwards: %r < %r"
                                   % (deadline, self.now))
            self.now = deadline
        return None

    def _dispatch(self, deadline: float, limit: Optional[int]) -> None:
        """The dispatch loop of :meth:`run` and :meth:`step`: dispatch
        until the schedule is empty, the next event lies past
        ``deadline`` or ``limit`` dispatches are done (None: no limit).

        Same-instant order: a normal-priority heap entry goes before the
        FIFO of zero-delay entries when its sequence number is lower —
        the pure-heap engine's order; with :meth:`enable_tie_permutation`
        the FIFO pick is random instead.  A delivery record is
        dispatched as a *batch*: it and every other delivery record due
        at that exact instant land as one event, in record order, also
        records posted by the batch's own handlers for that instant.
        Events settled inline during the batch
        (:meth:`~repro.sim.events.Event.succeed_inline`) run after its
        last record.  The digest folds an event as ``(time, priority,
        sequence)`` and its class name, a batch as ``(time,
        DELIVERY_PRIORITY, records landed)`` of kind ``Delivery``.
        """
        heap = self._heap
        imm = self._imm
        heappop = heapq.heappop
        popleft = imm.popleft
        inf = _INF
        delivery = DELIVERY_PRIORITY
        digest = self._digest
        rng = self._sanitize_rng
        # The digest, the permutation and the limit behind one test,
        # so a run with all three off pays one local test per event.
        checked = digest is not None or rng is not None or limit is not None
        stop = None if limit is None else self._events_dispatched + limit
        try:
            while heap or imm:
                if imm:
                    # Stay at the current instant.
                    if checked and rng is not None:
                        # Any pick from the FIFO is a legal schedule.
                        pick = rng.randrange(len(imm))
                        entry = imm[pick]
                        del imm[pick]
                    elif heap:
                        entry = heap[0]
                        if (entry[0] == self.now
                                and entry[1] == NORMAL_PRIORITY
                                and entry[2] < imm[0][0]):
                            heappop(heap)
                        else:
                            entry = popleft()
                    else:
                        entry = popleft()
                else:
                    # Advance time via the heap.
                    entry = heap[0]
                    when = entry[0]
                    if when > deadline:
                        return
                    if not self.now <= when < inf:
                        raise _bad_time(when, self.now)
                    heappop(heap)
                    self.now = when
                    if entry[1] == delivery:
                        self._events_dispatched += 1
                        # A batch has no event of its own: inline
                        # settles see STARTED, an already-fired event,
                        # as the dispatching one.
                        walking = self._walking = []
                        landed = 1
                        entry[7](entry)
                        while heap:
                            entry = heap[0]
                            if entry[0] != when or entry[1] != delivery:
                                break
                            heappop(heap)
                            entry[7](entry)
                            landed += 1
                        for callback in walking:
                            callback(STARTED)
                        if checked:
                            if digest is not None:
                                digest.update(struct.pack(
                                    "<dqq", when, delivery, landed))
                                digest.update(b"Delivery")
                                self._digest_events += 1
                            if self._events_dispatched == stop:
                                return
                        continue
                # Both entry shapes end with ``sequence, event``.
                event = entry[-1]
                self._events_dispatched += 1
                if checked:
                    if digest is not None:
                        digest.update(struct.pack(
                            "<dqq", self.now, NORMAL_PRIORITY, entry[-2]))
                        digest.update(type(event).__name__.encode("ascii"))
                        self._digest_events += 1
                    if self._events_dispatched == stop:
                        # The last dispatch ``limit`` allows: the loop
                        # test fails once its callbacks have run.
                        heap = imm = ()
                callbacks, event.callbacks = event.callbacks, None
                self._walking = callbacks
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self._walking = None

    @staticmethod
    def _event_outcome(event: Event) -> Any:
        if event._ok:
            return event._value
        event._defused = True
        raise event._value

    def _stop_on_event(self, event: Event) -> None:
        walking = self._walking
        if walking is not None and walking[-1] != self._stop_on_event:
            # Stop once the dispatch is done, callbacks settled inline
            # during it included.
            walking.append(self._stop_on_event)
            return
        if not event._ok:
            event._defused = True
        raise StopSimulation(event._value if event._ok else None)

    def __repr__(self):
        return "<Simulator t=%.3f pending=%d>" % (self.now, self.pending_events)
