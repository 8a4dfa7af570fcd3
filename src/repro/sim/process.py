"""Generator-driven simulation processes.

A process wraps a Python generator.  The generator yields
:class:`~repro.sim.events.Event` instances; each yield suspends the
process until the yielded event triggers, at which point the event's
value is sent back into the generator (or its exception thrown in).

This mirrors the execution model of the SPDK reactor that LEED is
built on: a handler runs to completion between explicit yield points,
so there is no preemption inside a code block.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim.events import PENDING, Event

#: The event every :meth:`Simulator.process_inline` process starts
#: from: already fired, successfully, with no value.
STARTED = Event(None)
STARTED._ok = True
STARTED._value = None
STARTED.callbacks = None


class Process(Event):
    """A running process.  Also an event that fires when it finishes.

    The process event succeeds with the generator's return value, or
    fails with the exception that escaped the generator.  A process
    that finishes successfully with no callbacks registered (fire and
    forget) is marked processed on the spot; no completion event is
    dispatched for it.

    ``after`` (a value-less event: a generator's first send is None)
    starts the process inside that event's dispatch instead of from an
    initialization event of its own — a handler whose first act would
    be to wait out a CPU slice starts when the slice ends.  Until then
    it waits on ``after`` as on any yielded event (its failure is
    thrown in).  ``after=STARTED`` (:meth:`Simulator.process_inline`)
    runs the first resume in the constructor, i.e. inside whatever
    dispatch is creating the process.
    """

    __slots__ = ("generator", "name")

    def __init__(self, sim, generator: Generator, name: Optional[str] = None,
                 after: Optional[Event] = None):
        if not hasattr(generator, "throw"):
            raise TypeError("Process requires a generator, got %r" % (generator,))
        # ``Event.__init__``, spelled out (one process per KV request).
        self.sim = sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        if after is not None:
            if after.callbacks is not None:
                after.callbacks.append(self._resume)
                return
            if after is STARTED:
                self._resume(after)
                return
        # Kick off the process via an immediately-scheduled initialization
        # event so creation order does not matter within a timestep (also
        # for an ``after`` already processed; its failure is carried over).
        init = Event(sim)
        init.callbacks.append(self._resume)
        init._ok = after is None or after._ok
        init._value = None if init._ok else after._value
        init._defused = not init._ok
        sim._schedule_event(init)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    # -- engine plumbing ----------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        if self._value is not PENDING:  # already finished
            return
        try:
            if event._ok:
                next_event = self.generator.send(event._value)
            else:
                # The event failed; throw its exception into the generator.
                event._defused = True
                next_event = self.generator.throw(event._value)
        except StopIteration as stop:
            if self.callbacks:
                self.succeed(stop.value)
            else:
                # Nobody waits on this process: mark it processed in
                # place instead of scheduling a completion event with
                # nothing to run.  The sequence number is still
                # consumed so same-timestep tie order is untouched;
                # later ``yield proc`` / conditions / ``run(until=)``
                # see a processed event and resume immediately.
                self._ok = True
                self._value = stop.value
                self.callbacks = None
                self.sim._sequence += 1
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            self.sim._schedule_event(self)
            return

        # An Event is recognised by its two attributes, not by an
        # isinstance() call per resume.
        try:
            callbacks = next_event.callbacks
            foreign = next_event.sim is not self.sim
        except AttributeError:
            raise TypeError(
                "process %r yielded %r, expected an Event" % (self.name, next_event)
            ) from None
        if foreign:
            raise ValueError("process yielded an event from another simulator")
        if callbacks is None:
            # Already processed -> resume immediately at the current time.
            immediate = Event(self.sim)
            immediate._ok = next_event._ok
            immediate._value = next_event._value
            if not next_event._ok:
                next_event._defused = True
                immediate._defused = True
            immediate.callbacks.append(self._resume)
            self.sim._schedule_event(immediate)
        else:
            callbacks.append(self._resume)

    def __repr__(self):
        return "<Process %s %s>" % (self.name, "done" if self.triggered else "alive")
