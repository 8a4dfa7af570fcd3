"""Core event primitives for the discrete-event engine.

An :class:`Event` is a one-shot occurrence at a point in simulated
time.  Processes (see :mod:`repro.sim.process`) yield events to wait on
them; the simulator resumes the process once the event triggers.

Events follow the familiar simpy-style life cycle:

``untriggered -> triggered (ok | failed) -> processed``

Once triggered, an event is placed on the simulator's queue and its
callbacks run when the simulator reaches it.  Triggering twice raises
:class:`~repro.sim.errors.EventAlreadyTriggered`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.sim.errors import EventAlreadyTriggered

PENDING = object()
"""Sentinel for the value of an event that has not been triggered."""

Continuation = Callable[[bool, Any], None]
"""What a callback-style producer hands its outcome to:
``then(True, value)`` or ``then(False, exception)``, run inside the
dispatch that produces the value (an :class:`Event`'s own is
:meth:`Event.settle`)."""


class Event:
    """A one-shot occurrence that processes can wait on."""

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim):
        self.sim = sim
        #: Callables invoked (with this event) when the event fires.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (ok or failed)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the simulator has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception when it failed)."""
        if self._value is PENDING:
            raise AttributeError("value of event %r is not yet available" % self)
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered("%r already triggered" % self)
        self._ok = True
        self._value = value
        # ``Simulator._schedule_event``, inlined.
        sim = self.sim
        sim._sequence += 1
        sim._imm.append((sim._sequence, self))
        return self

    def succeed_inline(self, value: Any = None) -> "Event":
        """:meth:`succeed`, settled inside the current dispatch.

        The callbacks run once the dispatching event's own callbacks
        (and anything settled inline before this) have returned — the
        dispatch loop walks them as if the dispatching event had held
        them — so this event spends no dispatch, no FIFO entry and no
        sequence number.  For a waiter whose wake-up models no delay,
        settled from a callback (a reply landing, a lock hand-off, a
        flush retiring).  Outside a dispatch it is :meth:`succeed`.
        """
        walking = self.sim._walking
        if walking is None:
            return self.succeed(value)
        if self._value is not PENDING:
            raise EventAlreadyTriggered("%r already triggered" % self)
        self._ok = True
        self._value = value
        walking.append(self._run_callbacks)
        return self

    def _run_callbacks(self, _dispatching: "Event") -> None:
        """The dispatch of an event settled by :meth:`succeed_inline`."""
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` thrown into them.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() expects an exception, got %r" % (exception,))
        if self._value is not PENDING:
            raise EventAlreadyTriggered("%r already triggered" % self)
        self._ok = False
        self._value = exception
        self.sim._schedule_event(self)
        return self

    def settle(self, ok: bool, value: Any) -> "Event":
        """:meth:`succeed` with ``value`` or :meth:`fail` with it: the
        event as a continuation ``then(ok, value)``."""
        return self.succeed(value) if ok else self.fail(value)

    def __repr__(self):
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return "<%s %s at t=%s>" % (type(self).__name__, state, getattr(self.sim, "now", "?"))


class Timeout(Event):
    """An event that triggers itself at a set instant.

    Made by :meth:`Simulator.timeout` / :meth:`Simulator.timeout_at`
    only, which fill its slots and schedule it in one step.
    """

    __slots__ = ()

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover - guard
        raise EventAlreadyTriggered("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover - guard
        raise EventAlreadyTriggered("Timeout events trigger themselves")


class ConditionValue(dict):
    """Mapping of event -> value for the events that fired in a condition."""


class Condition(Event):
    """Composite event that fires once all its sub-events have fired."""

    __slots__ = ("events", "_fired")

    def __init__(self, sim, events):
        super().__init__(sim)
        self.events = list(events)
        self._fired = 0
        if not self.events:
            self.succeed(ConditionValue())
            return
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("cannot mix events from different simulators")
        for event in self.events:
            # An event counts as already-fired only once processed
            # (Timeout pre-sets its value at construction, so checking
            # ``triggered`` here would fire conditions early).
            if event.callbacks is None:
                self._on_sub_event(event)
            else:
                event.callbacks.append(self._on_sub_event)

    def _on_sub_event(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._fired += 1
        if self._fired == len(self.events):
            value = ConditionValue()
            for sub in self.events:
                # Only sub-events that actually fired (processed), not
                # pending Timeouts whose value is pre-set.
                if sub.callbacks is None and sub._ok:
                    value[sub] = sub._value
            self.succeed(value)


def all_of(sim, events) -> Condition:
    """Condition that fires once every event in ``events`` has fired."""
    return Condition(sim, events)
