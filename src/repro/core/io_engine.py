"""Intra-JBOF I/O execution engine (§3.4).

Each SSD partition gets:

* an **active queue** — commands admitted to the store and awaiting
  completion; its capacity, translated into *tokens* via the measured
  per-IO latency, represents the SSD's current serving capability;
* a **waiting queue** — runnable requests received from clients; its
  occupancy is the overload signal used by data swapping (§3.6) and
  flow control (§3.5).

Token cost per command is decided offline from its NVMe access count
(GET/PUT/DEL = 2/3/2, §3.3).  When a command retires, the engine pulls
the next waiting command whose token requirement is satisfied —
strictly FCFS, run-to-completion, no dedicated dispatcher core: a
command with nothing ahead of it and enough tokens runs in its
caller's process; only one that has to wait meets the scheduler.

The engine also allocates spare tokens among tenants in a weighted
fashion; the per-tenant allocation is piggybacked on every response
(the server half of the end-to-end flow control of §3.5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict, Optional, Set

from repro.core.datastore import LeedDataStore, OpResult
from repro.sim.core import Simulator
from repro.sim.events import PENDING, Continuation, Event
from repro.sim.queues import Store
from repro.sim.record import Record

#: Offline-decided token cost per command (== NVMe accesses, §3.3).
TOKEN_COST = {"get": 2, "put": 3, "del": 2, "copy": 4}

#: Default number of tokens an idle partition exposes; derived from the
#: SSD queue depth share of one partition (queue depth 128 at 2-3
#: accesses per command leaves ~96 tokens of admission headroom).
DEFAULT_TOKEN_CAPACITY = 96


class KVCommand(Record):
    """One queued key-value command.

    Compared and hashed by identity, so commands can sit in the
    engine's active *set*.
    """

    __slots__ = _FIELDS = ("op", "key", "value", "tenant", "enqueued_at",
                           "started_at", "completion", "trace", "queue_span")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, op: str, key: bytes, value: Optional[bytes] = None,
                 tenant: str = "default", enqueued_at: float = 0.0,
                 started_at: float = 0.0, completion: Optional[Event] = None,
                 trace: Optional[object] = None,
                 queue_span: Optional[object] = None):
        self.op = op
        self.key = key
        self.value = value
        self.tenant = tenant
        self.enqueued_at = enqueued_at
        self.started_at = started_at
        self.completion = completion
        #: Trace context of the request this command serves (duck-typed
        #: :class:`repro.obs.spans.TraceContext`; None when unsampled).
        self.trace = trace
        #: Open ``engine.queue`` span while the command sits in the
        #: waiting queue (internal to the engine).
        self.queue_span = queue_span

    @property
    def token_cost(self) -> int:
        return TOKEN_COST[self.op]


@dataclass
class EngineStats:
    """Cumulative engine statistics."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    total_wait_us: float = 0.0
    total_service_us: float = 0.0
    peak_waiting: int = 0
    #: Commands that reached the head of the queue without enough
    #: tokens and waited for a retirement, per tenant.
    starved_by_tenant: Dict[str, int] = field(default_factory=dict)
    #: Back-off time PUTs spent waiting for room in a full log.
    store_full_stall_us: float = 0.0


class PartitionIOEngine:
    """Token-based executor for one store partition."""

    def __init__(self, sim: Simulator, store: LeedDataStore,
                 token_capacity: int = DEFAULT_TOKEN_CAPACITY,
                 waiting_capacity: int = 64, name: str = "engine"):
        self.sim = sim
        self.store = store
        #: The store's analytic GET clock, which :meth:`submit` fuses
        #: on: only a ``LeedDataStore`` with a bound core has one.
        self._get_at = (getattr(store, "get_at", None)
                        if getattr(store, "core", None) is not None
                        else None)
        self.name = name
        self.token_capacity = token_capacity
        self._tokens = token_capacity
        self.waiting: Store = Store(sim, capacity=waiting_capacity,
                                    name=name + ".waitq")
        #: Commands currently executing (the active queue).  A set:
        #: retirement must not pay O(active) per command.
        self.active: Set[KVCommand] = set()
        self.stats = EngineStats()
        #: Relative weights for tenant token allocation.
        self.tenant_weights: Dict[str, float] = {}
        self._weight_total = 0.0
        self._release_waiters: Deque[Event] = deque()
        #: Commands queued and not admitted yet (in the queue, handed to
        #: the scheduler, or there waiting for tokens): ahead of arrivals.
        self._unadmitted = 0
        self._scheduler = sim.process(self._run(), name=name + ".sched")

    # -- admission ------------------------------------------------------------------

    @property
    def tokens(self) -> int:
        """Tokens not pinned by active commands."""
        return self._tokens

    @property
    def waiting_occupancy(self) -> int:
        return len(self.waiting)

    @property
    def active_occupancy(self) -> int:
        return len(self.active)

    def _arrive(self, command: KVCommand) -> bool:
        """Stamp an arriving command.  True when it can be admitted on
        the spot: nothing queued or mid-admission ahead of it (FCFS)
        and enough tokens."""
        self.stats.submitted += 1
        command.enqueued_at = self.sim.now
        if command.trace is not None:
            command.queue_span = command.trace.child(
                "engine.queue", cat="engine", args={"engine": self.name})
        return (self._unadmitted == 0
                and self._tokens >= TOKEN_COST.get(command.op, 1 << 62))

    def _admit(self, command: KVCommand) -> None:
        """Pin ``command``'s tokens and move it to the active queue."""
        if command.queue_span is not None:
            command.queue_span.finish()
            command.queue_span = None
        self._tokens -= TOKEN_COST[command.op]
        command.started_at = self.sim.now
        self.stats.total_wait_us += command.started_at - command.enqueued_at
        self.active.add(command)

    def execute(self, command: KVCommand):
        """Run ``command``; returns the generator to ``yield from`` for
        its OpResult.  Admitted on arrival (decided at this call) it
        runs in the caller's process, else it waits its turn in the
        queue.  Raises ``ValueError`` (unknown op), store errors and
        :class:`OverloadError` (waiting queue full: backpressure the
        flow controller is expected to prevent)."""
        if self._arrive(command):
            self._admit(command)
            return self._execute(command)
        return self._await(self._enqueue(command))

    @staticmethod
    def _await(completion: Event):
        return (yield completion)

    def submit(self, command: KVCommand,
               then: Optional[Continuation] = None) -> Optional[Event]:
        """The fused GET (its one caller, the node's KV dispatch, has
        decided): continuation form of :meth:`execute` for a caller
        that is not a process.  The outcome goes to ``then(ok, value)``
        — the OpResult, or the exception where ``execute`` raises —
        or, without ``then``, to the returned event.  An untraced GET
        admitted on arrival at a store with an analytic clock is fully
        fused: result and completion time are computed synchronously
        and one scheduled callback retires the command and runs
        ``then``.  Anything else queues and runs the reference clock."""
        if not (self._arrive(command) and command.op == "get"
                and command.trace is None and self._get_at is not None):
            completion = self._enqueue(command)
            if then is None:
                return completion
            if completion._value is PENDING:
                completion.callbacks.append(partial(_continue, then))
            else:
                _continue(then, completion)
            return None
        completion = None
        if then is None:
            completion = Event(self.sim)
            then = completion.settle
        self._admit(command)
        try:
            result, done = self._get_at(command.key)
        except Exception as exc:
            self._retire(command)
            then(False, exc)
            return completion
        retire = self.sim.timeout(done - self.sim.now)
        retire.callbacks.append(
            partial(self._retire_fused, command, result, then))
        return completion

    def _retire_fused(self, command: KVCommand, result: OpResult,
                      then: Continuation, _event: Event) -> None:
        """The fused GET's retire dispatch: continue right here, unless
        the freed tokens woke the scheduler — then one event later, as
        :meth:`_execute` does, so the woken command is admitted before
        the reply advertises spare tokens."""
        if self._complete(command):
            relay = self.sim.timeout(0.0, result)
            relay.callbacks.append(partial(_continue, then))
        else:
            then(True, result)

    def _enqueue(self, command: KVCommand) -> Event:
        """Queue an arrived command (unknown op, full queue: fail it)."""
        command.completion = Event(self.sim)
        error = None
        if command.op not in TOKEN_COST:
            error = ValueError("unknown op %r" % command.op)
        elif not self.waiting.try_put(command):
            self.stats.rejected += 1
            error = OverloadError("%s waiting queue full (%d)"
                                  % (self.name, len(self.waiting)))
        if error is None:
            self._unadmitted += 1
        else:
            if command.queue_span is not None:
                command.queue_span.finish({"rejected": True})
                command.queue_span = None
            command.completion.fail(error)
            command.completion.defuse()
        self.stats.peak_waiting = max(self.stats.peak_waiting,
                                      len(self.waiting))
        return command.completion

    # -- token allocation for flow control --------------------------------------------

    def allocation_for(self, tenant: str, retiring_cost: int = 0) -> int:
        """Tokens this tenant may spend, piggybacked on a response.

        The grant is the *retirement credit* of the completing command
        (1-for-1 replacement keeps a saturated pipe full) plus a
        weighted share of the spare pool, minus backlog pressure from
        the waiting queue (so an over-subscribed partition throttles
        its tenants down instead of queueing without bound).
        """
        spare = self._tokens - len(self.waiting.items)
        weights = self.tenant_weights
        if weights:
            total = self._weight_total
            weight = weights.get(tenant, 1.0)
            spare = int(spare * weight / max(total, weight))
        grant = retiring_cost + spare
        return grant if grant >= 0 else 0

    def set_tenant_weight(self, tenant: str, weight: float) -> None:
        """Register a tenant's share of the spare token pool (§3.5)."""
        self.tenant_weights[tenant] = weight
        self._weight_total = sum(self.tenant_weights.values())

    # -- execution loop -----------------------------------------------------------------

    def _run(self):
        while True:
            command = yield self.waiting.get()
            if self._tokens < command.token_cost:
                starved = self.stats.starved_by_tenant
                starved[command.tenant] = starved.get(command.tenant, 0) + 1
                # The queue wait ends here; the wait for tokens (the
                # active queue's serving capability) is its own span.
                token_ctx = None
                if command.trace is not None:
                    command.queue_span.finish()
                    command.queue_span = None
                    token_ctx = command.trace.child(
                        "engine.tokens", cat="engine",
                        args={"cost": command.token_cost})
                while self._tokens < command.token_cost:
                    released = Event(self.sim)
                    self._release_waiters.append(released)
                    yield released
                if token_ctx is not None:
                    token_ctx.finish()
            self._admit(command)
            self._unadmitted -= 1
            self.sim.process(self._execute(command),
                             name=self.name + ".exec")

    #: Writes hitting a full log wait for compaction and retry (the
    #: paper: "PUTs would be served slowly if the new log entry
    #: generation speed cannot catch up") — up to this many times.
    STORE_FULL_RETRIES = 20
    STORE_FULL_BACKOFF_US = 150.0

    def _invoke(self, command: KVCommand, trace):
        """The store-call generator for one command.  Every store takes
        ``trace``; the baselines (FAWN, KVell, LSM) ignore it and run
        untraced below the engine spans."""
        if command.op == "put":
            return self.store.put(command.key, command.value, trace=trace)
        call = self.store.get if command.op == "get" else self.store.delete
        return call(command.key, trace=trace)

    def _execute(self, command: KVCommand):
        """Generator: run an admitted command to completion.  With a
        completion event (it went through the queue; this is its
        executor process) the outcome goes to the event; without one
        it runs in its caller's process and store errors propagate."""
        exec_ctx = None
        if command.trace is not None:
            exec_ctx = command.trace.child("engine.exec." + command.op,
                                           cat="engine")
        try:
            result = yield from self._invoke(command, exec_ctx)
            if command.op == "put":
                for _attempt in range(self.STORE_FULL_RETRIES):
                    if result.status != "store_full":
                        break
                    self.stats.store_full_stall_us += (
                        self.STORE_FULL_BACKOFF_US)
                    yield self.sim.timeout(self.STORE_FULL_BACKOFF_US)
                    result = yield from self._invoke(command, exec_ctx)
        except Exception as exc:
            if exec_ctx is not None:
                exec_ctx.finish({"error": type(exc).__name__})
            self._retire(command)
            if command.completion is None:
                raise
            command.completion.fail(exc)  # surface it to the waiter
            return None
        if exec_ctx is not None:
            exec_ctx.finish({"status": result.status,
                             "nvme_accesses": result.nvme_accesses})
        if command.completion is not None:
            self._complete(command)
            command.completion.succeed(result)
        elif self._complete(command):
            # The freed tokens woke a waiting command: it is admitted
            # before this caller advertises spare tokens in its reply.
            yield self.sim.timeout(0.0)
        return result

    def _complete(self, command: KVCommand) -> bool:
        """Retire a finished command and account its service time."""
        woke = self._retire(command)
        self.stats.completed += 1
        self.stats.total_service_us += self.sim.now - command.started_at
        return woke

    def _retire(self, command: KVCommand) -> bool:
        """Free ``command``'s tokens; true when they woke the scheduler."""
        self.active.discard(command)
        self._tokens += TOKEN_COST[command.op]
        # Wake only the head waiter (FCFS): firing every queued release
        # event per retirement was a thundering herd.
        waiters = self._release_waiters
        while waiters:
            event = waiters.popleft()
            if event._value is PENDING:
                event.succeed()
                return True
        return False

    def __repr__(self):
        return "<PartitionIOEngine %s tokens=%d wait=%d active=%d>" % (
            self.name, self._tokens, len(self.waiting), len(self.active))


def _continue(then: Continuation, event: Event) -> None:
    """Hand a settled event's outcome to the continuation ``then``."""
    if not event._ok:
        event.defuse()
    then(event._ok, event._value)


class OverloadError(Exception):
    """A command was rejected because the waiting queue was full."""
