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
strictly FCFS, run-to-completion, no dedicated dispatcher core.

The engine also allocates spare tokens among tenants in a weighted
fashion; the per-tenant allocation is piggybacked on every response
(the server half of the end-to-end flow control of §3.5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Set

from repro.core.datastore import LeedDataStore, OpResult
from repro.sim.core import Simulator
from repro.sim.events import Event
from repro.sim.queues import Store

#: Offline-decided token cost per command (== NVMe accesses, §3.3).
TOKEN_COST = {"get": 2, "put": 3, "del": 2, "copy": 4}

#: Default number of tokens an idle partition exposes; derived from the
#: SSD queue depth share of one partition (queue depth 128 at 2-3
#: accesses per command leaves ~96 tokens of admission headroom).
DEFAULT_TOKEN_CAPACITY = 96


@dataclass(eq=False)
class KVCommand:
    """One queued key-value command.

    ``eq=False`` keeps identity comparison/hashing so commands can sit
    in the engine's active *set*.
    """

    op: str
    key: bytes
    value: Optional[bytes] = None
    tenant: str = "default"
    enqueued_at: float = 0.0
    started_at: float = 0.0
    completion: Optional[Event] = None
    #: Trace context of the request this command serves (duck-typed
    #: :class:`repro.obs.spans.TraceContext`; None when unsampled).
    trace: Optional[object] = None
    #: Open ``engine.queue`` span while the command sits in the
    #: waiting queue (internal to the engine).
    queue_span: Optional[object] = None

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

    @property
    def mean_wait_us(self) -> float:
        return self.total_wait_us / self.completed if self.completed else 0.0


class PartitionIOEngine:
    """Token-based executor for one store partition."""

    def __init__(self, sim: Simulator, store: LeedDataStore,
                 token_capacity: int = DEFAULT_TOKEN_CAPACITY,
                 waiting_capacity: int = 64, name: str = "engine",
                 admission_batch: int = 1):
        self.sim = sim
        self.store = store
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
        #: Max commands pulled from the waiting queue per scheduler
        #: wakeup; each is then admitted FCFS and executed on the
        #: per-command path.  1 keeps the exact one-command-per-wakeup
        #: schedule.
        self.admission_batch = max(int(admission_batch), 1)
        #: Fast path (``fast_datapath``): admit a command synchronously
        #: from :meth:`submit` when nothing is queued ahead of it and
        #: tokens are free — skips the waiting-queue round trip.  FCFS
        #: is preserved: the bypass requires an empty waiting queue and
        #: no command parked mid-admission in the scheduler.
        self.direct_admit = False
        self._admitting = 0
        self._get_at = getattr(store, "get_at", None)
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

    def is_overloaded(self, threshold: int = 8) -> bool:
        """Overload signal: a deep waiting queue (§3.6)."""
        return len(self.waiting) >= threshold

    def submit(self, command: KVCommand) -> Event:
        """Enqueue a command; returns an event with its OpResult.

        Rejects (fails the event) when the waiting queue is full —
        backpressure the flow controller is expected to prevent.
        """
        command.enqueued_at = self.sim.now
        command.completion = Event(self.sim)
        self.stats.submitted += 1
        if command.op not in TOKEN_COST:
            command.completion.fail(ValueError("unknown op %r" % command.op))
            command.completion.defuse()
            return command.completion
        if command.trace is not None:
            command.queue_span = command.trace.child(
                "engine.queue", cat="engine", args={"engine": self.name})
        if (self.direct_admit and self._admitting == 0
                and not len(self.waiting)
                and self._tokens >= command.token_cost):
            if command.queue_span is not None:
                command.queue_span.finish()
                command.queue_span = None
            self._tokens -= command.token_cost
            command.started_at = self.sim.now
            self.active.add(command)
            if (command.op == "get" and command.trace is None
                    and self._get_at is not None):
                # Fully fused GET: the store computes the result and
                # completion time synchronously; a single scheduled
                # callback retires the command — no executor process.
                try:
                    result, done = self._get_at(command.key)
                except Exception as exc:
                    self._retire(command)
                    command.completion.fail(exc)
                    return command.completion
                self.sim.schedule(done - self.sim.now,
                                  lambda: self._complete(command, result))
                return command.completion
            self.sim.process(self._execute(command),
                             name=self.name + ".exec")
            return command.completion
        if not self.waiting.try_put(command):
            self.stats.rejected += 1
            if command.queue_span is not None:
                command.queue_span.finish({"rejected": True})
                command.queue_span = None
            command.completion.fail(OverloadError(
                "%s waiting queue full (%d)" % (self.name, len(self.waiting))))
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
        spare = self._tokens - len(self.waiting)
        weights = self.tenant_weights
        if weights:
            total = self._weight_total
            weight = weights.get(tenant, 1.0)
            spare = int(spare * weight / max(total, weight))
        return max(retiring_cost + spare, 0)

    def set_tenant_weight(self, tenant: str, weight: float) -> None:
        """Register a tenant's share of the spare token pool (§3.5)."""
        self.tenant_weights[tenant] = weight
        self._weight_total = sum(self.tenant_weights.values())

    # -- execution loop -----------------------------------------------------------------

    def _run(self):
        while True:
            batch = [(yield self.waiting.get())]
            while len(batch) < self.admission_batch:
                extra = self.waiting.try_get()
                if extra is None:
                    break
                batch.append(extra)
            self._admitting += len(batch)
            for command in batch:
                yield from self._admit_one(command)
                self.sim.process(self._execute(command),
                                 name=self.name + ".exec")

    def _admit_one(self, command: KVCommand):
        """Generator: wait for tokens and move ``command`` to active."""
        if command.queue_span is not None:
            command.queue_span.finish()
            command.queue_span = None
        # Wait for tokens (the active queue's serving capability).
        token_ctx = None
        if command.trace is not None and self._tokens < command.token_cost:
            token_ctx = command.trace.child(
                "engine.tokens", cat="engine",
                args={"cost": command.token_cost})
        while self._tokens < command.token_cost:
            yield self._token_released()
        if token_ctx is not None:
            token_ctx.finish()
        self._tokens -= command.token_cost
        command.started_at = self.sim.now
        self.stats.total_wait_us += command.started_at - command.enqueued_at
        self.active.add(command)
        self._admitting -= 1

    def _token_released(self) -> Event:
        event = Event(self.sim)
        self._release_waiters.append(event)
        return event

    #: Writes hitting a full log wait for compaction and retry (the
    #: paper: "PUTs would be served slowly if the new log entry
    #: generation speed cannot catch up") — up to this many times.
    STORE_FULL_RETRIES = 20
    STORE_FULL_BACKOFF_US = 150.0

    def _invoke(self, command: KVCommand, trace):
        """The store-call generator for one command.

        Only stores that declare ``TRACE_AWARE`` receive the trace
        kwarg — baseline stores (FAWN, KVell) keep their plain
        signatures and simply run untraced below the engine spans.
        """
        kwargs = {}
        if trace is not None:
            kwargs["trace"] = trace
        if command.op == "get":
            return self.store.get(command.key, **kwargs)
        if command.op == "put":
            return self.store.put(command.key, command.value, **kwargs)
        if command.op == "del":
            return self.store.delete(command.key, **kwargs)
        raise ValueError("unknown op %r" % command.op)

    def _execute(self, command: KVCommand):
        exec_ctx = None
        trace = None
        if command.trace is not None:
            exec_ctx = command.trace.child("engine.exec." + command.op,
                                           cat="engine")
            if getattr(self.store, "TRACE_AWARE", False):
                trace = exec_ctx
        try:
            if command.op == "put":
                result = yield from self._invoke(command, trace)
                for _attempt in range(self.STORE_FULL_RETRIES):
                    if result.status != "store_full":
                        break
                    yield self.sim.timeout(self.STORE_FULL_BACKOFF_US)
                    result = yield from self._invoke(command, trace)
            else:
                result = yield from self._invoke(command, trace)
        except Exception as exc:  # surface store errors to the waiter
            if exec_ctx is not None:
                exec_ctx.finish({"error": type(exc).__name__})
            self._retire(command)
            if command.completion and not command.completion.triggered:
                command.completion.fail(exc)
            return
        if exec_ctx is not None:
            exec_ctx.finish({"status": result.status,
                             "nvme_accesses": result.nvme_accesses})
        self._complete(command, result)

    def _complete(self, command: KVCommand, result: OpResult) -> None:
        """Retire a finished command and hand its result to the waiter
        (also the completion callback of a fused GET)."""
        self._retire(command)
        self.stats.completed += 1
        self.stats.total_service_us += self.sim.now - command.started_at
        if command.completion and not command.completion.triggered:
            command.completion.succeed(result)

    def _retire(self, command: KVCommand) -> None:
        self.active.discard(command)
        self._tokens += command.token_cost
        # Wake only the head waiter (FCFS): firing every queued release
        # event per retirement was a thundering herd.
        waiters = self._release_waiters
        while waiters:
            event = waiters.popleft()
            if not event.triggered:
                event.succeed()
                break

    def __repr__(self):
        return "<PartitionIOEngine %s tokens=%d wait=%d active=%d>" % (
            self.name, self._tokens, len(self.waiting), len(self.active))


class OverloadError(Exception):
    """A command was rejected because the waiting queue was full."""
