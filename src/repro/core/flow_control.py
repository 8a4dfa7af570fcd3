"""Inter-JBOF scheduler based on end-to-end flow control (§3.5, Alg. 1).

The front-end keeps, per target partition, its latest view of that
partition's token allocation (piggybacked on every response) and the
number of outstanding commands.  A scheduling round walks the active
tenants round-robin and submits a tenant's next request only when

* the target offers enough tokens (Alg. 1 L5-7), or
* there are no outstanding commands to that target (L9-13) — the
  Nagle-style probe that keeps the pipe from deadlocking when the
  client's token view went stale.

Token views are updated on every successful submit (spend) and on
every response (piggybacked allocation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.obs.hist import LatencyHistogram
from repro.sim.core import Simulator
from repro.sim.record import Record


class TargetView(Record):
    """Client-side view of one target partition's serving capability."""

    __slots__ = _FIELDS = ("tokens", "outstanding", "last_update_us")

    def __init__(self, tokens: int = 4, outstanding: int = 0,
                 last_update_us: float = 0.0):
        self.tokens = tokens         # optimistic initial allowance
        self.outstanding = outstanding
        self.last_update_us = last_update_us


class PendingRequest(Record):
    """One request waiting in a tenant's front-end queue."""

    __slots__ = _FIELDS = ("target", "token_cost", "send", "enqueued_at")

    def __init__(self, target: str, token_cost: int,
                 send: Callable[[], None], enqueued_at: float = 0.0):
        self.target = target
        self.token_cost = token_cost
        self.send = send
        self.enqueued_at = enqueued_at


@dataclass
class FlowStats:
    """Cumulative flow-controller statistics."""

    submitted: int = 0
    deferred: int = 0
    nagle_probes: int = 0
    rounds: int = 0
    #: Time requests spend in the front-end tenant queues before the
    #: scheduler clears them (zero when flow control is disabled).
    queue_wait: LatencyHistogram = field(default_factory=LatencyHistogram)


class FlowController:
    """Client-side load-aware scheduler (one per front-end library).

    Users enqueue requests with :meth:`enqueue`; the ``send`` callback
    fires when the scheduler clears the request for submission.  Call
    :meth:`on_response` whenever a response carrying a piggybacked
    token allocation arrives, and :meth:`on_complete` when a request
    retires.

    With ``enabled=False`` every request is submitted immediately —
    the ablation baseline of Fig. 8.
    """

    def __init__(self, sim: Simulator, enabled: bool = True,
                 name: str = "flowctl"):
        self.sim = sim
        self.enabled = enabled
        self.name = name
        self.targets: Dict[str, TargetView] = {}
        self._tenant_queues: Dict[str, Deque[PendingRequest]] = {}
        self._tenant_order: List[str] = []
        self._rr_index = 0
        self.stats = FlowStats()
        #: Set while a round runs: a ``send`` callback that re-enters
        #: :meth:`_wake` must not nest a second round inside it.
        self._in_round = False
        self._queued_count = 0

    # -- target state ------------------------------------------------------------

    def view(self, target: str) -> TargetView:
        """This client's (possibly stale) view of one partition."""
        view = self.targets.get(target)
        if view is None:
            view = self.targets[target] = TargetView(
                last_update_us=self.sim.now)
        return view

    def on_response(self, target: str, allocated_tokens: int) -> None:
        """Fold a piggybacked allocation into the local view."""
        view = self.view(target)
        view.tokens = allocated_tokens if allocated_tokens >= 0 else 0
        view.last_update_us = self.sim.now
        if self._queued_count:
            self._wake()

    def on_complete(self, target: str) -> None:
        """A request to ``target`` retired."""
        view = self.view(target)
        view.outstanding = view.outstanding - 1 if view.outstanding > 1 else 0
        if self._queued_count:
            self._wake()

    # -- request intake --------------------------------------------------------------

    def enqueue(self, tenant: str, request: PendingRequest) -> None:
        """Queue ``request`` for scheduling on behalf of ``tenant``."""
        request.enqueued_at = self.sim.now
        if not self.enabled:
            self._submit(request, self.view(request.target))
            return
        queue = self._tenant_queues.get(tenant)
        if queue is None:
            queue = self._tenant_queues[tenant] = deque()
            self._tenant_order.append(tenant)
        queue.append(request)
        self._queued_count += 1
        self._wake()

    def queued(self) -> int:
        """Requests still waiting in the front-end tenant queues."""
        return self._queued_count

    # -- scheduling loop (Algorithm 1) -------------------------------------------------

    def _wake(self) -> None:
        """Run a scheduling round in the caller's frame — there is no
        scheduler process.  Nothing queued: nothing a round could
        submit."""
        if self.enabled and not self._in_round and self._queued_count:
            self._in_round = True
            try:
                self._schedule_round()
            finally:
                self._in_round = False

    def _schedule_round(self) -> None:
        stats = self.stats
        stats.rounds += 1
        order = self._tenant_order
        queues = self._tenant_queues
        targets = self.targets
        # A ``send`` callback may enqueue for a new tenant mid-round:
        # a pass keeps the length it started with, the modulus follows
        # the list (re-measured after every submit).
        size = len(order)
        progressed = True
        while progressed:
            progressed = False
            for _ in range(size):
                tenant = order[self._rr_index % size]
                self._rr_index += 1
                queue = queues.get(tenant)
                if not queue:
                    continue
                request = queue[0]
                view = targets.get(request.target)
                if view is None:
                    view = self.view(request.target)
                if request.token_cost <= view.tokens:          # Alg.1 L5-7
                    queue.popleft()
                    self._queued_count -= 1
                    view.tokens -= request.token_cost
                    self._submit(request, view)
                    size = len(order)
                    progressed = True
                elif view.outstanding < 1:                      # Alg.1 L9-13
                    queue.popleft()
                    self._queued_count -= 1
                    view.tokens = 0
                    stats.nagle_probes += 1
                    self._submit(request, view)
                    size = len(order)
                    progressed = True
                else:
                    stats.deferred += 1

    def _submit(self, request: PendingRequest, view: TargetView) -> None:
        view.outstanding += 1
        self.stats.submitted += 1
        self.stats.queue_wait.record(self.sim.now - request.enqueued_at)
        request.send()

    def __repr__(self):
        return "<FlowController %s queued=%d targets=%d>" % (
            self.name, self.queued(), len(self.targets))
