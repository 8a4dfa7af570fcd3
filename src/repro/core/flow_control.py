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


@dataclass
class TargetView:
    """Client-side view of one target partition's serving capability."""

    tokens: int = 4          # optimistic initial allowance
    outstanding: int = 0
    last_update_us: float = 0.0


@dataclass
class PendingRequest:
    """One request waiting in a tenant's front-end queue."""

    target: str
    token_cost: int
    send: Callable[[], None]
    enqueued_at: float = 0.0


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
        if target not in self.targets:
            self.targets[target] = TargetView(last_update_us=self.sim.now)
        return self.targets[target]

    def on_response(self, target: str, allocated_tokens: int) -> None:
        """Fold a piggybacked allocation into the local view."""
        view = self.view(target)
        view.tokens = max(allocated_tokens, 0)
        view.last_update_us = self.sim.now
        self._wake()

    def on_complete(self, target: str) -> None:
        """A request to ``target`` retired."""
        view = self.view(target)
        view.outstanding = max(view.outstanding - 1, 0)
        self._wake()

    # -- request intake --------------------------------------------------------------

    def enqueue(self, tenant: str, request: PendingRequest) -> None:
        """Queue ``request`` for scheduling on behalf of ``tenant``."""
        request.enqueued_at = self.sim.now
        if not self.enabled:
            self._submit(request)
            return
        if tenant not in self._tenant_queues:
            self._tenant_queues[tenant] = deque()
            self._tenant_order.append(tenant)
        self._tenant_queues[tenant].append(request)
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
        self.stats.rounds += 1
        progressed = True
        while progressed:
            progressed = False
            for _ in range(len(self._tenant_order)):
                tenant = self._tenant_order[self._rr_index % max(
                    len(self._tenant_order), 1)]
                self._rr_index += 1
                queue = self._tenant_queues.get(tenant)
                if not queue:
                    continue
                request = queue[0]
                view = self.view(request.target)
                if request.token_cost <= view.tokens:          # Alg.1 L5-7
                    queue.popleft()
                    self._queued_count -= 1
                    view.tokens -= request.token_cost
                    self._submit(request)
                    progressed = True
                elif view.outstanding < 1:                      # Alg.1 L9-13
                    queue.popleft()
                    self._queued_count -= 1
                    view.tokens = 0
                    self.stats.nagle_probes += 1
                    self._submit(request)
                    progressed = True
                else:
                    self.stats.deferred += 1

    def _submit(self, request: PendingRequest) -> None:
        view = self.view(request.target)
        view.outstanding += 1
        self.stats.submitted += 1
        self.stats.queue_wait.record(self.sim.now - request.enqueued_at)
        request.send()

    def __repr__(self):
        return "<FlowController %s queued=%d targets=%d>" % (
            self.name, self.queued(), len(self.targets))
