"""RPC over the simulated fabric (§3.5).

LEED's cross-node messages use a hybrid of RDMA verbs, and this
endpoint's API keeps the split:

* :meth:`RpcEndpoint.call`, :meth:`~RpcEndpoint.forward` and
  :meth:`~RpcEndpoint.notify` are two-sided ``SEND`` messages: the
  command (or one-way message) is dispatched at the target straight
  to the registered handler (a simulation generator — it may perform
  SSD I/O, forward along a chain, etc.);
* :meth:`RpcEndpoint.respond` is a one-sided ``WRITE``-with-IMM back
  to the request's ``reply_to`` address, matched there by the request
  id (the 32-bit immediate) without extra messages.

Each message is one envelope (:class:`RpcRequest`,
:class:`RpcResponse` or :class:`OneWay`) handed to
:meth:`~repro.net.topology.Network.transmit`; the receiving
endpoint's one delivery handler dispatches on its type.  Its wire
size is the body plus :data:`ENVELOPE_BYTES` plus
:data:`WIRE_OVERHEAD_BYTES`.
"""

from __future__ import annotations

import heapq
import itertools
from functools import partial
from typing import Any, Callable, Dict, Optional

from repro.net.topology import Network
from repro.sim.core import Simulator
from repro.sim.events import Continuation, Event
from repro.sim.record import Record


class RpcError(Exception):
    """Transport- or dispatch-level RPC failure."""


class RpcTimeout(RpcError):
    """A call did not complete within its deadline."""


class RpcRequest(Record):
    """Wire envelope for a request."""

    __slots__ = _FIELDS = ("request_id", "method", "body", "nbytes",
                           "reply_to")

    def __init__(self, request_id: int, method: str, body: Any, nbytes: int,
                 reply_to: str):
        self.request_id = request_id
        self.method = method
        self.body = body
        self.nbytes = nbytes
        self.reply_to = reply_to


class RpcResponse(Record):
    """Wire envelope for a response."""

    __slots__ = _FIELDS = ("request_id", "body", "nbytes")

    def __init__(self, request_id: int, body: Any, nbytes: int):
        self.request_id = request_id
        self.body = body
        self.nbytes = nbytes


class OneWay(Record):
    """Wire envelope for a notification (no response expected)."""

    __slots__ = _FIELDS = ("method", "body", "nbytes")

    def __init__(self, method: str, body: Any, nbytes: int):
        self.method = method
        self.body = body
        self.nbytes = nbytes


#: Fixed envelope overhead added to every request/response body.
ENVELOPE_BYTES = 32

#: Wire overhead per message: Ethernet + IP + UDP + RoCE BTH headers.
WIRE_OVERHEAD_BYTES = 58

Handler = Callable[[str, Any], Any]


def _close_span(ctx, then: Continuation, ok: bool, value: Any) -> None:
    """Close a call's ``rpc.<method>`` span, then continue."""
    ctx.finish()
    then(ok, value)


class RpcEndpoint:
    """A node's RPC runtime: client calls + server handler dispatch."""

    def __init__(self, sim: Simulator, network: Network, address: str):
        self.sim = sim
        self.network = network
        self.address = address
        self._handlers: Dict[str, Handler] = {}
        self._sync_handlers: Dict[str, Handler] = {}
        #: Outstanding calls: request id -> continuation.
        self._pending: Dict[int, Continuation] = {}
        self._request_ids = itertools.count(1)
        #: Call deadlines, earliest first: ``(deadline, request_id,
        #: dst, method, timeout_us)``.  A response only drops the call
        #: from ``_pending``; its entry here is skipped once it
        #: surfaces.  One timer is armed for the earliest live entry
        #: (``_timers`` holds the armed fire times — more than one only
        #: when a shorter timeout undercuts an armed deadline), so
        #: answered calls leave nothing on the simulator's heap.
        self._deadlines: list = []
        self._timers: list = []
        self.calls_sent = 0
        self.calls_served = 0
        self.notifications_sent = 0
        # Inbound requests dispatch straight from delivery and inbound
        # responses complete their pending call inline: no consumer
        # processes.
        network.nic(address).rx_handler = self._on_delivery

    # -- server side ---------------------------------------------------------------

    def respond(self, request: RpcRequest, body: Any, nbytes: int) -> None:
        """Answer ``request`` from this endpoint with a one-sided WRITE.

        Works for requests received here directly *and* for envelopes
        forwarded from other nodes: the reply address and request id
        travel with the request.
        """
        self.calls_served += 1
        self.network.transmit(
            self.address, request.reply_to,
            nbytes + ENVELOPE_BYTES + WIRE_OVERHEAD_BYTES,
            RpcResponse(request.request_id, body, nbytes))

    def forward(self, dst: str, request: RpcRequest, body: Any = None,
                nbytes: Optional[int] = None) -> None:
        """Re-post a received request envelope to another node.

        The reply address and request id are preserved, so the
        eventual responder answers the original caller directly —
        chain forwarding and CRRS request shipping both use this.
        """
        envelope = RpcRequest(request.request_id, request.method,
                              request.body if body is None else body,
                              request.nbytes if nbytes is None else nbytes,
                              request.reply_to)
        self.network.transmit(
            self.address, dst,
            envelope.nbytes + ENVELOPE_BYTES + WIRE_OVERHEAD_BYTES, envelope)

    def register_sync(self, method: str, handler) -> None:
        """Register a synchronous handler: invoked inline in the
        delivery event — no handler process — and must not yield.
        For a request it gets the full envelope, ``handler(src,
        request)``, and must arrange for *some* endpoint to call
        :meth:`respond` on it (from a callback or a process it starts)
        — possibly a different node, after the request was forwarded
        along a replication chain (§3.7's request shipping).  A one-way
        message comes as ``handler(src, body)``."""
        if method in self._handlers or method in self._sync_handlers:
            raise ValueError("handler for %r already registered" % method)
        self._sync_handlers[method] = handler

    def register(self, method: str, handler: Handler) -> None:
        """Register a generator-function handler for ``method``.

        The handler is invoked as ``handler(src_address, body)`` inside
        a new simulation process; its return value is either
        ``(response_body, response_nbytes)`` or ``None`` for one-way
        methods.
        """
        if method in self._handlers:
            raise ValueError("handler for %r already registered" % method)
        self._handlers[method] = handler

    def _on_delivery(self, src: str, envelope) -> None:
        """Dispatch one fabric delivery: a response completes its
        pending call, a request or one-way message goes to its
        handler."""
        kind = type(envelope)
        if kind is RpcResponse:
            then = self._pending.pop(envelope.request_id, None)
            if then is not None:
                body = envelope.body
                then(not isinstance(body, RpcError), body)
        elif kind is RpcRequest:
            sync = self._sync_handlers.get(envelope.method)
            if sync is not None:
                sync(src, envelope)
                return
            self.sim.process(
                self._serve(src, envelope),
                name="rpc-serve-%s@%s" % (envelope.method, self.address))
        elif kind is OneWay:
            sync = self._sync_handlers.get(envelope.method)
            if sync is not None:
                sync(src, envelope.body)
                return
            handler = self._handlers.get(envelope.method)
            if handler is not None:
                self.sim.process(
                    self._run(handler, src, envelope.body),
                    name="rpc-oneway-%s@%s" % (envelope.method, self.address))
        else:  # pragma: no cover - protocol guard
            raise RpcError("unexpected envelope %r" % (envelope,))

    def _run(self, handler: Handler, src: str, payload: Any):
        """Process body of a one-way handler."""
        result = handler(src, payload)
        if hasattr(result, "send"):
            yield from result
        else:
            yield self.sim.timeout(0)

    def _serve(self, src: str, request: RpcRequest):
        handler = self._handlers.get(request.method)
        if handler is None:
            response_body: Any = RpcError("no handler for %r at %s"
                                          % (request.method, self.address))
            response_nbytes = ENVELOPE_BYTES
        else:
            result = handler(src, request.body)
            if hasattr(result, "send"):
                outcome = yield from result
            else:
                outcome = result
                yield self.sim.timeout(0)
            if outcome is None:
                response_body, response_nbytes = None, 0
            else:
                response_body, response_nbytes = outcome
        self.respond(request, response_body, response_nbytes)

    # -- client side -----------------------------------------------------------------

    def call(self, dst: str, method: str, body: Any, nbytes: int,
             timeout_us: Optional[float] = None,
             then: Optional[Continuation] = None) -> Optional[Event]:
        """Issue a request; returns an event yielding the response body.

        When ``timeout_us`` is given the call fails with
        :class:`RpcTimeout` if no response arrives in time (needed for
        failure handling — a partitioned node never answers).

        With ``then`` no event is made: the outcome goes to
        ``then(ok, value)`` (:data:`Continuation`) inside the dispatch
        that delivers the response or fires the deadline, and the call
        returns None.  The event is that same continuation settling
        it, so a process yielding it resumes one event later.

        Tracing: when ``body`` carries a trace context (duck-typed —
        this layer never imports :mod:`repro.obs`), a ``rpc.<method>``
        child span opens here and closes when the call settles, on
        the success *and* the timeout path alike; server-side spans
        nest under it because the child context replaces ``body.trace``
        before the envelope is posted.
        """
        request_id = next(self._request_ids)
        waiter = None
        if then is None:
            waiter = Event(self.sim)
            then = waiter.settle
        parent = getattr(body, "trace", None)
        if parent is not None:
            net_ctx = parent.child("rpc." + method, cat="net",
                                   args={"dst": dst, "nbytes": nbytes})
            body.trace = net_ctx
            then = partial(_close_span, net_ctx, then)
        self._pending[request_id] = then
        self.calls_sent += 1
        self.network.transmit(
            self.address, dst, nbytes + ENVELOPE_BYTES + WIRE_OVERHEAD_BYTES,
            RpcRequest(request_id, method, body, nbytes, self.address))
        if timeout_us is not None:
            heapq.heappush(self._deadlines, (self.sim.now + timeout_us,
                                             request_id, dst, method,
                                             timeout_us))
            self._arm_deadline_timer()
        return waiter

    def _arm_deadline_timer(self) -> None:
        """Keep a timer armed at the earliest live deadline."""
        deadlines = self._deadlines
        pending = self._pending
        while deadlines and deadlines[0][1] not in pending:
            heapq.heappop(deadlines)
        if deadlines and (not self._timers
                          or deadlines[0][0] < self._timers[0]):
            heapq.heappush(self._timers, deadlines[0][0])
            self.sim.schedule_at(deadlines[0][0], self._on_deadline)

    def _on_deadline(self) -> None:
        heapq.heappop(self._timers)
        now = self.sim.now
        deadlines = self._deadlines
        while deadlines and deadlines[0][0] <= now:
            _deadline, request_id, dst, method, timeout_us = heapq.heappop(
                deadlines)
            then = self._pending.pop(request_id, None)
            if then is not None:
                then(False, RpcTimeout(
                    "%s->%s %s timed out after %gus"
                    % (self.address, dst, method, timeout_us)))
        self._arm_deadline_timer()

    def notify(self, dst: str, method: str, body: Any, nbytes: int) -> None:
        """One-way message; fire-and-forget."""
        self.notifications_sent += 1
        self.network.transmit(
            self.address, dst, nbytes + ENVELOPE_BYTES + WIRE_OVERHEAD_BYTES,
            OneWay(method, body, nbytes))

    def __repr__(self):
        return "<RpcEndpoint %s sent=%d served=%d>" % (
            self.address, self.calls_sent, self.calls_served)
