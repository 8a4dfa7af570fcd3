"""RPC over the simulated fabric (§3.5).

LEED's cross-node messages use a hybrid of RDMA verbs, and this
endpoint's API keeps the split:

* :meth:`RpcEndpoint.call`, :meth:`~RpcEndpoint.forward` and
  :meth:`~RpcEndpoint.notify` are two-sided ``SEND`` messages: the
  command (or one-way message) is handled at the target inside the
  dispatch that delivers it, as in SPDK's reactor poll (a generator
  handler may perform SSD I/O, forward along a chain, etc.);
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
from typing import Any, Callable, Dict, Optional, Tuple

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


def _wake(waiter: Event, ok: bool, value: Any) -> None:
    """The continuation of an event-form :meth:`RpcEndpoint.call`."""
    if ok:
        waiter.succeed_inline(value)
    else:
        waiter.fail(value)


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
        #: method -> ``(handler, raw)``: ``raw`` for a
        #: :meth:`register_sync` handler, which gets the envelope.
        self._handlers: Dict[str, Tuple[Handler, bool]] = {}
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
        # Inbound messages reach their handler and inbound responses
        # complete their pending call inside the delivery: no consumer
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

    def register(self, method: str, handler: Handler) -> None:
        """Register ``handler(src_address, body)`` for ``method``,
        called inside the dispatch that delivers the message.  It
        answers ``(response_body, response_nbytes)`` or ``None``: a
        plain function at once, a generator function (started there
        with :meth:`~repro.sim.core.Simulator.process_inline`) when it
        returns.  A one-way message's answer is dropped."""
        self._add(method, handler, False)

    def register_sync(self, method: str, handler) -> None:
        """Register a request handler that answers for itself:
        ``handler(src, request)`` gets the full envelope inside the
        delivery dispatch, must not yield, and must arrange for *some*
        endpoint to call :meth:`respond` on it (from a callback or a
        process it starts) — possibly a different node, after the
        request was forwarded along a replication chain (§3.7's
        request shipping)."""
        self._add(method, handler, True)

    def _add(self, method: str, handler, raw: bool) -> None:
        if method in self._handlers:
            raise ValueError("handler for %r already registered" % method)
        self._handlers[method] = (handler, raw)

    def _on_delivery(self, src: str, envelope) -> None:
        """Dispatch one fabric delivery: a response completes its
        pending call, a request or one-way message runs its handler."""
        kind = type(envelope)
        if kind is RpcResponse:
            then = self._pending.pop(envelope.request_id, None)
            if then is not None:
                body = envelope.body
                then(not isinstance(body, RpcError), body)
            return
        entry = self._handlers.get(envelope.method)
        if entry is None:
            if kind is RpcRequest:
                self.respond(envelope, RpcError(
                    "no handler for %r at %s" % (envelope.method,
                                                 self.address)),
                    ENVELOPE_BYTES)
            return
        handler, raw = entry
        if raw:
            handler(src, envelope)
            return
        outcome = handler(src, envelope.body)
        if outcome is not None and hasattr(outcome, "send"):
            self.sim.process_inline(
                self._finish(envelope, outcome),
                name="rpc-%s@%s" % (envelope.method, self.address))
        elif kind is RpcRequest:
            self._answer(envelope, outcome)

    def _finish(self, envelope, handler_run):
        """Process body of a generator handler: answer a request with
        its return value."""
        outcome = yield from handler_run
        if type(envelope) is RpcRequest:
            self._answer(envelope, outcome)

    def _answer(self, request: RpcRequest, outcome) -> None:
        if outcome is None:
            self.respond(request, None, 0)
        else:
            self.respond(request, *outcome)

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
        returns None.  The event is that same continuation: a process
        yielding it resumes inside the response's dispatch
        (:meth:`~repro.sim.events.Event.succeed_inline`); a failure is
        thrown in one event later.

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
            then = partial(_wake, waiter)
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
