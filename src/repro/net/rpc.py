"""An RPC layer over the RDMA verbs (§3.5).

Request path: the client posts a two-sided SEND carrying the command
plus the rkey of a pre-allocated response buffer.  The server's
endpoint dispatches the arriving SEND straight to the registered
handler (a simulation generator — it may perform SSD I/O, forward
along a chain, etc.), and answers with a one-sided WRITE-with-IMM into
the client's response buffer, using the request id as the 32-bit
immediate so the client matches responses without extra messages.

Also provides ``notify`` (one-way, no response) for chain forwarding,
acknowledgments and heartbeats.
"""

from __future__ import annotations

import heapq
import itertools
from functools import partial
from typing import Any, Callable, Dict, Optional

from repro.net.rdma import QueuePair, SendCompletion
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
                           "reply_to", "rkey")

    def __init__(self, request_id: int, method: str, body: Any, nbytes: int,
                 reply_to: str, rkey: int):
        self.request_id = request_id
        self.method = method
        self.body = body
        self.nbytes = nbytes
        self.reply_to = reply_to
        self.rkey = rkey


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

Handler = Callable[[str, Any], Any]


def _close_span(ctx, then: Continuation, ok: bool, value: Any) -> None:
    """Close a call's ``rpc.<method>`` span, then continue."""
    ctx.finish()
    then(ok, value)


class RpcEndpoint:
    """A node's RPC runtime: client calls + server handler dispatch."""

    def __init__(self, sim: Simulator, network: Network, address: str):
        self.sim = sim
        self.address = address
        self.qp = QueuePair(sim, network, address)
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
        self._response_region = self.qp.register_region(size=1 << 20)
        self.calls_sent = 0
        self.calls_served = 0
        self.notifications_sent = 0
        # Inbound SENDs dispatch straight from delivery and inbound
        # response WRITEs complete their pending call inline: no CQ
        # consumer processes.
        self.qp.recv_handler = self._on_request_delivery
        self.qp.write_handler = self._on_response_delivery

    # -- server side ---------------------------------------------------------------

    def respond(self, request: RpcRequest, body: Any, nbytes: int) -> None:
        """Answer ``request`` from this endpoint with a one-sided WRITE.

        Works for requests received here directly *and* for envelopes
        forwarded from other nodes: the reply address and rkey travel
        with the request.
        """
        response = RpcResponse(request.request_id, body, nbytes)
        self.calls_served += 1
        self.qp.post_write_imm(request.reply_to, request.rkey, response,
                               nbytes + ENVELOPE_BYTES,
                               imm=request.request_id)

    def forward(self, dst: str, request: RpcRequest, body: Any = None,
                nbytes: Optional[int] = None) -> None:
        """Re-post a received request envelope to another node.

        The reply address, rkey and request id are preserved, so the
        eventual responder answers the original caller directly —
        chain forwarding and CRRS request shipping both use this.
        """
        envelope = RpcRequest(request.request_id, request.method,
                              request.body if body is None else body,
                              request.nbytes if nbytes is None else nbytes,
                              request.reply_to, request.rkey)
        self.qp.post_send(dst, envelope, envelope.nbytes + ENVELOPE_BYTES)

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

    def _on_request_delivery(self, completion: SendCompletion) -> None:
        src = completion.src
        envelope = completion.payload
        kind = type(envelope)
        if kind is RpcRequest:
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
        self.calls_served += 1
        response = RpcResponse(request.request_id, response_body,
                               response_nbytes)
        self.qp.post_write_imm(request.reply_to, request.rkey, response,
                               response_nbytes + ENVELOPE_BYTES,
                               imm=request.request_id)

    # -- client side -----------------------------------------------------------------

    def _on_response_delivery(self, completion) -> None:
        response: RpcResponse = completion.payload
        then = self._pending.pop(completion.imm, None)
        if then is not None:
            body = response.body
            then(not isinstance(body, RpcError), body)

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
        request = RpcRequest(request_id, method, body,
                             nbytes, self.address, self._response_region.key)
        self.calls_sent += 1
        self.qp.post_send(dst, request, nbytes + ENVELOPE_BYTES)
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
        self.qp.post_send(dst, OneWay(method, body, nbytes),
                          nbytes + ENVELOPE_BYTES)

    def __repr__(self):
        return "<RpcEndpoint %s sent=%d served=%d>" % (
            self.address, self.calls_sent, self.calls_served)
