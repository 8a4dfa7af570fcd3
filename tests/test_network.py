"""Tests for the fabric and the RPC layer."""

import functools
import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.rpc import (ENVELOPE_BYTES, WIRE_OVERHEAD_BYTES, OneWay,
                           RpcEndpoint, RpcError, RpcRequest, RpcResponse,
                           RpcTimeout)
from repro.net.topology import (NIC_1G, NIC_1G_USB, NIC_100G, Network,
                                NicProfile, SwitchProfile)
from repro.sim.core import DELIVERY_PRIORITY, Simulator

from conftest import drive


@pytest.fixture
def net(sim):
    network = Network(sim)
    network.attach("a")
    network.attach("b")
    return network


def listen(nic):
    """Install an ``rx_handler`` on a bare NIC; returns the arrival
    list of ``(time, payload)``."""
    arrivals = []
    nic.rx_handler = (
        lambda _src, payload: arrivals.append((nic.sim.now, payload)))
    return arrivals


def payloads(arrivals):
    return [payload for _when, payload in arrivals]


class TestFabric:
    def test_delivery(self, sim, net):
        received = listen(net.nic("b"))
        net.transmit("a", "b", 100, "hello")
        sim.run()
        assert payloads(received) == ["hello"]
        assert net.messages_delivered == 1

    def test_in_order_per_pair(self, sim, net):
        received = listen(net.nic("b"))
        for index in range(5):
            net.transmit("a", "b", 1000, index)
        sim.run()
        assert payloads(received) == [0, 1, 2, 3, 4]

    def test_latency_scales_with_size(self, sim, net):
        at_a, at_b = listen(net.nic("a")), listen(net.nic("b"))
        net.transmit("a", "b", 64, "small")
        net.transmit("b", "a", 64 * 1024, "large")  # both ports idle
        sim.run()
        assert at_a[0][0] > at_b[0][0]

    def test_serialization_paces_sender(self, sim, net):
        # Two 125000-byte messages at 12.5 GB/s: second is delayed by
        # the first's 10us serialization.
        net.transmit("a", "b", 125000, 1)
        net.transmit("a", "b", 125000, 2)
        sim.run()
        # Both delivered, and time includes 2x serialization.
        assert sim.now >= 2 * 125000 / NIC_100G.bandwidth_bpus

    def test_partition_drops_traffic(self, sim, net):
        received = listen(net.nic("b"))
        net.partition("b")
        net.transmit("a", "b", 10, "lost")
        sim.run()
        assert received == []
        net.heal("b")
        net.transmit("a", "b", 10, "found")
        sim.run()
        assert payloads(received) == ["found"]

    def test_partition_mid_flight(self, sim, net):
        received = listen(net.nic("b"))
        net.transmit("a", "b", 10, "doomed")
        net.partition("b")  # dies before delivery
        sim.run()
        assert received == []

    def test_unknown_endpoint_rejected(self, sim, net):
        with pytest.raises(KeyError):
            net.transmit("a", "nowhere", 1, "x")

    def test_duplicate_attach_rejected(self, sim, net):
        with pytest.raises(ValueError):
            net.attach("a")

    def test_slow_nic_profile(self, sim):
        network = Network(sim)
        network.attach("pi", NIC_1G_USB)
        slow = listen(network.attach("host"))
        network.transmit("pi", "host", 1500, "slow")
        network2 = Network(sim)
        network2.attach("fast1")
        fast = listen(network2.attach("fast2"))
        network2.transmit("fast1", "fast2", 1500, "fast")
        sim.run()
        assert slow[0][0] > 10 * fast[0][0]


class TestDeliveryOrder:
    """Deliveries ride the simulator heap, and every record due at one
    instant lands in one dispatch: the landing order is what every
    committed schedule and figure digest was taken under, and these
    pin it directly."""

    @staticmethod
    def _fabric(sim):
        """Two senders, two receivers, one shared arrival log."""
        network = Network(sim)
        log = []
        for address in ("s1", "s2", "r1", "r2"):
            nic = network.attach(address)
            nic.rx_handler = (
                lambda _src, payload, dst=address: log.append((dst, payload)))
        return network, log

    @pytest.mark.parametrize("sends, expected", [
        # dst sorts before src ...
        ([("s1", "r2"), ("s2", "r1")], [("r1", "s2"), ("r2", "s1")]),
        # ... and src breaks a dst tie.
        ([("s1", "r1"), ("s2", "r1")], [("r1", "s1"), ("r1", "s2")]),
    ])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_same_instant_records_drain_in_record_order(
            self, sim, sends, expected, reverse):
        network, log = self._fabric(sim)
        for src, dst in (reversed(sends) if reverse else sends):
            network.transmit(src, dst, 256, src)
        # Equal sizes from idle ports: one arrival instant, one
        # dispatch; each message in flight is a schedule entry.
        assert sim.pending_events == 2
        sim.run()
        assert log == expected
        assert sim.events_dispatched == 1

    def test_earlier_record_lands_first(self, sim):
        network, _log = self._fabric(sim)
        arrivals = []
        network.nic("r1").rx_handler = (
            lambda _src, payload: arrivals.append((sim.now, payload)))
        network.transmit("s1", "r1", 64_000, "big")
        network.transmit("s2", "r1", 64, "small")
        assert sim.pending_events == 2
        sim.run()
        assert [payload for _when, payload in arrivals] == ["small", "big"]
        assert arrivals[0][0] < arrivals[1][0]
        assert sim.events_dispatched == 2

    @pytest.mark.parametrize("digest", [False, True])
    def test_a_batch_is_one_dispatch_after_the_instants_normal_events(
            self, sim, digest):
        if digest:
            sim.enable_schedule_digest()
        network, _log = self._fabric(sim)
        order = []
        for address in ("r1", "r2"):
            network.nic(address).rx_handler = (
                lambda src, payload, dst=address:
                order.append((dst, src, payload)))
        network.attach("s3")
        # Transmit order is not record order.
        network.transmit("s3", "r2", 256, "a")
        network.transmit("s2", "r1", 256, "b")
        network.transmit("s1", "r2", 256, "c")
        # A big message and the small one behind it, clamped to land
        # with it (the sender's seq breaks their tie), and two more
        # big ones from idle ports, landing at the same instant.
        network.transmit("s3", "r1", 64_000, "d")
        network.transmit("s3", "r1", 1, "e")
        network.transmit("s2", "r2", 64_000, "f")
        network.transmit("s1", "r1", 64_000, "g")
        when = network.nic("s3")._pair_last["r1"]
        sim.timeout_at(when).callbacks.append(
            lambda _event: order.append("normal"))
        sim.run()
        assert order == [("r1", "s2", "b"), ("r2", "s1", "c"),
                         ("r2", "s3", "a"), "normal", ("r1", "s1", "g"),
                         ("r1", "s3", "d"), ("r1", "s3", "e"),
                         ("r2", "s2", "f")]
        # Two batches and the timeout.
        assert sim.events_dispatched == 3 and sim.now == when
        if digest:
            assert sim.schedule_digest_events == 3

    @pytest.mark.parametrize("digest", [False, True])
    def test_an_inline_settle_resumes_after_the_batchs_last_record(
            self, sim, digest):
        if digest:
            sim.enable_schedule_digest()
        network, log = self._fabric(sim)
        waiter = sim.event()

        def wait():
            yield waiter
            log.append(("resumed", sim.now))

        sim.process(wait())
        sim.run(until=0.1)              # the process waits on ``waiter``
        first = network.nic("r1").rx_handler

        def settle(src, payload):
            first(src, payload)
            waiter.succeed_inline()

        network.nic("r1").rx_handler = settle
        network.attach("s3")
        for src, dst in (("s1", "r1"), ("s2", "r2"), ("s3", "r2")):
            network.transmit(src, dst, 256, src)
        sim.run()
        assert log == [("r1", "s1"), ("r2", "s2"), ("r2", "s3"),
                       ("resumed", sim.now)]
        # The process's start and the batch: the resume has no
        # dispatch of its own.
        assert sim.events_dispatched == 2

    def test_a_reply_inside_a_batch_arms_no_empty_dispatch(self, sim):
        """Two same-instant requests to one node, the first answered in
        the batch: one dispatch lands both requests, one the reply.  A
        drain queue re-armed its drain for the second, still queued
        request and spent a third dispatch landing nothing."""
        network, log = self._fabric(sim)
        replied = []

        def answer(src, payload):
            log.append(("r1", payload))
            if not replied:
                replied.append(src)
                network.transmit("r1", src, 64, "reply")

        network.nic("r1").rx_handler = answer
        network.transmit("s1", "r1", 256, "first")
        network.transmit("s2", "r1", 256, "second")
        sim.run()
        assert log == [("r1", "first"), ("r1", "second"), ("s1", "reply")]
        assert sim.events_dispatched == 2


class ReferencePump:
    """The fabric's delivery queue before deliveries rode the simulator
    heap: an inbox heap of ``(deliver_at, dst, src, seq, wire,
    payload)`` records and one drain per earliest head time, which
    lands every record due at its instant through
    ``ReferenceNetwork.deliver``.  Its drains are armed at the exact
    head time (the original's ``now + (head - now)`` could land one ulp
    late) and posted as delivery records that sort before every
    address, so a drain runs after its instant's normal events."""

    def __init__(self, sim, network):
        self.sim = sim
        self.network = network
        self._inbox = []
        self._drains = []
        self._drain_ids = itertools.count()

    def insert(self, record):
        if record[0] < self.sim.now:
            raise ValueError("delivery in the past")
        heapq.heappush(self._inbox, record)
        head = self._inbox[0][0]
        if not self._drains or head < self._drains[0]:
            self._arm(head)

    def _arm(self, head):
        heapq.heappush(self._drains, head)
        self.sim.post_delivery((head, DELIVERY_PRIORITY, "", "",
                                next(self._drain_ids), 0, None, self._drain))

    def _drain(self, _record):
        heapq.heappop(self._drains)
        now = self.sim.now
        inbox = self._inbox
        while inbox and inbox[0][0] <= now:
            self.network.deliver(heapq.heappop(inbox))
        if inbox and (not self._drains or inbox[0][0] < self._drains[0]):
            self._arm(inbox[0][0])


class ReferenceNetwork(Network):
    """The fabric hop as it was before ``transmit`` took over pacing,
    the in-order clamp and the landing: ``Nic.serialize_tx`` +
    ``Nic.order_delivery`` + the drain queue, and ``Network.deliver``."""

    def __init__(self, sim, switch=None):
        super().__init__(sim, switch)
        self._queue = ReferencePump(sim, self)
        self.clamped = 0

    def serialize_tx(self, nic, nbytes):
        duration = nbytes / nic.profile.bandwidth_bpus
        start = max(self.sim.now, nic._tx_free_at)
        nic._tx_free_at = start + duration
        nic.tx_bytes += nbytes
        nic.tx_messages += 1
        return nic._tx_free_at

    def order_delivery(self, nic, dst, deliver_at):
        last = nic._pair_last.get(dst)
        if last is not None and deliver_at < last:
            deliver_at = last
            self.clamped += 1
        nic._pair_last[dst] = deliver_at
        return deliver_at

    def transmit(self, src, dst, nbytes, payload):
        if src not in self._nics or dst not in self._nics:
            raise KeyError("unknown endpoint in %r -> %r" % (src, dst))
        if src in self._partitioned:
            return
        sender = self._nics[src]
        receiver = self._nics[dst]
        wire = max(nbytes, 1)
        tx_done = self.serialize_tx(sender, wire)
        deliver_at = self.order_delivery(
            sender, dst, tx_done + sender.profile.base_latency_us
            + self.switch.hop_latency_us
            + wire / receiver.profile.bandwidth_bpus)
        self._queue.insert(
            (deliver_at, dst, src, sender.tx_messages, wire, payload))

    def deliver(self, record):
        _deliver_at, dst, src, _seq, wire, payload = record
        if src in self._partitioned or dst in self._partitioned:
            return
        receiver = self._nics[dst]
        receiver.rx_bytes += wire
        receiver.rx_messages += 1
        self.messages_delivered += 1
        if receiver.rx_handler is not None:
            receiver.rx_handler(src, payload)


#: A port with no wire delay: behind a zero-hop switch, what it sends
#: lands at the instant it is sent, inside a batch when sent from one.
NIC_NEAR = NicProfile("near", bandwidth_bpus=float("inf"),
                      base_latency_us=0.0)
_PORTS = {"fast": NIC_100G, "gig": NIC_1G, "usb": NIC_1G_USB,
          "deaf": NIC_100G, "near": NIC_NEAR, "next": NIC_NEAR}
_port = st.sampled_from(sorted(_PORTS))
_fabric_ops = st.lists(st.one_of(
    st.tuples(st.just("send"), _port, _port,
              st.sampled_from([0, 1, 64, 300, 1500, 4096, 64_000]),
              # Back-to-back, sub-serialization gaps, idle gaps.
              st.sampled_from([0.0, 0.0, 0.003, 0.7, 12.5, 400.0, 9000.0]),
              st.booleans()),           # does the receiver answer?
    st.tuples(st.sampled_from(["partition", "heal"]), _port)),
    min_size=1, max_size=60)


def _react(sim, network, log, address, src, payload):
    """A receiver: log the arrival; when asked, answer inside the
    delivery and react at zero delay and by an inline settle."""
    log.append((sim.now, "land", src, address, payload))
    number, answer = payload
    if not answer:
        return
    network.transmit(address, src, 64, (("re", number), False))
    sim.timeout(0.0).callbacks.append(
        lambda _event: log.append((sim.now, "zero", number)))
    settled = sim.event()
    settled.callbacks.append(
        lambda _event: log.append((sim.now, "inline", number)))
    settled.succeed_inline()


class TestTransmitMatchesReference:
    """``Network.transmit`` paces and clamps itself, and deliveries
    ride the simulator heap; arrivals and the reactions to them must
    be the reference drain queue's, in no more dispatches."""

    @staticmethod
    def _fabric(network_class, hop_us):
        sim = Simulator()
        network = network_class(sim, SwitchProfile(hop_latency_us=hop_us))
        log = []
        for address in sorted(_PORTS):
            nic = network.attach(address, _PORTS[address])
            if address != "deaf":       # a port nobody listens on
                nic.rx_handler = functools.partial(
                    _react, sim, network, log, address)
        return sim, network, log

    @staticmethod
    def _sender_state(network):
        return [(nic.address, nic.tx_bytes, nic.tx_messages, nic._tx_free_at,
                 nic._pair_last, nic.rx_bytes, nic.rx_messages)
                for nic in map(network.nic, sorted(_PORTS))]

    def _replay(self, ops, hop_us=0.5):
        new = self._fabric(Network, hop_us)
        ref = self._fabric(ReferenceNetwork, hop_us)
        for number, op in enumerate(ops):
            for sim, network, _log in (new, ref):
                if op[0] == "send":
                    _verb, src, dst, nbytes, gap, answer = op
                    sim.run(until=sim.now + gap)
                    network.transmit(src, dst, nbytes, (number, answer))
                else:
                    getattr(network, op[0])(op[1])
            assert new[2] == ref[2]
            assert self._sender_state(new[1]) == self._sender_state(ref[1])
        for sim, _network, _log in (new, ref):
            sim.run()
        assert new[2] == ref[2]
        assert self._sender_state(new[1]) == self._sender_state(ref[1])
        assert new[1].messages_delivered == ref[1].messages_delivered
        assert new[0].events_dispatched <= ref[0].events_dispatched
        assert new[0].now == ref[0].now
        return ref[1]

    @settings(max_examples=200, deadline=None)
    @given(ops=_fabric_ops, hop_us=st.sampled_from([0.0, 0.5]))
    def test_random_traffic(self, ops, hop_us):
        self._replay(ops, hop_us)

    def test_clamp_fires_on_mixed_profiles(self):
        # A small message out-serializes its big predecessor at the
        # slow receiver port: the pair clamp has to hold it back.
        reference = self._replay([
            ("send", "fast", "usb", 64_000, 0.0, False),
            ("send", "fast", "usb", 64, 0.0, False),
            ("send", "fast", "gig", 64_000, 5.0, False),
            ("send", "fast", "gig", 1, 0.0, False),
            ("send", "usb", "fast", 4096, 0.0, False)])
        assert reference.clamped == 2

    def test_partitioned_source_and_destination(self):
        self._replay([
            ("send", "fast", "gig", 300, 0.0, True),   # in flight when ...
            ("partition", "gig"),                      # ... its target dies
            ("send", "gig", "fast", 300, 0.0, True),   # dead cable
            ("send", "fast", "gig", 300, 1.0, True),
            ("heal", "gig"),
            ("send", "fast", "gig", 300, 0.0, True),   # lands after the heal
            ("partition", "fast"),
            ("send", "fast", "usb", 64, 0.0, True),
            ("heal", "fast"),
            ("send", "fast", "usb", 64, 200.0, True)])

    def test_answers_inside_a_same_instant_batch(self):
        # Zero-delay ports behind a zero-hop switch: each request's
        # answer lands in the batch that lands the request.
        self._replay([
            ("send", "near", "next", 64, 0.0, True),
            ("send", "next", "near", 64, 0.0, True),
            ("send", "fast", "next", 300, 0.0, True),
            ("send", "deaf", "next", 300, 0.0, True)], hop_us=0.0)

    def test_unknown_endpoint_is_a_key_error_before_any_state_moves(self):
        sim, network, _log = self._fabric(Network, 0.5)
        before = self._sender_state(network)
        for src, dst in (("fast", "nowhere"), ("nowhere", "fast")):
            with pytest.raises(KeyError, match="unknown endpoint"):
                network.transmit(src, dst, 64, "x")
        assert self._sender_state(network) == before
        assert sim.pending_events == 0


class TestSlottedWireRecords:
    """The per-message records are ``__slots__`` classes over
    ``repro.sim.record.Record``; everything observable is what the
    dataclasses gave."""

    def test_no_instance_dict(self):
        for record in (RpcRequest(1, "kv", "b", 2, "a"),
                       RpcResponse(1, "b", 2), OneWay("m", "b", 2)):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_equality_repr_and_hash(self):
        request = RpcRequest(1, "kv", {"k": 1}, 24, "client0")
        assert request == RpcRequest(1, "kv", {"k": 1}, 24, "client0")
        assert request != RpcRequest(2, "kv", {"k": 1}, 24, "client0")
        assert request != RpcResponse(1, {"k": 1}, 24)
        assert repr(request) == ("RpcRequest(request_id=1, method='kv', "
                                 "body={'k': 1}, nbytes=24, "
                                 "reply_to='client0')")
        assert repr(OneWay("hb", None, 8)) == (
            "OneWay(method='hb', body=None, nbytes=8)")
        assert repr(RpcResponse(7, b"x", 1)) == (
            "RpcResponse(request_id=7, body=b'x', nbytes=1)")
        assert OneWay("m", "p", 1) == OneWay("m", "p", 1)
        with pytest.raises(TypeError, match="unhashable"):
            hash(request)

    def test_positional_and_keyword_construction(self):
        assert (RpcResponse(request_id=4, body="b", nbytes=2)
                == RpcResponse(4, "b", 2))
        with pytest.raises(TypeError):
            RpcResponse(4, "b")     # no defaults on an envelope


class TestRpc:
    def test_round_trip(self, sim, net):
        client = RpcEndpoint(sim, net, "a")
        server = RpcEndpoint(sim, net, "b")

        def handler(src, body):
            yield sim.timeout(1)
            return body * 2, 8

        server.register("double", handler)

        def proc():
            result = yield client.call("b", "double", 21, 8)
            return result

        assert drive(sim, proc()) == 42

    def test_plain_function_handler(self, sim, net):
        client = RpcEndpoint(sim, net, "a")
        server = RpcEndpoint(sim, net, "b")
        server.register("echo", lambda src, body: (body, 4))

        def proc():
            return (yield client.call("b", "echo", "hi", 2))

        assert drive(sim, proc()) == "hi"

    def test_missing_handler_fails_call(self, sim, net):
        client = RpcEndpoint(sim, net, "a")
        RpcEndpoint(sim, net, "b")

        def proc():
            yield client.call("b", "nothing", None, 0)

        with pytest.raises(RpcError):
            drive(sim, proc())

    def test_timeout_on_dead_server(self, sim, net):
        client = RpcEndpoint(sim, net, "a")
        RpcEndpoint(sim, net, "b")
        net.partition("b")

        def proc():
            try:
                yield client.call("b", "x", None, 0, timeout_us=50)
            except RpcTimeout:
                return "timed-out"

        assert drive(sim, proc()) == "timed-out"
        assert sim.now >= 50

    def test_notify_one_way(self, sim, net):
        client = RpcEndpoint(sim, net, "a")
        server = RpcEndpoint(sim, net, "b")
        heard = []

        def on_ping(src, body):
            heard.append((src, body))
            return None

        server.register("ping", on_ping)
        client.notify("b", "ping", "knock", 5)
        sim.run(until=100)
        assert heard == [("a", "knock")]

    def test_raw_handler_forwarding(self, sim, net):
        """A sync handler gets the raw envelope and forwards it; the
        remote responds directly to the original caller (request
        shipping), from a scheduled callback."""
        net.attach("c")
        client = RpcEndpoint(sim, net, "a")
        middle = RpcEndpoint(sim, net, "b")
        tail = RpcEndpoint(sim, net, "c")

        def middle_handler(src, request):
            middle.forward("c", request)

        def tail_handler(src, request):
            sim.schedule(1.0, lambda: tail.respond(request, "from-tail", 9))

        middle.register_sync("kv", middle_handler)
        tail.register_sync("kv", tail_handler)

        def proc():
            return (yield client.call("b", "kv", "get-x", 5))

        assert drive(sim, proc()) == "from-tail"

    def test_request_reaches_its_handler_with_its_src(self, sim, net):
        client = RpcEndpoint(sim, net, "a")
        server = RpcEndpoint(sim, net, "b")
        arrivals = []
        server.register_sync("kv", lambda src, request:
                             arrivals.append((src, request)))
        client.call("b", "kv", {"cmd": "get"}, 64)
        sim.run()
        (src, request), = arrivals
        assert src == "a" and request.reply_to == "a"
        assert request.body == {"cmd": "get"} and request.nbytes == 64
        # One envelope on the wire: body + envelope + header bytes.
        assert net.nic("b").rx_bytes == (64 + ENVELOPE_BYTES
                                         + WIRE_OVERHEAD_BYTES)

    def test_reply_completes_its_call_by_request_id(self, sim, net):
        client = RpcEndpoint(sim, net, "a")
        server = RpcEndpoint(sim, net, "b")
        held = []
        server.register_sync("kv", lambda src, request: held.append(request))
        outcomes = {}
        for key in ("x", "y"):
            client.call("b", "kv", key, 8,
                        then=lambda ok, value, key=key:
                        outcomes.setdefault(key, (ok, value)))
        sim.run()
        # Answer out of order; a reply to no pending call is dropped.
        first, second = held
        server.respond(second, "Y", 1)
        server.respond(first, "X", 1)
        server.respond(first, "again", 1)
        sim.run()
        assert outcomes == {"x": (True, "X"), "y": (True, "Y")}
        assert client._pending == {}

    def test_per_kind_counters(self, sim, net):
        client = RpcEndpoint(sim, net, "a")
        server = RpcEndpoint(sim, net, "b")
        server.register("echo", lambda src, body: (body, 4))
        server.register("ping", lambda src, body: None)
        client.call("b", "echo", "x", 4)
        client.notify("b", "ping", "y", 4)
        sim.run()
        assert (client.calls_sent, client.notifications_sent,
                client.calls_served) == (1, 1, 0)
        assert (server.calls_sent, server.notifications_sent,
                server.calls_served) == (0, 0, 1)
        assert net.messages_delivered == 3

    def test_duplicate_registration_rejected(self, sim, net):
        server = RpcEndpoint(sim, net, "b")
        server.register("m", lambda s, b: None)
        with pytest.raises(ValueError):
            server.register("m", lambda s, b: None)
        with pytest.raises(ValueError):
            server.register_sync("m", lambda s, r: None)
        server.register_sync("s", lambda s, r: None)
        with pytest.raises(ValueError):
            server.register_sync("s", lambda s, r: None)
        with pytest.raises(ValueError):
            server.register("s", lambda s, b: None)

    # Each message is handled, and each reply resumes its waiter,
    # inside the dispatch that lands it: stepping the simulator one
    # event at a time shows no event in between (no handler process
    # start, no zero-delay relay, no scheduled resume).

    def test_plain_handler_answers_inside_the_delivery(self, sim, net):
        client = RpcEndpoint(sim, net, "a")
        server = RpcEndpoint(sim, net, "b")
        server.register("echo", lambda src, body: (body, 4))
        outcomes = []
        client.call("b", "echo", "hi", 2,
                    then=lambda ok, value: outcomes.append((ok, value)))
        sim.step()                  # the request's delivery
        assert net.nic("b").tx_messages == 1 and server.calls_served == 1
        assert sim.pending_events == 1   # the reply's delivery, no more
        sim.step()
        assert outcomes == [(True, "hi")]
        assert sim.events_dispatched == 2

    def test_generator_handler_starts_inside_the_delivery(self, sim, net):
        client = RpcEndpoint(sim, net, "a")
        server = RpcEndpoint(sim, net, "b")
        steps = []

        def handler(src, body):
            steps.append(("start", sim.events_dispatched))
            yield sim.timeout(1.0)
            return body * 2, 8

        server.register("double", handler)
        outcomes = []
        client.call("b", "double", 21, 8,
                    then=lambda ok, value: outcomes.append((ok, value)))
        sim.step()                  # the request's delivery
        assert steps == [("start", 1)]
        sim.run()
        # Delivery, the handler's 1 us, the reply's delivery.
        assert outcomes == [(True, 42)] and sim.events_dispatched == 3

    def test_event_form_waiter_resumes_in_the_replys_dispatch(self, sim,
                                                              net):
        client = RpcEndpoint(sim, net, "a")
        server = RpcEndpoint(sim, net, "b")
        server.register("echo", lambda src, body: (body, 4))
        got = []

        def proc():
            got.append((yield client.call("b", "echo", "hi", 2)))

        sim.process(proc())
        sim.step()                  # the process's start: the call
        sim.step()                  # the request's delivery
        assert got == []
        sim.step()                  # the reply's delivery
        assert got == ["hi"] and sim.pending_events == 0

    def test_unknown_method_answers_rpc_error_at_once(self, sim, net):
        client = RpcEndpoint(sim, net, "a")
        RpcEndpoint(sim, net, "b")
        outcomes = []
        client.call("b", "nothing", None, 0,
                    then=lambda ok, value: outcomes.append((ok, value)))
        sim.step()                  # the request's delivery
        sim.step()                  # the error's delivery
        (ok, error), = outcomes
        assert not ok and isinstance(error, RpcError)
        assert "no handler for 'nothing' at b" in str(error)
        assert sim.pending_events == 0
