"""Tests for the fabric, RDMA verbs, and RPC layer."""

import pytest

from repro.net.rdma import QueuePair, WIRE_OVERHEAD_BYTES
from repro.net.rpc import RpcEndpoint, RpcError, RpcTimeout
from repro.net.topology import (NIC_1G_USB, NIC_100G, DeliveryPump,
                                Network)

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
        lambda payload: arrivals.append((nic.sim.now, payload)))
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
    """The pump's drain order is what every committed schedule and
    figure digest was taken under; these pin it directly."""

    @staticmethod
    def _fabric(sim):
        """Two senders, two receivers, one shared arrival log."""
        network = Network(sim)
        log = []
        for address in ("s1", "s2", "r1", "r2"):
            nic = network.attach(address)
            nic.rx_handler = (
                lambda payload, dst=address: log.append((dst, payload)))
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
        # Equal sizes from idle ports: one arrival instant, one drain.
        assert sim.pending_events == 1
        sim.run()
        assert log == expected
        assert sim.events_dispatched == 1

    def test_earlier_record_rearms_the_drain(self, sim):
        network, _log = self._fabric(sim)
        arrivals = []
        network.nic("r1").rx_handler = (
            lambda payload: arrivals.append((sim.now, payload)))
        network.transmit("s1", "r1", 64_000, "big")
        assert sim.pending_events == 1
        network.transmit("s2", "r1", 64, "small")
        # The small message lands first, so a second, earlier drain
        # was armed; the first one still delivers the big message.
        assert sim.pending_events == 2
        sim.run()
        assert [payload for _when, payload in arrivals] == ["small", "big"]
        assert arrivals[0][0] < arrivals[1][0]
        assert sim.events_dispatched == 2

    def test_insert_refuses_a_delivery_in_the_past(self, sim, net):
        received = listen(net.nic("b"))
        pump = DeliveryPump(sim, net)
        sim.run(until=10.0)
        with pytest.raises(ValueError, match="past"):
            pump.insert((5.0, "b", "a", 1, 64, "late"))
        pump.insert((10.0, "b", "a", 1, 64, "on time"))
        sim.run()
        assert payloads(received) == ["on time"]


class TestRdmaVerbs:
    def test_send_reaches_recv_cq(self, sim, net):
        qp_a = QueuePair(sim, net, "a")
        qp_b = QueuePair(sim, net, "b")
        completions = []
        qp_b.recv_handler = completions.append
        qp_a.post_send("b", {"cmd": "get"}, 64)
        sim.run()
        completion, = completions
        assert completion.src == "a"
        assert completion.payload == {"cmd": "get"}

    def test_write_imm_lands_in_region(self, sim, net):
        qp_a = QueuePair(sim, net, "a")
        qp_b = QueuePair(sim, net, "b")
        region = qp_a.register_region(4096)
        completions = []
        qp_a.write_handler = completions.append
        qp_b.post_write_imm("a", region.key, b"response", 8, imm=77)
        sim.run()
        completion, = completions
        assert completion.imm == 77
        assert region.data == b"response"

    def test_write_to_deregistered_region_dropped(self, sim, net):
        qp_a = QueuePair(sim, net, "a")
        qp_b = QueuePair(sim, net, "b")
        region = qp_a.register_region(64)
        completions = []
        qp_a.write_handler = completions.append
        qp_a.deregister_region(region.key)
        qp_b.post_write_imm("a", region.key, b"x", 1, imm=1)
        sim.run(until=100)
        assert completions == [] and region.data is None

    def test_verb_counters(self, sim, net):
        qp_a = QueuePair(sim, net, "a")
        QueuePair(sim, net, "b")
        qp_a.post_send("b", "x", 4)
        qp_a.post_write_imm("b", 1, "y", 4, imm=0)
        assert qp_a.sends_posted == 1
        assert qp_a.writes_posted == 1


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
