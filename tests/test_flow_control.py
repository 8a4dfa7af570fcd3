"""Tests for the inter-JBOF flow-control scheduler (§3.5, Alg. 1)."""

import pytest

from repro.core.flow_control import FlowController, PendingRequest


def make_request(target, cost, sent):
    return PendingRequest(target=target, token_cost=cost,
                          send=lambda: sent.append(target))


class TestAlgorithm1:
    def test_sends_when_tokens_available(self, sim):
        flow = FlowController(sim)
        flow.on_response("ssd1", 10)
        sent = []
        flow.enqueue("t1", make_request("ssd1", 3, sent))
        sim.run(until=1)
        assert sent == ["ssd1"]
        assert flow.view("ssd1").tokens == 7

    def test_defers_without_tokens_when_outstanding(self, sim):
        flow = FlowController(sim)
        flow.on_response("ssd1", 3)
        sent = []
        flow.enqueue("t1", make_request("ssd1", 3, sent))   # spends all
        flow.enqueue("t1", make_request("ssd1", 3, sent))   # must wait
        sim.run(until=1)
        assert len(sent) == 1
        assert flow.stats.deferred >= 1
        # A response replenishes tokens and releases the second.
        flow.on_complete("ssd1")
        flow.on_response("ssd1", 5)
        sim.run(until=2)
        assert len(sent) == 2

    def test_nagle_probe_with_no_outstanding(self, sim):
        """Alg.1 L9-13: zero tokens but nothing outstanding -> send
        one probe anyway."""
        flow = FlowController(sim)
        flow.on_response("ssd1", 0)
        sent = []
        flow.enqueue("t1", make_request("ssd1", 2, sent))
        sim.run(until=1)
        assert sent == ["ssd1"]
        assert flow.stats.nagle_probes == 1
        assert flow.view("ssd1").tokens == 0

    def test_round_robin_across_tenants(self, sim):
        flow = FlowController(sim)
        flow.on_response("x", 100)
        sent = []
        for tenant in ("a", "b", "a", "b"):
            flow.enqueue(tenant, make_request("x", 1, sent))
        sim.run(until=1)
        assert len(sent) == 4

    def test_disabled_passthrough(self, sim):
        flow = FlowController(sim, enabled=False)
        sent = []
        for index in range(5):
            flow.enqueue("t", make_request("hot", 99, sent))
        assert len(sent) == 5  # immediate, no scheduling
        assert flow.queued() == 0

    def test_outstanding_accounting(self, sim):
        flow = FlowController(sim)
        flow.on_response("t", 10)
        sent = []
        flow.enqueue("x", make_request("t", 2, sent))
        sim.run(until=1)
        assert flow.view("t").outstanding == 1
        flow.on_complete("t")
        assert flow.view("t").outstanding == 0

    def test_token_view_is_snapshot(self, sim):
        flow = FlowController(sim)
        flow.on_response("t", 8)
        flow.on_response("t", 3)  # fresher snapshot overrides
        assert flow.view("t").tokens == 3

    def test_queue_drains_in_order_per_tenant(self, sim):
        flow = FlowController(sim)
        flow.on_response("t", 100)
        order = []
        for index in range(4):
            flow.enqueue("one", PendingRequest(
                target="t", token_cost=1,
                send=lambda index=index: order.append(index)))
        sim.run(until=1)
        assert order == [0, 1, 2, 3]


class TestNoSchedulerProcess:
    """Rounds run inside the caller's frame (``_wake``): no scheduler
    process, no event between a wake and the sends it clears."""

    def test_enqueue_sends_in_the_same_call(self, sim):
        flow = FlowController(sim)
        sent = []
        flow.enqueue("t1", make_request("ssd1", 2, sent))
        assert sent == ["ssd1"]          # before any sim.run
        assert flow.queued() == 0
        assert sim.events_dispatched == 0

    def test_response_and_complete_in_one_instant_release_one(self, sim):
        flow = FlowController(sim)
        flow.on_response("ssd1", 3)
        sent = []
        for _ in range(3):
            flow.enqueue("t1", make_request("ssd1", 3, sent))
        assert len(sent) == 1 and flow.queued() == 2
        # The reply carries 3 tokens: exactly one more request fits,
        # whether the round runs from on_response or on_complete.
        flow.on_response("ssd1", 3)
        flow.on_complete("ssd1")
        assert len(sent) == 2 and flow.queued() == 1
        assert flow.view("ssd1").outstanding == 1

    def test_synchronous_completion_does_not_nest_a_round(self, sim):
        flow = FlowController(sim)
        flow.on_response("ssd1", 0)
        flow.enqueue("t1", make_request("ssd1", 1, []))   # probe: one out
        nested = []

        def send():
            rounds = flow.stats.rounds
            flow.on_complete("ssd1")         # re-enters _wake mid-round
            nested.append(flow.stats.rounds != rounds)

        for _ in range(3):
            flow.enqueue("t1", PendingRequest("ssd1", 1, send))
        assert nested == [] and flow.queued() == 3
        # One wake, one round: the round itself sees each synchronous
        # retirement and probes again — no round ran inside a ``send``.
        rounds = flow.stats.rounds
        flow.on_complete("ssd1")
        assert nested == [False, False, False]
        assert flow.stats.rounds == rounds + 1 and flow.queued() == 0
        # The guard was released: the next wake still drains.
        sent = []
        flow.view("ssd1").outstanding = 1
        flow.enqueue("t1", make_request("ssd1", 1, sent))
        assert sent == [] and flow.queued() == 1
        flow.on_response("ssd1", 1)
        assert sent == ["ssd1"]

    def test_two_tenants_enqueued_in_one_instant_both_served(self, sim):
        flow = FlowController(sim)
        flow.on_response("x", 2)
        sent = []
        flow.enqueue("a", make_request("x", 1, sent))
        flow.enqueue("b", make_request("x", 1, sent))
        assert sent == ["x", "x"]
        assert flow.stats.submitted == 2 and flow.queued() == 0
