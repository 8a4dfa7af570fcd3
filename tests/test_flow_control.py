"""Tests for the inter-JBOF flow-control scheduler (§3.5, Alg. 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flow_control import (FlowController, PendingRequest,
                                     TargetView)
from repro.sim.core import Simulator


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


class ReferenceFlowController(FlowController):
    """Algorithm 1's round and the view updates as they were before the
    per-call pass: ``max`` clamps, a wake on every response, every
    attribute and ``len(_tenant_order)`` re-read where it is used."""

    def view(self, target):
        if target not in self.targets:
            self.targets[target] = TargetView(last_update_us=self.sim.now)
        return self.targets[target]

    def on_response(self, target, allocated_tokens):
        view = self.view(target)
        view.tokens = max(allocated_tokens, 0)
        view.last_update_us = self.sim.now
        self._wake()

    def on_complete(self, target):
        view = self.view(target)
        view.outstanding = max(view.outstanding - 1, 0)
        self._wake()

    def _schedule_round(self):
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
                if request.token_cost <= view.tokens:
                    queue.popleft()
                    self._queued_count -= 1
                    view.tokens -= request.token_cost
                    self._submit(request)
                    progressed = True
                elif view.outstanding < 1:
                    queue.popleft()
                    self._queued_count -= 1
                    view.tokens = 0
                    self.stats.nagle_probes += 1
                    self._submit(request)
                    progressed = True
                else:
                    self.stats.deferred += 1

    def _submit(self, request, _view=None):
        super()._submit(request, self.view(request.target))


_tenant = st.sampled_from(["a", "b", "c", "d", "e"])
_target = st.sampled_from(["p0", "p1", "p2"])
_spawn = st.lists(st.tuples(_tenant, _target, st.integers(1, 4)), max_size=2)
_flow_ops = st.lists(st.one_of(
    st.tuples(st.just("enqueue"), _tenant, _target, st.integers(1, 4), _spawn),
    st.tuples(st.just("response"), _target, st.integers(-2, 9)),
    st.tuples(st.just("complete"), _target),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 3.0, 40.0]))),
    min_size=1, max_size=50)


class TestRoundMatchesReference:
    """The leaner ``_schedule_round`` / ``view`` / ``on_response`` /
    ``on_complete`` must make every decision the old ones made — also
    when a ``send`` callback enqueues for a tenant the round has never
    seen (the pass length was measured before, the modulus after)."""

    @staticmethod
    def _state(flow, sent):
        return (
            list(sent), flow._rr_index, list(flow._tenant_order),
            flow.queued(),
            [(tenant, [(r.target, r.token_cost, r.enqueued_at)
                       for r in queue])
             for tenant, queue in flow._tenant_queues.items()],
            [(target, view.tokens, view.outstanding, view.last_update_us)
             for target, view in flow.targets.items()],
            (flow.stats.submitted, flow.stats.deferred,
             flow.stats.nagle_probes, flow.stats.rounds),
            flow.stats.queue_wait.to_dict())

    def _replay(self, ops, enabled=True):
        runs = []
        for controller in (FlowController, ReferenceFlowController):
            sim = Simulator()
            flow = controller(sim, enabled=enabled)
            sent = []
            states = []

            def request(tenant, target, cost, spawn, flow=flow, sent=sent):
                def send():
                    sent.append((tenant, target))
                    for args in spawn:      # mid-round arrivals
                        flow.enqueue(args[0], request(*args, spawn=()))
                return PendingRequest(target, cost, send)

            for op in ops:
                if op[0] == "enqueue":
                    flow.enqueue(op[1], request(*op[1:]))
                elif op[0] == "response":
                    flow.on_response(op[1], op[2])
                elif op[0] == "complete":
                    flow.on_complete(op[1])
                else:
                    sim.run(until=sim.now + op[1])
                states.append(self._state(flow, sent))
            runs.append(states)
        assert runs[0] == runs[1]
        return runs[0][-1]

    @settings(max_examples=300, deadline=None)
    @given(ops=_flow_ops, enabled=st.booleans())
    def test_random_schedules(self, ops, enabled):
        self._replay(ops, enabled)

    def test_send_enqueues_for_a_brand_new_tenant_mid_round(self):
        final = self._replay([
            ("response", "p0", 1),
            ("enqueue", "a", "p0", 1, []),
            ("enqueue", "a", "p0", 1, []),          # waits: no tokens
            ("enqueue", "b", "p1", 1, [("c", "p2", 1), ("d", "p0", 1)]),
            ("enqueue", "c", "p1", 9, []),
            ("complete", "p0"),
            ("response", "p0", 2),
            ("complete", "p1"),
            ("response", "p1", 9)])
        sent, _rr, order = final[0], final[1], final[2]
        assert order == ["a", "b", "c", "d"]
        assert ("c", "p2") in sent and ("d", "p0") in sent
        assert final[3] == 0        # nothing left queued

    def test_clamps(self):
        flow = FlowController(Simulator())
        flow.on_response("p", -3)
        assert flow.view("p").tokens == 0
        flow.on_complete("p")       # nothing outstanding: stays at zero
        assert flow.view("p").outstanding == 0
        flow.view("p").outstanding = 2
        flow.on_complete("p")
        assert flow.view("p").outstanding == 1


class TestSlottedFlowRecords:
    def test_target_view(self):
        view = TargetView(last_update_us=2.5)
        assert (view.tokens, view.outstanding, view.last_update_us) \
            == (4, 0, 2.5)
        assert view == TargetView(4, 0, 2.5) and view != TargetView()
        assert repr(view) == ("TargetView(tokens=4, outstanding=0, "
                              "last_update_us=2.5)")
        assert not hasattr(view, "__dict__")

    def test_pending_request(self):
        def send():
            pass
        request = PendingRequest("p0", 2, send)
        assert request.enqueued_at == 0.0
        assert request == PendingRequest(target="p0", token_cost=2,
                                         send=send, enqueued_at=0.0)
        assert repr(request).startswith(
            "PendingRequest(target='p0', token_cost=2, send=<function")
        assert not hasattr(request, "__dict__")
