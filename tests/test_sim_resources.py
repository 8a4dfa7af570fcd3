"""Tests for Resource and Store."""

import pytest

from repro.sim.queues import Store
from repro.sim.resources import Resource

from conftest import drive


class TestResource:
    def test_acquire_release(self, sim):
        resource = Resource(sim, capacity=1)

        def proc():
            yield resource.acquire()
            blocked = resource.acquire()
            assert not blocked.triggered  # the one slot is held
            resource.release()
            assert blocked.triggered      # ... and handed over
            resource.release()
            return resource.acquire().triggered

        assert drive(sim, proc())

    def test_fcfs_ordering(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def worker(name, hold):
            yield resource.acquire()
            order.append(name)
            yield sim.timeout(hold)
            resource.release()

        for name in ("a", "b", "c"):
            sim.process(worker(name, 5))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_capacity_enforced(self, sim):
        resource = Resource(sim, capacity=2)
        concurrent = []
        holders = [0]

        def worker():
            yield resource.acquire()
            holders[0] += 1
            concurrent.append(holders[0])
            yield sim.timeout(10)
            holders[0] -= 1
            resource.release()

        for _ in range(5):
            sim.process(worker())
        sim.run()
        assert max(concurrent) == 2

    def test_multi_slot_acquire(self, sim):
        resource = Resource(sim, capacity=4)

        def proc():
            yield resource.acquire(3)
            two = resource.acquire(2)
            assert not two.triggered      # one slot left
            resource.release(3)
            assert two.triggered

        drive(sim, proc())

    def test_acquire_more_than_capacity_rejected(self, sim):
        resource = Resource(sim, capacity=2)
        with pytest.raises(ValueError):
            resource.acquire(3)

    def test_over_release_rejected(self, sim):
        resource = Resource(sim, capacity=1)
        with pytest.raises(ValueError):
            resource.release()

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def proc():
            yield store.put("x")
            item = yield store.get()
            return item

        assert drive(sim, proc()) == "x"

    def test_fifo_order(self, sim):
        store = Store(sim)
        got = []

        def producer():
            for index in range(5):
                yield store.put(index)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        when = []

        def consumer():
            yield store.get()
            when.append(sim.now)

        sim.process(consumer())
        sim.schedule(30, lambda: store.try_put("late"))
        sim.run()
        assert when == [30.0]

    def test_bounded_capacity_blocks_put(self, sim):
        store = Store(sim, capacity=1)
        times = []

        def producer():
            yield store.put("a")
            times.append(sim.now)
            yield store.put("b")
            times.append(sim.now)

        def consumer():
            yield sim.timeout(10)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert times == [0.0, 10.0]

    def test_try_put_respects_capacity(self, sim):
        store = Store(sim, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert len(store) == 2

    def test_try_get_empty_returns_none(self, sim):
        store = Store(sim)
        assert store.try_get() is None

    def test_len_and_peek(self, sim):
        store = Store(sim)
        store.try_put("first")
        store.try_put("second")
        assert len(store) == 2
        assert store.items[0] == "first"

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)
