"""Tests for the in-memory segment table (§3.2.3)."""

import pytest

from repro.core.segtbl import NO_OFFSET, SEGTBL_ENTRY_BYTES, SegTbl
from repro.hw.dram import Dram, OutOfMemoryError

from conftest import drive


class TestIndex:
    def test_initially_absent(self, sim):
        table = SegTbl(sim, 8)
        assert table.location(0) is None
        assert list(table.existing_segments()) == []

    def test_update_and_lookup(self, sim):
        table = SegTbl(sim, 8)
        table.update(3, offset=4096, chain_len=2)
        assert table.location(3) == (4096, 2)

    def test_footprint_matches_paper_entry_size(self, sim):
        table = SegTbl(sim, 1000)
        assert table.footprint_bytes() == 1000 * SEGTBL_ENTRY_BYTES
        # Under half a byte per object at 64 keys per segment (§3.2).
        assert SEGTBL_ENTRY_BYTES / 64 < 0.5

    def test_dram_reservation(self, sim):
        dram = Dram(10_000)
        table = SegTbl(sim, 100, dram=dram, name="tbl")
        assert dram.reservation("tbl") == 100 * SEGTBL_ENTRY_BYTES

    def test_dram_exhaustion_fails_loudly(self, sim):
        dram = Dram(100)
        with pytest.raises(OutOfMemoryError):
            SegTbl(sim, 1000, dram=dram)

    def test_existing_segments_iteration(self, sim):
        table = SegTbl(sim, 10)
        table.update(2, 0, 1)
        table.update(7, 512, 1)
        assert list(table.existing_segments()) == [2, 7]

    def test_needs_at_least_one_segment(self, sim):
        with pytest.raises(ValueError):
            SegTbl(sim, 0)


class TestLockBit:
    def test_try_lock(self, sim):
        table = SegTbl(sim, 4)
        assert table.try_lock(1)
        assert not table.try_lock(1)
        table.unlock(1)
        assert table.try_lock(1)

    def test_lock_event_immediate_when_free(self, sim):
        table = SegTbl(sim, 4)

        def proc():
            yield table.lock(0)
            return sim.now

        assert drive(sim, proc()) == 0.0

    def test_lock_handoff_fcfs(self, sim):
        table = SegTbl(sim, 4)
        order = []

        def worker(name, hold):
            yield table.lock(2)
            order.append(name)
            yield sim.timeout(hold)
            table.unlock(2)

        for name in ("first", "second", "third"):
            sim.process(worker(name, 10))
        sim.run()
        assert order == ["first", "second", "third"]
        assert table.try_lock(2)  # released by the last holder

    def test_unlock_without_lock_rejected(self, sim):
        table = SegTbl(sim, 4)
        with pytest.raises(RuntimeError):
            table.unlock(0)

    def test_lock_waits_counted(self, sim):
        table = SegTbl(sim, 4)

        def holder():
            yield table.lock(0)
            yield sim.timeout(5)
            table.unlock(0)

        def waiter():
            yield sim.timeout(1)
            yield table.lock(0)
            table.unlock(0)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert table.lock_waits == 1

    def test_uncontended_locking_allocates_no_waiter_queue(self, sim):
        table = SegTbl(sim, 4)

        def proc():
            for seg_id in range(4):
                assert table.try_lock(seg_id)
                table.unlock(seg_id)
                yield table.lock(seg_id)
                table.unlock(seg_id)

        drive(sim, proc())
        assert all(entry._waiters is None for entry in table.entries)
        assert table.lock_waits == 0

    def test_contended_waiters_are_granted_in_arrival_order(self, sim):
        table = SegTbl(sim, 4)
        granted = []

        def worker(name, arrive):
            yield sim.timeout(arrive)
            yield table.lock(1)
            granted.append((name, sim.now))
            yield sim.timeout(10)
            table.unlock(1)

        for name, arrive in (("a", 0), ("b", 1), ("c", 2), ("d", 2)):
            sim.process(worker(name, arrive))
        sim.run()
        assert granted == [("a", 0), ("b", 10), ("c", 20), ("d", 30)]
        assert table.lock_waits == 3
        assert table.entries[1]._waiters is not None
        assert all(table.entries[seg_id]._waiters is None
                   for seg_id in (0, 2, 3))
        assert table.try_lock(1)
