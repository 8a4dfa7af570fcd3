"""The event-schedule digest (Simulator.enable_schedule_digest).

It hashes ``(time, priority, sequence, event-kind)`` of every popped
event, so any wall-clock, hash-order, or unseeded-RNG leak anywhere in
the model shows up as a digest divergence between two same-seed runs
(``tests/test_scenarios.py::test_double_run_byte_identical`` compares
two runs of every scenario; the goldens pin the digests across
processes).
"""

from repro.sim.core import Simulator


class TestScheduleDigest:
    def test_disabled_by_default(self):
        sim = Simulator()
        sim.timeout(5)
        sim.run()
        assert sim.schedule_digest is None
        assert sim.schedule_digest_events == 0

    def test_counts_popped_events(self):
        sim = Simulator()
        sim.enable_schedule_digest()
        for delay in (1, 2, 3):
            sim.timeout(delay)
        sim.run()
        assert sim.schedule_digest_events == 3
        assert len(sim.schedule_digest) == 64

    def test_identical_schedules_hash_identically(self):
        def build():
            sim = Simulator()
            sim.enable_schedule_digest()
            for delay in (5, 1, 3):
                sim.timeout(delay)
            sim.run()
            return sim.schedule_digest

        assert build() == build()

    def test_schedule_order_changes_digest(self):
        """Creation order feeds the sequence numbers, so a reordered
        schedule — e.g. a heap popping in hash order instead of
        (time, priority, sequence) — cannot reproduce the digest."""
        def build(delays):
            sim = Simulator()
            sim.enable_schedule_digest()
            for delay in delays:
                sim.timeout(delay)
            sim.run()
            return sim.schedule_digest

        assert build((5, 1, 3)) != build((1, 3, 5))
