"""Unit tests for the discrete-event engine core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import DELIVERY_PRIORITY, Simulator
from repro.sim.errors import EventAlreadyTriggered
from repro.sim.events import Event, Timeout

from conftest import drive


def delivery(when, seq, land):
    """A delivery record for :meth:`Simulator.post_delivery` (one
    sender, one receiver: ``seq`` is its sort key)."""
    return (when, DELIVERY_PRIORITY, "dst", "src", seq, 0, None, land)


class TestEvent:
    def test_untriggered_initially(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_fail_sets_exception(self, sim):
        event = sim.event()
        event.fail(ValueError("boom"))
        event.defuse()
        assert event.triggered
        assert not event.ok
        assert isinstance(event.value, ValueError)

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(EventAlreadyTriggered):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(AttributeError):
            _ = event.value

    def test_undefused_failure_crashes_run(self, sim):
        event = sim.event()
        event.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        def proc():
            yield sim.timeout(25.5)
            return sim.now

        assert drive(sim, proc()) == pytest.approx(25.5)

    def test_timeout_carries_value(self, sim):
        def proc():
            got = yield sim.timeout(1, value="payload")
            return got

        assert drive(sim, proc()) == "payload"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_zero_delay_runs_immediately(self, sim):
        def proc():
            yield sim.timeout(0)
            return sim.now

        assert drive(sim, proc()) == 0.0

    def test_timeouts_fire_in_order(self, sim):
        order = []
        sim.schedule(5, lambda: order.append("b"))
        sim.schedule(1, lambda: order.append("a"))
        sim.schedule(9, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self, sim):
        order = []
        for label in "abc":
            sim.schedule(3, lambda label=label: order.append(label))
        sim.run()
        assert order == ["a", "b", "c"]


class TestTimeoutAt:
    def test_fires_on_the_exact_timestamp(self, sim):
        """``now + (when - now)`` can round an ulp off ``when``; an
        absolute timeout must not."""
        when = 12.1
        seen = []

        def proc():
            yield sim.timeout(3.3)
            assert sim.now + (when - sim.now) != when  # the rounding trap
            yield sim.timeout_at(when, "v")
            seen.append(sim.now)

        sim.process(proc())
        sim.run()
        assert seen == [when]

    def test_now_is_a_zero_delay_timeout_and_past_is_rejected(self, sim):
        order = []
        sim.timeout(0).callbacks.append(lambda _e: order.append("first"))
        sim.timeout_at(sim.now).callbacks.append(
            lambda _e: order.append("second"))
        sim.schedule_at(3.0, lambda: order.append("third"))
        sim.run()
        assert order == ["first", "second", "third"] and sim.now == 3.0
        with pytest.raises(ValueError):
            sim.timeout_at(1.0)


class TestProcess:
    def test_return_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        assert drive(sim, proc()) == "done"

    def test_nested_yield_from(self, sim):
        def inner():
            yield sim.timeout(2)
            return 10

        def outer():
            value = yield from inner()
            yield sim.timeout(3)
            return value + 1

        assert drive(sim, outer()) == 11
        assert sim.now == 5.0

    def test_exception_propagates_to_waiter(self, sim):
        def bad():
            yield sim.timeout(1)
            raise KeyError("oops")

        with pytest.raises(KeyError):
            drive(sim, bad())

    def test_process_is_event(self, sim):
        def child():
            yield sim.timeout(7)
            return "child-done"

        def parent():
            result = yield sim.process(child())
            return result

        assert drive(sim, parent()) == "child-done"

    def test_yield_non_event_raises(self, sim):
        def proc():
            yield 42

        process = sim.process(proc())
        with pytest.raises(TypeError):
            sim.run()

    def test_waiting_on_already_processed_event(self, sim):
        event = sim.event()
        event.succeed("early")

        def late():
            yield sim.timeout(5)
            value = yield event
            return value

        assert drive(sim, late()) == "early"

    def test_is_alive(self, sim):
        def proc():
            yield sim.timeout(10)

        process = sim.process(proc())
        assert process.is_alive
        sim.run()
        assert not process.is_alive

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)


class TestUnwaitedProcessElision:
    """A finished process nobody waits on is marked processed in
    place; late waiters still resume in the same timestep."""

    @staticmethod
    def _worker(sim):
        yield sim.timeout(4)
        return "done"

    def test_fire_and_forget_emits_no_completion_event(self, sim):
        sim.process(self._worker(sim))
        sim.run()
        # init event + the timeout; no completion event.
        assert sim.events_dispatched == 2

    def test_waited_process_still_dispatches_completion(self, sim):
        process = sim.process(self._worker(sim))
        seen = []
        process.callbacks.append(lambda event: seen.append(event.value))
        sim.run()
        assert seen == ["done"]
        assert sim.events_dispatched == 3

    def test_elided_process_is_processed_with_value(self, sim):
        process = sim.process(self._worker(sim))
        sim.run()
        assert process.processed and process.ok
        assert process.value == "done"

    def test_elision_consumes_a_sequence_number(self, sim):
        """Tie order of later events must not depend on who waits."""
        other = Simulator()
        waited = other.process(self._worker(other))
        waited.callbacks.append(lambda _event: None)
        sim.process(self._worker(sim))
        sim.run()
        other.run()
        assert sim._sequence == other._sequence

    def test_failed_unwaited_process_still_crashes_run(self, sim):
        def bad():
            yield sim.timeout(1)
            raise KeyError("oops")

        sim.process(bad())
        with pytest.raises(KeyError):
            sim.run()

    def test_late_waiters_resume_in_same_timestep(self, sim):
        process = sim.process(self._worker(sim))
        resumed = {}

        def by_yield():
            yield sim.timeout(9)
            value = yield process
            resumed["yield"] = (sim.now, value)

        def by_all_of():
            yield sim.timeout(9)
            values = yield sim.all_of([process])
            resumed["all_of"] = (sim.now, values[process])

        sim.process(by_yield())
        sim.process(by_all_of())
        sim.run()
        assert resumed == {"yield": (9.0, "done"), "all_of": (9.0, "done")}
        assert sim.run(until=process) == "done"
        assert sim.now == 9.0


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        def proc():
            timeouts = [sim.timeout(t, value=t) for t in (3, 1, 7)]
            yield sim.all_of(timeouts)
            return sim.now

        assert drive(sim, proc()) == 7.0

    def test_all_of_empty_fires_immediately(self, sim):
        def proc():
            yield sim.all_of([])
            return sim.now

        assert drive(sim, proc()) == 0.0

    def test_all_of_propagates_failure(self, sim):
        def failer():
            yield sim.timeout(1)
            raise ValueError("inner")

        def proc():
            yield sim.all_of([sim.process(failer()), sim.timeout(10)])

        with pytest.raises(ValueError):
            drive(sim, proc())


class TestRun:
    def test_run_until_time(self, sim):
        sim.schedule(5, lambda: None)
        sim.schedule(50, lambda: None)
        sim.run(until=10)
        assert sim.now == 10.0
        assert sim.pending_events == 1

    def test_run_until_past_raises(self, sim):
        sim.schedule(5, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1)

    def test_run_until_event_returns_value(self, sim):
        event = sim.event()
        sim.schedule(4, lambda: event.succeed("yo"))
        assert sim.run(until=event) == "yo"
        assert sim.now == 4.0

    def test_run_until_never_triggering_event(self, sim):
        event = sim.event()
        sim.schedule(1, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run(until=event)

    def test_run_empty_simulation(self, sim):
        sim.run()
        assert sim.now == 0.0

    @given(plan=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                                   st.booleans()),
                         min_size=1, max_size=40),
           until=st.sampled_from([None, 1.0, 2.5]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=80, deadline=None)
    def test_inlined_loop_orders_ties_like_step(self, plan, until, seed):
        """``(delay, zero-delay follow-ups, delivery)`` entries: timeouts
        and deliveries landing on the same instants, whose callbacks
        queue zero-delay work while same-instant heap entries (lower
        sequence numbers) still wait.  ``run`` with the digest off,
        ``run`` with it on and a ``step()`` replay dispatch them in one
        order; under a tie permutation ``run`` and the replay draw the
        same order and fold the same digest."""
        def model(dispatch, digest=False, permute=None):
            sim = Simulator()
            order = []

            def fire(tag, chain):
                def callback(_event):
                    order.append((sim.now, tag))
                    if chain:
                        sim.timeout(0.0).callbacks.append(
                            fire(tag + (chain,), chain - 1))
                return callback

            for index, (delay, chain, landing) in enumerate(plan):
                if landing:
                    sim.post_delivery(
                        delivery(float(delay), index, fire((index,), chain)))
                else:
                    sim.timeout(float(delay)).callbacks.append(
                        fire((index,), chain))
            if digest:
                sim.enable_schedule_digest()
            if permute is not None:
                sim.enable_tie_permutation(permute)
            dispatch(sim)
            return (order, sim.now, sim._sequence, sim.events_dispatched,
                    sim.schedule_digest)

        def run(sim):
            sim.run(until=until)

        def replay(sim):
            while sim.pending_events and (
                    until is None or sim._imm or sim._heap[0][0] <= until):
                sim.step()
            if until is not None:
                sim.now = until

        plain = model(run)
        hashed = model(run, digest=True)
        stepped = model(replay, digest=True)
        assert plain[:4] == hashed[:4] == stepped[:4]
        assert plain[4] is None and hashed[4] == stepped[4]
        assert (model(run, digest=True, permute=seed)
                == model(replay, digest=True, permute=seed))

    @pytest.mark.parametrize("mode", ["run", "digest", "step"])
    def test_events_dispatched_is_live_inside_a_dispatch(self, mode):
        """A callback reads a count that includes its own dispatch,
        whether ``run`` hashes the schedule or not and under ``step``
        (which refuses an empty schedule)."""
        sim = Simulator()
        seen = []
        for delay in (1.0, 2.0, 3.0):
            sim.timeout(delay).callbacks.append(
                lambda _event: seen.append(sim.events_dispatched))
        if mode == "digest":
            sim.enable_schedule_digest()
        if mode == "step":
            for _ in range(3):
                sim.step()
            with pytest.raises(IndexError):
                sim.step()
        else:
            sim.run()
        assert seen == [1, 2, 3]

    @pytest.mark.parametrize("digest", [False, True])
    def test_model_code_moving_the_clock_fails_loudly(self, digest):
        """A process that moves ``sim.now`` forward leaves an earlier
        event on the heap; popping it would rewind time.  The dispatch
        loop refuses, with the schedule digest off or on.  So does
        stopping at a ``run(until=…)`` deadline the clock was moved
        past."""
        def run(leap, wait, then_at=None):
            sim = Simulator()
            if digest:
                sim.enable_schedule_digest()

            def mover():
                yield sim.timeout(5.0)
                sim.now += leap
                if wait is not None:
                    yield sim.timeout(wait)

            sim.process(mover())
            if then_at is not None:
                sim.timeout(then_at)
            sim.run(until=300.0)

        with pytest.raises(RuntimeError,
                           match=r"time went backwards: 10\.0 < 105\.0"):
            run(100.0, 1.0, then_at=10.0)
        # The next event lies past both the deadline and the moved
        # clock, or the schedule runs dry after the move.
        for wait in (10.0, None):
            with pytest.raises(RuntimeError,
                               match=r"time went backwards: 300\.0 < 405\.0"):
                run(400.0, wait)


class TestProcessAfter:
    """``Simulator.process(generator, after=event)``: the process starts
    inside ``event``'s dispatch instead of from an init event."""

    def test_first_resume_runs_in_the_events_dispatch(self, sim):
        log = []

        def proc():
            log.append(("started", sim.now))
            yield sim.timeout(1)
            return "done"

        gate = sim.timeout(5)
        gate.callbacks.append(lambda _evt: log.append(("gate", sim.now)))
        before = sim.events_dispatched
        process = sim.process(proc(), after=gate)
        assert sim.run(until=process) == "done"
        # After the callbacks attached earlier, in the same dispatch:
        # the gate, the generator's timeout and the process completion
        # are all the events there are — no init event.
        assert log == [("gate", 5.0), ("started", 5.0)]
        assert sim.events_dispatched - before == 3

    def test_plain_process_needs_one_more_event(self, sim):
        def proc():
            yield sim.timeout(1)

        before = sim.events_dispatched
        sim.run(until=sim.process(proc()))
        plain = sim.events_dispatched - before
        before = sim.events_dispatched
        sim.run(until=sim.process(proc(), after=sim.timeout(0)))
        # The zero-delay gate stands in for the init event.
        assert sim.events_dispatched - before == plain

    def test_failure_of_after_is_thrown_in(self, sim):
        def proc():
            yield sim.timeout(1)

        gate = sim.event()
        process = sim.process(proc(), after=gate)
        process.defuse()
        gate.fail(KeyError("boom"))
        sim.run()
        assert isinstance(process.value, KeyError)

    def test_after_an_already_processed_event_starts_now(self, sim):
        gate = sim.timeout(1)
        sim.run()
        assert gate.processed

        def proc():
            yield sim.timeout(2)
            return sim.now

        assert sim.run(until=sim.process(proc(), after=gate)) == 3.0


class TestProcessInline:
    """``Simulator.process_inline``: the process starts inside the
    current dispatch, as ``process(after=event)`` starts one inside
    ``event``'s — decided only once ``event`` fires."""

    def test_first_resume_runs_before_the_call_returns(self, sim):
        log = []

        def proc():
            log.append(("started", sim.now))
            yield sim.timeout(1)
            log.append(("resumed", sim.now))
            return "done"

        started = []

        def on_gate(_event):
            sequence = sim._sequence
            started.append(sim.process_inline(proc(), name="inline"))
            log.append(("returned", sim.now))
            # The generator's own timeout is all that was scheduled.
            assert sim._sequence == sequence + 1

        sim.timeout(5).callbacks.append(on_gate)
        before = sim.events_dispatched
        sim.run()
        assert log == [("started", 5.0), ("returned", 5.0), ("resumed", 6.0)]
        process, = started
        assert process.name == "inline" and process.value == "done"
        # The gate and the generator's timeout: no start event, and the
        # unwaited process finished in place.
        assert sim.events_dispatched - before == 2

    @staticmethod
    def _handlers(seed, inline):
        """A random request mix on one simulator: each arrival waits out
        a CPU-like slice, then runs a handler started ``after=`` the
        slice (created at arrival) or ``inline`` from the slice's
        callback.  Handlers share a log and reorder one another through
        same-instant events; some finish at once (a refused request),
        some yield first, some yield processed events."""
        import random

        rng = random.Random(seed)
        sim = Simulator()
        sim.enable_schedule_digest()
        log = []

        def handler(index, kind, delays):
            log.append((sim.now, index, "start", kind))
            if kind == "refused":
                return index
            if kind == "work":
                log.append((sim.now, index, "work"))
            for step, delay in enumerate(delays):
                if delay is None:
                    done = sim.event().succeed(step)
                    value = yield done
                    value = yield done      # processed by now
                else:
                    value = yield sim.timeout(delay, step)
                log.append((sim.now, index, step, value))
            return index

        def arrivals():
            for index in range(48):
                yield sim.timeout(rng.choice([0.0, 0.0, 0.5, 1.0, 2.5]))
                kind = rng.choice(["refused", "yield-first", "work"])
                delays = [rng.choice([None, 0.0, 0.5, 1.0, 3.0])
                          for _ in range(rng.randrange(0, 4))]
                gate = sim.timeout(rng.choice([0.0, 0.5, 1.0]))
                if inline:
                    gate.callbacks.append(
                        lambda _event, args=(index, kind, delays):
                        sim.process_inline(handler(*args)))
                else:
                    sim.process(handler(index, kind, delays), after=gate)
                if rng.random() < 0.3:
                    sim.timeout(rng.choice([0.0, 0.5])).callbacks.append(
                        lambda _event, i=index: log.append((sim.now, i, "tick")))

        sim.process(arrivals())
        sim.run()
        return (sim.schedule_digest, sim.schedule_digest_events,
                sim._sequence, sim.events_dispatched, log)

    @given(st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_random_handlers_schedule_as_with_after(self, seed):
        assert self._handlers(seed, True) == self._handlers(seed, False)

    @pytest.mark.parametrize("first_yield", [False, True])
    def test_a_raising_handler_still_stops_the_run(self, first_yield):
        def run(inline):
            sim = Simulator()
            sim.enable_schedule_digest()

            def handler():
                if first_yield:
                    yield sim.timeout(1.0)
                raise KeyError("handler")
                yield  # pragma: no cover - generator marker

            gate = sim.timeout(2.0)
            if inline:
                gate.callbacks.append(
                    lambda _event: sim.process_inline(handler()))
            else:
                sim.process(handler(), after=gate)
            sim.timeout(5.0)
            with pytest.raises(KeyError, match="handler"):
                sim.run()
            return sim.now, sim._sequence, sim.schedule_digest

        assert run(True) == run(False)
        assert run(True)[0] == (3.0 if first_yield else 2.0)


class TestDirectScheduling:
    """``Event.succeed`` and ``timeout`` / ``timeout_at`` build and push
    their queue entry themselves; sequence numbers and dispatch order
    are ``_schedule_event``'s.  ``post_delivery`` records spend no
    sequence number and land after the instant's normal events."""

    def test_succeed_and_timeouts_keep_creation_order(self, sim):
        # Dispatch a few timeouts first, then interleave every way of
        # scheduling.
        fired = [sim.timeout(1.0) for _ in range(4)]
        sim.run()
        order = []

        def note(tag):
            return lambda _event: order.append((sim.now, tag))

        sequence = sim._sequence
        plain = sim.event()
        plain.callbacks.append(note("succeed"))
        sim.timeout(0.0).callbacks.append(note("zero"))
        plain.succeed()
        sim.timeout(2.0).callbacks.append(note("late"))
        sim.timeout_at(1.0).callbacks.append(note("at-now"))
        sim.timeout_at(3.0).callbacks.append(note("at-late"))
        sim.post_delivery(delivery(1.0, 1, note("delivery-zero")))
        sim.post_delivery(delivery(3.0, 2, note("delivery-late")))
        sim.timeout(0.0).callbacks.append(note("last-zero"))
        assert sim._sequence == sequence + 6   # one number per event
        sim.run()
        assert order == [
            (1.0, "zero"), (1.0, "succeed"), (1.0, "at-now"),
            (1.0, "last-zero"), (1.0, "delivery-zero"),
            (3.0, "late"), (3.0, "at-late"), (3.0, "delivery-late")]
        # A dispatched timeout keeps its state whatever is scheduled
        # after it (no timeout object is ever handed out twice).
        assert all(event.processed and event.value is None
                   for event in fired)

    @pytest.mark.parametrize("permute", [False, True])
    def test_same_instant_heap_entry_goes_before_newer_zero_delay_work(
            self, sim, permute):
        """A heap entry due now runs before zero-delay work queued at
        this instant (its sequence number is lower), as on a pure
        heap.  The tie permutation draws from the zero-delay FIFO only,
        so there the heap entry waits until that FIFO is empty."""
        order = []

        def first(_event):
            order.append("a")
            sim.timeout(0.0).callbacks.append(
                lambda _e: order.append("a-zero"))

        sim.timeout(1.0).callbacks.append(first)
        sim.timeout(1.0).callbacks.append(lambda _e: order.append("b"))
        if permute:
            sim.enable_tie_permutation(1)
        sim.run()
        assert order == (["a", "a-zero", "b"] if permute
                         else ["a", "b", "a-zero"])

    def test_timeouts_validate_and_carry_their_value(self, sim):
        with pytest.raises(ValueError, match="negative delay"):
            sim.timeout(-1.0)
        sim.run(until=2.0)
        with pytest.raises(ValueError, match="cannot fire"):
            sim.timeout_at(1.0)
        events = [sim.timeout(0.0, "zero"), sim.timeout(1.5, "rel"),
                  sim.timeout_at(2.0, "at-now"), sim.timeout_at(4.0, "abs")]
        assert all(type(event) is Timeout and event.triggered
                   and not event.processed for event in events)
        sim.run()
        assert [event.value for event in events] == [
            "zero", "rel", "at-now", "abs"]
        assert sim.now == 4.0

    def test_delivery_record_reaches_its_land_callable(self, sim):
        seen = []
        record = delivery(1.5, 1, seen.append)
        sequence = sim._sequence
        sim.post_delivery(record)
        assert sim.pending_events == 1 and sim._sequence == sequence
        sim.run()
        assert seen == [record] and sim.now == 1.5
        assert sim.events_dispatched == 1 and sim.pending_events == 0

    def test_post_delivery_rejects_a_time_in_the_past(self, sim):
        landed = []
        sim.run(until=10.0)
        with pytest.raises(ValueError, match="cannot deliver at 5.0"):
            sim.post_delivery(delivery(5.0, 1, landed.append))
        sim.post_delivery(delivery(10.0, 2, landed.append))   # now is fine
        sim.run()
        assert [record[4] for record in landed] == [2] and sim.now == 10.0


class TestNaNTime:
    """A NaN delay, fire time or deadline is refused where it enters:
    on the heap it would compare false both ways and set ``now`` to NaN
    without any "time went backwards"."""

    NAN = float("nan")

    def test_timeout_rejects_nan(self, sim):
        with pytest.raises(ValueError, match="not a number"):
            sim.timeout(self.NAN)
        assert sim.pending_events == 0

    def test_timeout_at_rejects_nan(self, sim):
        sim.run(until=3.0)
        with pytest.raises(ValueError, match="cannot fire"):
            sim.timeout_at(self.NAN)
        assert sim.pending_events == 0

    def test_post_delivery_rejects_nan(self, sim):
        """A NaN delivery time posted while another delivery is in
        flight is refused; the schedule goes on and the run ends (a
        drain re-armed at a NaN head once spun at one instant)."""
        landed = []
        for when, seq in ((5.0, 1), (7.0, 2)):
            sim.post_delivery(delivery(when, seq, landed.append))
        sim.run(until=5.0)
        with pytest.raises(ValueError, match="cannot deliver at nan"):
            sim.post_delivery(delivery(self.NAN, 3, landed.append))
        assert sim.pending_events == 1
        sim.run(until=100.0)
        assert [record[4] for record in landed] == [1, 2]
        assert sim.now == 100.0 and sim.events_dispatched == 2

    def test_run_until_nan_is_refused(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        with pytest.raises(ValueError, match="cannot run until"):
            sim.run(until=self.NAN)
        assert fired == [] and sim.now == 0.0


class TestInfiniteTime:
    """An event at infinity is refused where the dispatch loop would
    advance the clock to it: with ``now`` at inf every later event
    would dispatch "at" inf and the run's clock would be over."""

    @pytest.mark.parametrize("digest", [False, True])
    def test_an_event_at_infinity_is_refused(self, digest):
        sim = Simulator()
        if digest:
            sim.enable_schedule_digest()
        fired = []
        sim.timeout(float("inf"))
        sim.schedule(5.0, lambda: fired.append(sim.now))
        with pytest.raises(RuntimeError, match="at time inf"):
            sim.run()
        assert fired == [5.0] and sim.now == 5.0


class TestSucceedInline:
    """``Event.succeed_inline``: the event settles inside the current
    dispatch; its callbacks run once the dispatching event's own have
    returned, with no dispatch of their own."""

    @pytest.mark.parametrize("digest", [False, True])
    def test_callbacks_run_after_the_dispatching_events_own(self, sim,
                                                            digest):
        if digest:
            sim.enable_schedule_digest()
        order = []
        settled = sim.event()
        settled.callbacks.append(lambda event: order.append(
            ("settled", event.value, sim.now)))

        def first(_event):
            order.append("first")
            # A zero-delay entry queued before the settle still runs
            # after the settled event's callbacks.
            sim.timeout(0.0).callbacks.append(
                lambda _e: order.append("queued"))
            sequence = sim._sequence
            assert settled.succeed_inline("v") is settled
            assert settled.triggered and not settled.processed
            assert sim._sequence == sequence   # no sequence number

        gate = sim.timeout(2.0)
        gate.callbacks += [first, lambda _e: order.append("second")]
        before = sim.events_dispatched
        sim.run()
        assert order == ["first", "second", ("settled", "v", 2.0), "queued"]
        assert settled.processed
        # The gate and the queued timeout; the settle spent no dispatch.
        assert sim.events_dispatched - before == 2

    def test_a_waiting_process_resumes_in_the_same_dispatch(self, sim):
        settled = sim.event()
        log = []

        def waiter():
            value = yield settled
            log.append((value, sim.now))
            yield sim.timeout(1.0)
            log.append(("after", sim.now))

        sim.process(waiter())
        sim.run()
        sim.timeout(3.0).callbacks.append(
            lambda _e: settled.succeed_inline("reply"))
        before = sim.events_dispatched
        sim.run()
        assert log == [("reply", 3.0), ("after", 4.0)]
        assert sim.events_dispatched - before == 2

    def test_outside_a_dispatch_it_is_succeed(self):
        def run(settle):
            sim = Simulator()
            sim.enable_schedule_digest()
            order = []
            sim.timeout(0.0).callbacks.append(lambda _e: order.append("a"))
            event = sim.event()
            event.callbacks.append(lambda e: order.append(e.value))
            settle(event, "b")
            sim.timeout(0.0).callbacks.append(lambda _e: order.append("c"))
            assert event.triggered and not event.processed
            sim.run()
            return (order, sim._sequence, sim.events_dispatched,
                    sim.schedule_digest)

        inline = run(Event.succeed_inline)
        assert inline == run(Event.succeed)
        assert inline[0] == ["a", "b", "c"] and inline[2] == 3

    def test_a_second_settle_raises(self, sim):
        outside = sim.event()
        outside.succeed_inline()
        with pytest.raises(EventAlreadyTriggered):
            outside.succeed_inline()
        inside = sim.event()
        errors = []

        def settle_twice(_event):
            inside.succeed_inline(1)
            for settle in (inside.succeed_inline, inside.succeed):
                with pytest.raises(EventAlreadyTriggered):
                    settle(2)
                errors.append(settle.__name__)

        sim.timeout(1.0).callbacks.append(settle_twice)
        sim.run()
        assert errors == ["succeed_inline", "succeed"]
        assert inside.processed and inside.value == 1

    def test_run_until_an_event_finishes_its_dispatch_first(self, sim):
        settled = sim.event()
        seen = []
        settled.callbacks.append(lambda e: seen.append(e.value))
        stop = sim.timeout(1.0)
        stop.callbacks.append(lambda _e: settled.succeed_inline("late"))
        later = sim.timeout(2.0)
        sim.run(until=stop)
        assert seen == ["late"] and settled.processed
        assert sim.now == 1.0 and not later.processed
