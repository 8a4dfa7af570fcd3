"""Partition-parallel simulation: conservative windowed execution.

A sharded cluster splits its components across several
:class:`~repro.sim.core.Simulator` instances — clients and the control
plane on the coordinator shard 0, each JBOF on its own shard — and
steps them in per-shard *windows* bounded by conservative lookahead
(the classic Chandy-Misra-Bryant discipline):

1. Compute every shard's *next time*: its earliest pending event or
   undelivered cross-shard record.
2. Size each shard's window from the per-shard-pair lookahead matrix
   ``L`` (:meth:`Network.cross_shard_lookahead`): shard ``d`` may run
   to ``min over incoming pairs (s, d)`` of ``next[s] + L[(s, d)]``.
   A message sent by ``s`` at ``u >= next[s]`` is delivered no earlier
   than ``u + L[(s, d)]``, so nothing can land inside the window ``d``
   is executing — shards are independent and may run concurrently.
   Pairs that rarely talk (JBOF↔JBOF on slow NICs) no longer clamp
   every shard to the single tightest client↔JBOF delay.
3. *Barrier elision*: a shard whose next time lies at or beyond its
   window end — and which has no records awaiting injection — cannot
   dispatch anything, so it (and any worker process none of whose
   shards are active) skips the window entirely.  No pipe round-trip
   is paid for idle shards; the null-message information is the
   next-time table the coordinator already holds.
4. At the barrier, cross-shard records captured on
   :attr:`Network.boundary` are exchanged: records between two shards
   owned by the *same* worker never leave that worker, and bulk
   payloads between workers travel through a double-buffered
   ``multiprocessing.shared_memory`` slab — one pickle per
   (producer, destination shard) per window — while the coordinator
   routes only small header tuples, sorted by the canonical
   ``(deliver_at, dst, src, seq)`` key.

Determinism: window ends and active sets are computed centrally from
values (peeks, pending heads) that do not depend on process placement,
and each shard's schedule is a pure function of its initial state and
the sorted record sequences injected at barriers.  ``workers=1`` (all
shards stepped in-process) and ``workers=N`` (shards spread over
forked workers) therefore produce byte-identical per-shard schedule
digests and figure metrics.

Worker processes are created lazily with ``fork`` at the first
:meth:`ParallelEngine.run`, so they inherit the fully constructed and
bootstrapped object graph; afterwards each process only ever *steps*
its own shards.  Pipe traffic is framed: exactly one
``pickle.dumps``/``send_bytes`` per message per window.
"""

from __future__ import annotations

import multiprocessing
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.sim.core import Simulator
from repro.sim.events import Event

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - python < 3.8
    _shared_memory = None

#: Timeout (seconds of wall time) for a worker to finish one window.
_WINDOW_TIMEOUT_S = 600.0

#: Bytes reserved per producer per buffer half in the shared payload
#: slab.  A window's payload blob for one destination shard that does
#: not fit falls back to inline pipe transport.
SLAB_REGION_BYTES = 1 << 20


def _send_frame(conn, message: Any) -> int:
    """One framed pipe send: a single pickle, length-prefixed by
    ``send_bytes``.  Returns the frame size for accounting."""
    blob = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(blob)
    return len(blob)


def _recv_frame(conn) -> Any:
    return pickle.loads(conn.recv_bytes())


class _BlobRef:
    """Payload placeholder for a record whose real payload travels in a
    shared-memory blob: ``key`` names the (producer slot, destination
    shard) blob, ``index`` the position in its unpickled payload list.
    Private to the engine, so it can never collide with a user payload.
    """

    __slots__ = ("key", "index")

    def __init__(self, key: Tuple[int, int], index: int):
        self.key = key
        self.index = index

    def __getstate__(self):
        return (self.key, self.index)

    def __setstate__(self, state):
        self.key, self.index = state


class _PayloadSlab:
    """Double-buffered shared-memory regions for bulk record payloads.

    Each producer (forked worker) owns two ``region_bytes`` halves and
    bump-allocates blobs into the half selected by the window round's
    parity.  A blob written in window ``k`` is read during record
    injection in window ``k+1`` (pending records always force their
    destination shard active, so injection is never deferred), and the
    producer's next write to the same half happens in window ``k+2`` —
    strictly after every window-``k`` reply has been collected.
    """

    def __init__(self, producers: int, region_bytes: int):
        self.region_bytes = region_bytes
        self._shm = _shared_memory.SharedMemory(
            create=True, size=max(1, producers * 2 * region_bytes))

    def base(self, slot: int, parity: int) -> int:
        return (slot * 2 + parity) * self.region_bytes

    def write(self, offset: int, blob: bytes) -> None:
        self._shm.buf[offset:offset + len(blob)] = blob

    def read(self, offset: int, length: int) -> bytes:
        return bytes(self._shm.buf[offset:offset + length])

    def close(self) -> None:
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - lingering view guard
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


@dataclass
class ExchangeStats:
    """Barrier / exchange accounting for one engine lifetime.

    ``windows`` counts barrier rounds; ``shard_windows`` counts shard
    executions within them, with ``elided_shard_windows`` the idle
    shard-windows skipped by barrier elision and
    ``elided_child_messages`` the worker pipe round-trips saved.
    Record counters split cross-shard traffic by transport: kept
    worker-local, shared-memory blob, or inline pipe pickle.
    """

    windows: int = 0
    shard_windows: int = 0
    elided_shard_windows: int = 0
    child_messages: int = 0
    elided_child_messages: int = 0
    records_exchanged: int = 0
    records_child_local: int = 0
    records_via_shm: int = 0
    records_inline: int = 0
    shm_blob_bytes: int = 0
    frame_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "windows": self.windows,
            "shard_windows": self.shard_windows,
            "elided_shard_windows": self.elided_shard_windows,
            "child_messages": self.child_messages,
            "elided_child_messages": self.elided_child_messages,
            "records_exchanged": self.records_exchanged,
            "records_child_local": self.records_child_local,
            "records_via_shm": self.records_via_shm,
            "records_inline": self.records_inline,
            "shm_blob_bytes": self.shm_blob_bytes,
            "frame_bytes": self.frame_bytes,
        }


@dataclass
class ShardPlan:
    """Assignment of component addresses to shard ids.

    Shard 0 is the coordinator shard (clients + control plane); each
    JBOF gets its own shard.  The plan is what
    :meth:`Network.configure_shards` consumes.
    """

    shard_of: Dict[str, int] = field(default_factory=dict)
    num_shards: int = 1

    @classmethod
    def for_cluster(cls, control_plane_address: str,
                    client_addresses: List[str],
                    jbof_addresses: List[str]) -> "ShardPlan":
        shard_of = {control_plane_address: 0}
        for address in client_addresses:
            shard_of[address] = 0
        for index, address in enumerate(jbof_addresses):
            shard_of[address] = index + 1
        return cls(shard_of=shard_of, num_shards=len(jbof_addresses) + 1)


class CoordinatorSimulator(Simulator):
    """Shard 0's simulator: ``run()`` drives the whole sharded cluster.

    Components on shard 0 use it exactly like a plain
    :class:`Simulator`; once :meth:`bind_engine` attaches a
    :class:`ParallelEngine`, ``run()`` delegates to the engine's
    windowed loop so existing harness code (``cluster.sim.run(...)``)
    works unchanged.
    """

    def __init__(self, start_time: float = 0.0):
        super().__init__(start_time)
        self._engine: Optional["ParallelEngine"] = None

    def bind_engine(self, engine: "ParallelEngine") -> None:
        self._engine = engine

    def run(self, until: Any = None) -> Any:
        if self._engine is None:
            return super().run(until)
        return self._engine.run(until)


class ParallelEngine:
    """Conservative windowed executor over a set of shard simulators.

    ``workers`` counts OS processes including the coordinator: 1 steps
    every shard in-process (same schedule, no concurrency), ``N >= 2``
    forks ``N - 1`` workers and deals the non-coordinator shards to
    them round-robin.  Shard 0 always stays in the coordinator.
    """

    def __init__(self, network, sims: Dict[int, Simulator], workers: int,
                 probes: Optional[Dict[int, Callable[[], dict]]] = None):
        if 0 not in sims:
            raise ValueError("shard 0 (coordinator) simulator is required")
        if workers < 1:
            raise ValueError("workers must be >= 1, got %r" % workers)
        self.network = network
        self.sims = dict(sims)
        self.workers = min(workers, len(self.sims))
        #: Per-shard report extras (e.g. node energy), run on whichever
        #: process owns the shard.  Closures survive ``fork``.
        self.probes = dict(probes or {})
        self._shard_order: List[int] = sorted(self.sims)
        #: Lookahead matrix and its separable (tx, rx) halves, cached
        #: against the network's topology version so membership changes
        #: (``add_jbof`` attaching a NIC) refresh the bound.
        self._matrix: Dict[Tuple[int, int], float] = {}
        self._tx_part: Dict[int, float] = {}
        self._rx_part: Dict[int, float] = {}
        self._matrix_version: Optional[int] = None
        self._min_lookahead: Optional[float] = None
        self._forked = False
        #: (process, pipe connection, shard ids) per forked worker.
        self._children: list = []
        self._parent_shards: List[int] = list(self._shard_order)
        #: Last reported next-event time (including worker-local kept
        #: records) and clock per remotely-owned shard.
        self._child_nexts: Dict[int, float] = {}
        self._child_nows: Dict[int, float] = {}
        #: Remotely-owned shards currently holding worker-local kept
        #: records; they must be activated next window exactly like
        #: shards with coordinator-side pending records.
        self._child_kept: Set[int] = set()
        #: Records awaiting injection, per destination shard, already
        #: in canonical order.
        self._pending: Dict[int, List[tuple]] = {sid: [] for sid in self.sims}
        #: Shared-memory blob directory: key -> (offset, length) for
        #: blobs written last window and consumed next window.
        self._blob_tables: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._slab: Optional[_PayloadSlab] = None
        self._round = 0
        self.stats = ExchangeStats()
        self._stopped = False
        self._final_reports: Optional[Dict[int, dict]] = None

    # -- introspection -------------------------------------------------------

    @property
    def forked(self) -> bool:
        """True once worker processes exist (state has diverged)."""
        return self._forked

    @property
    def lookahead_us(self) -> Optional[float]:
        """Smallest lookahead matrix entry, known after the first run."""
        return self._min_lookahead

    @property
    def lookahead_matrix(self) -> Dict[Tuple[int, int], float]:
        """The (src shard, dst shard) lookahead matrix currently in use."""
        return dict(self._matrix)

    def enable_schedule_digests(self) -> None:
        """Turn on schedule digests for every shard (pre-fork only)."""
        if self._forked:
            raise RuntimeError(
                "digests must be enabled before the first run() forks "
                "worker processes")
        for sim in self.sims.values():
            sim.enable_schedule_digest()

    # -- the windowed loop ---------------------------------------------------

    def run(self, until: Any = None) -> Any:
        """Windowed equivalent of :meth:`Simulator.run` for the cluster."""
        if self._stopped:
            raise RuntimeError("parallel engine already stopped")
        if self.workers >= 2 and not self._forked:
            self._fork()
        sim0 = self.sims[0]
        stop_event: Optional[Event] = None
        deadline = float("inf")
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is not None:
                stop_event.callbacks.append(sim0._stop_on_event)
            elif stop_event.triggered:
                return sim0._event_outcome(stop_event)
        else:
            deadline = float(until)
            if deadline < sim0.now:
                raise ValueError("cannot run until %r, now is %r"
                                 % (deadline, sim0.now))
        # User code running between run() calls (cluster.shutdown(),
        # test drivers poking shard-0 components) may have transmitted
        # cross-shard messages; fold them in before sizing the first
        # window or the horizon would miss them.
        self._absorb_boundary()

        while True:
            self._refresh_lookahead()
            nexts = self._shard_nexts()
            horizon = min(nexts.values())
            if horizon == float("inf"):
                if stop_event is not None:
                    raise RuntimeError(
                        "run() until an event, but the simulation ran out "
                        "of events before %r triggered" % stop_event)
                if deadline == float("inf"):
                    # Drained dry: align every shard clock to the global
                    # last-event time, as the single-simulator engine's
                    # shared clock would read (time-integrated reports
                    # like energy depend on it).
                    self._sync_all(self._max_now())
                break
            if horizon > deadline:
                break
            ends = self._window_ends(nexts, deadline)
            stop = self._run_window(nexts, ends,
                                    stop_check=stop_event is not None)
            if stop is not None:
                if stop_event is not None and stop_event.triggered:
                    return sim0._event_outcome(stop_event)
                return stop.value
        if deadline != float("inf"):
            self._sync_all(deadline)
        return None

    def settle(self, until: float) -> None:
        """Run every shard's events strictly before ``until`` and align
        all shard clocks to it.

        After ``run(until=event)`` returns, non-coordinator shards may
        still hold undispatched events earlier than the coordinator's
        clock.  Mid-run samplers (scenario gauges, energy meters) need
        the same global cut a single-simulator run would present:
        everything before ``until`` executed, events at exactly
        ``until`` still pending.  Exclusive at ``until`` on purpose —
        a serial ``run(until=event)`` leaves same-timestamp events
        scheduled after the stop for the next run, and so does this.
        """
        if self._stopped:
            raise RuntimeError("parallel engine already stopped")
        if self.workers >= 2 and not self._forked:
            self._fork()
        self._absorb_boundary()
        while True:
            self._refresh_lookahead()
            nexts = self._shard_nexts()
            if min(nexts.values()) >= until:
                break
            ends = self._window_ends(nexts, until, inclusive_deadline=False)
            # A stop escaping here belongs to an already-returned run();
            # nothing is waiting on it during a settle.
            self._run_window(nexts, ends)
        self._sync_all(until)

    def _refresh_lookahead(self) -> None:
        """Adopt the network's lookahead matrix if topology changed.

        Cached against :attr:`Network.topology_version`: a NIC attached
        by a mid-run membership change (``add_jbof``) can tighten a
        pair's bound, and using the stale larger value would break the
        conservative window guarantee.
        """
        version = self.network.topology_version
        if version == self._matrix_version:
            return
        matrix = self.network.cross_shard_lookahead()
        for (src, dst), delay in matrix.items():
            if delay <= 0.0:
                raise RuntimeError(
                    "non-positive cross-shard lookahead %r for shard pair "
                    "%r -> %r; conservative windows cannot make progress"
                    % (delay, src, dst))
        tx, rx = self.network.cross_shard_lookahead_parts()
        self._matrix = matrix
        self._tx_part = tx
        self._rx_part = rx
        self._min_lookahead = min(matrix.values()) if matrix else float("inf")
        self._matrix_version = version

    def _shard_nexts(self) -> Dict[int, float]:
        """Earliest pending event or undelivered record, per shard."""
        nexts = {}
        for sid in self._parent_shards:
            nexts[sid] = self.sims[sid].peek()
        nexts.update(self._child_nexts)
        for sid, records in self._pending.items():
            if records and records[0][0] < nexts[sid]:
                nexts[sid] = records[0][0]
        return nexts

    def _window_ends(self, nexts: Dict[int, float], deadline: float,
                     inclusive_deadline: bool = True
                     ) -> Dict[int, Tuple[float, bool]]:
        """Per-shard window end (end, inclusive) for one round.

        Shard ``d``'s end is its *earliest input time*: a lower bound
        on when any cross-shard record could still arrive.  A peer's
        next-event time alone is not a safe send bound — an idle peer
        can be woken by a relayed message (including one of ``d``'s
        own sends) and reply inside ``d``'s window.  The chain-safe
        bound is the fixed point of the Bellman relaxation over the
        lookahead graph; with the separable matrix
        ``L[(s, d)] = tx[s] + rx[d]`` it closes in one pass:

        * ``M   = min over r of nexts[r] + tx[r]`` — the earliest any
          cross-shard message could be *sent*, anywhere;
        * ``A_s = min(nexts[s], M + rx[s])`` — the earliest shard
          ``s`` could execute anything (own event, or the first
          deliverable relay);
        * ``EIT_d = min over s != d of (A_s + tx[s]) + rx[d]`` —
          last hop into ``d``.  Any longer chain only adds
          nonnegative ``tx + rx`` terms, so this is conservative for
          every relay depth.
        """
        inf = float("inf")
        tx = self._tx_part
        rx = self._rx_part
        earliest_send = inf
        for sid, nxt in nexts.items():
            t = nxt + tx.get(sid, inf)
            if t < earliest_send:
                earliest_send = t
        # Top-2 minima of g_s = A_s + tx[s], for self-exclusion on the
        # final hop (the last sender is never the destination).
        best = second = inf
        best_sid = None
        for sid, nxt in nexts.items():
            t_s = tx.get(sid, inf)
            a = earliest_send + rx.get(sid, inf)
            if nxt < a:
                a = nxt
            g = a + t_s
            if g < best:
                second = best
                best, best_sid = g, sid
            elif g < second:
                second = g
        ends = {}
        for sid in self._shard_order:
            g_min = second if sid == best_sid else best
            eit = g_min + rx.get(sid, inf)
            if eit > deadline:
                # Mirror Simulator.run(until=number): events at exactly
                # the deadline are dispatched (settle passes exclusive).
                ends[sid] = (deadline, inclusive_deadline)
            else:
                ends[sid] = (eit, False)
        return ends

    def _max_now(self) -> float:
        """Latest shard clock (the serial engine's notion of "now")."""
        latest = max(self.sims[sid].now for sid in self._parent_shards)
        for now in self._child_nows.values():
            if now > latest:
                latest = now
        return latest

    def _absorb_boundary(self) -> None:
        """Move stray boundary records into the pending queues."""
        records = self.network.take_boundary()
        if not records:
            return
        shard_of = self.network.shard_of
        touched = set()
        for record in sorted(records, key=lambda record: record[:4]):
            sid = shard_of(record[1])
            self._pending[sid].append(record)
            touched.add(sid)
        for sid in touched:
            self._pending[sid].sort(key=lambda record: record[:4])

    def _active_shards(self, nexts: Dict[int, float],
                       ends: Dict[int, Tuple[float, bool]]) -> Set[int]:
        """Shards that can dispatch something this window.

        Pending/kept records force activation (they are injected next
        window unconditionally, which both matches the serial engine's
        injection timing and bounds shared-memory blob lifetime to one
        round); otherwise a shard is active only when its next time
        falls inside its window.
        """
        active = set()
        for sid in self._shard_order:
            end, inclusive = ends[sid]
            nxt = nexts[sid]
            if (self._pending[sid] or sid in self._child_kept
                    or nxt < end or (inclusive and nxt <= end)):
                active.add(sid)
        return active

    def _run_window(self, nexts: Dict[int, float],
                    ends: Dict[int, Tuple[float, bool]],
                    stop_check: bool = False):
        """One window on the active shards; exchange at the barrier.

        Returns the :class:`~repro.sim.errors.StopSimulation` escaping
        a coordinator-shard callback, or ``None``.

        With ``stop_check`` (a ``run(until=event)`` is in flight) the
        coordinator shard runs *first*: window order within a round is
        free — every end was computed from the same pre-round state —
        and if the stop fires at ``T`` the remaining shards' windows
        are capped at ``T`` (exclusive).  No shard then overshoots the
        stop time, so a sampler reading cross-shard state right after
        ``run()`` (energy gauges between scenario phases) sees the
        same cut a serial ``run(until=event)`` leaves.  Shards holding
        pending or kept records stay active even when capped: their
        injection must happen this round to keep shared-memory blob
        lifetime at one window.
        """
        stats = self.stats
        stats.windows += 1
        parity = self._round & 1
        self._round += 1
        stop = None
        coordinator_ran = False
        if stop_check and 0 in self._parent_shards:
            end0, inclusive0 = ends[0]
            if (self._pending[0] or nexts[0] < end0
                    or (inclusive0 and nexts[0] <= end0)):
                coordinator_ran = True
                records = self._pending[0]
                if records:
                    self._pending[0] = []
                    self._inject(records, self._blob_tables)
                stop = self.sims[0].run_window(end0, inclusive0)
                if stop is not None:
                    stopped_at = self.sims[0].now
                    for sid in self._shard_order:
                        if sid != 0 and stopped_at < ends[sid][0]:
                            ends[sid] = (stopped_at, False)
        active = self._active_shards(nexts, ends)
        stats.shard_windows += len(active)
        stats.elided_shard_windows += len(self.sims) - len(active)
        blob_tables = self._blob_tables
        self._blob_tables = {}
        messaged = []
        for proc, conn, shard_ids, slot in self._children:
            child_active = [sid for sid in shard_ids if sid in active]
            if not child_active:
                stats.elided_child_messages += 1
                continue
            routed = {}
            table = {}
            for sid in child_active:
                records = self._pending[sid]
                if records:
                    self._pending[sid] = []
                    routed[sid] = records
                    for record in records:
                        ref = record[5]
                        if type(ref) is _BlobRef:
                            table[ref.key] = blob_tables[ref.key]
            child_ends = {sid: ends[sid] for sid in child_active}
            stats.child_messages += 1
            stats.frame_bytes += _send_frame(
                conn, ("run", parity, child_ends, routed, table))
            messaged.append(conn)
        for sid in self._parent_shards:
            if sid not in active or (sid == 0 and coordinator_ran):
                continue
            records = self._pending[sid]
            if records:
                self._pending[sid] = []
                self._inject(records, blob_tables)
            end, inclusive = ends[sid]
            outcome = self.sims[sid].run_window(end, inclusive)
            if outcome is not None:
                stop = outcome
        boundary = self.network.take_boundary()
        for conn in messaged:
            reply = self._recv(conn)
            _, shipped, table, child_nexts, child_nows, kept_sids, counts \
                = reply
            boundary.extend(shipped)
            self._blob_tables.update(table)
            self._child_nexts.update(child_nexts)
            self._child_nows.update(child_nows)
            self._child_kept.difference_update(child_nexts)
            self._child_kept.update(kept_sids)
            stats.records_child_local += counts[0]
            stats.records_via_shm += counts[1]
            stats.records_inline += counts[2]
            stats.shm_blob_bytes += counts[3]
        self._distribute(boundary, ends)
        return stop

    def _inject(self, records: List[tuple],
                blob_tables: Dict[Tuple[int, int], Tuple[int, int]]) -> None:
        """Inject routed records, resolving shared-memory payloads."""
        inject = self.network.inject
        cache: Dict[Tuple[int, int], list] = {}
        for record in records:
            payload = record[5]
            if type(payload) is _BlobRef:
                payloads = cache.get(payload.key)
                if payloads is None:
                    offset, length = blob_tables[payload.key]
                    payloads = pickle.loads(self._slab.read(offset, length))
                    cache[payload.key] = payloads
                record = record[:5] + (payloads[payload.index],)
            inject(record)

    def _distribute(self, boundary: List[tuple],
                    ends: Dict[int, Tuple[float, bool]]) -> None:
        """Canonical merge: identical record sets must reach each pump
        in identical order regardless of which process produced them
        (pump insertion order shapes drain-event sequence numbers and
        therefore the shard's schedule digest)."""
        if not boundary:
            return
        boundary.sort(key=lambda record: record[:4])
        self.stats.records_exchanged += len(boundary)
        shard_of = self.network.shard_of
        for record in boundary:
            sid = shard_of(record[1])
            if __debug__:
                end = ends[sid][0]
                assert record[0] >= end - 1e-9, (
                    "cross-shard record at %r violates shard %d's window "
                    "end %r (lookahead bound broken)" % (record[0], sid, end))
            self._pending[sid].append(record)

    def _sync_all(self, when: float) -> None:
        """Mirror ``run(until=number)``'s final clock advance everywhere."""
        for proc, conn, shard_ids, slot in self._children:
            _send_frame(conn, ("sync", when))
        for sid in self._parent_shards:
            self.sims[sid].sync_now(when)
        for proc, conn, shard_ids, slot in self._children:
            self._recv(conn)
        for sid, now in self._child_nows.items():
            if now < when:
                self._child_nows[sid] = when

    # -- worker processes ----------------------------------------------------

    def _fork(self) -> None:
        """Spread non-coordinator shards over forked worker processes."""
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self.workers = 1
            return
        remote = [sid for sid in self._shard_order if sid != 0]
        child_count = min(self.workers - 1, len(remote))
        if child_count < 1:
            self.workers = 1
            return
        assignment: List[List[int]] = [[] for _ in range(child_count)]
        for index, sid in enumerate(remote):
            assignment[index % child_count].append(sid)
        if _shared_memory is not None:
            # Created before fork so every worker inherits the mapping.
            self._slab = _PayloadSlab(child_count, SLAB_REGION_BYTES)
        for slot, shard_ids in enumerate(assignment):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=self._child_main, args=(child_conn, shard_ids, slot),
                daemon=True)
            process.start()
            child_conn.close()
            self._children.append((process, parent_conn, shard_ids, slot))
        owned = {sid for shard_ids in assignment for sid in shard_ids}
        self._parent_shards = [sid for sid in self._shard_order
                               if sid not in owned]
        for sid in owned:
            self._child_nexts[sid] = self.sims[sid].peek()
            self._child_nows[sid] = self.sims[sid].now
        self._forked = True

    def _child_main(self, conn, shard_ids: List[int], slot: int) -> None:
        """Worker loop: step owned shards window by window."""
        import traceback
        sims = {sid: self.sims[sid] for sid in shard_ids}
        network = self.network
        shard_of = network.shard_of
        owned = set(shard_ids)
        slab = self._slab
        #: Cross-shard records between two shards this worker owns:
        #: retained locally, never crossing the pipe.
        kept: Dict[int, List[tuple]] = {sid: [] for sid in shard_ids}
        sort_key = lambda record: record[:4]  # noqa: E731
        while True:
            message = _recv_frame(conn)
            kind = message[0]
            try:
                if kind == "run":
                    _, parity, ends, routed, table = message
                    cache: Dict[Tuple[int, int], list] = {}
                    for sid in sorted(ends):
                        records = routed.get(sid, [])
                        local = kept[sid]
                        if local:
                            kept[sid] = []
                            records = records + local
                            records.sort(key=sort_key)
                        for record in records:
                            payload = record[5]
                            if type(payload) is _BlobRef:
                                payloads = cache.get(payload.key)
                                if payloads is None:
                                    offset, length = table[payload.key]
                                    payloads = pickle.loads(
                                        slab.read(offset, length))
                                    cache[payload.key] = payloads
                                record = record[:5] + (
                                    payloads[payload.index],)
                            network.inject(record)
                        end, inclusive = ends[sid]
                        sims[sid].run_window(end, inclusive)
                    shipped: List[tuple] = []
                    by_dst: Dict[int, List[tuple]] = {}
                    n_kept = 0
                    for record in network.take_boundary():
                        dst_sid = shard_of(record[1])
                        if dst_sid in owned:
                            kept[dst_sid].append(record)
                            n_kept += 1
                        else:
                            by_dst.setdefault(dst_sid, []).append(record)
                    for sid in owned:
                        if kept[sid]:
                            kept[sid].sort(key=sort_key)
                    table_out = {}
                    n_shm = n_inline = blob_bytes = 0
                    if slab is not None:
                        cursor = slab.base(slot, parity)
                        limit = cursor + slab.region_bytes
                    for dst_sid in sorted(by_dst):
                        records = by_dst[dst_sid]
                        if slab is None:
                            shipped.extend(records)
                            n_inline += len(records)
                            continue
                        blob = pickle.dumps(
                            [record[5] for record in records],
                            pickle.HIGHEST_PROTOCOL)
                        if cursor + len(blob) > limit:
                            # Slab half full: fall back to inline pipe
                            # payloads for this destination.
                            shipped.extend(records)
                            n_inline += len(records)
                            continue
                        slab.write(cursor, blob)
                        key = (slot, dst_sid)
                        table_out[key] = (cursor, len(blob))
                        cursor += len(blob)
                        blob_bytes += len(blob)
                        n_shm += len(records)
                        for index, record in enumerate(records):
                            shipped.append(
                                record[:5] + (_BlobRef(key, index),))
                    nexts = {}
                    for sid in shard_ids:
                        nxt = sims[sid].peek()
                        local = kept[sid]
                        if local and local[0][0] < nxt:
                            nxt = local[0][0]
                        nexts[sid] = nxt
                    nows = {sid: sims[sid].now for sid in shard_ids}
                    kept_sids = [sid for sid in shard_ids if kept[sid]]
                    _send_frame(conn, ("ok", shipped, table_out, nexts,
                                       nows, kept_sids,
                                       (n_kept, n_shm, n_inline,
                                        blob_bytes)))
                elif kind == "sync":
                    for sid in shard_ids:
                        sims[sid].sync_now(message[1])
                    _send_frame(conn, ("ok",))
                elif kind == "collect":
                    _send_frame(conn, {sid: self._shard_report(sid)
                                       for sid in shard_ids})
                elif kind == "exit":
                    _send_frame(conn, ("ok",))
                    return
                else:  # pragma: no cover - protocol guard
                    raise ValueError("unknown message %r" % (kind,))
            except Exception:
                _send_frame(conn, ("error", traceback.format_exc()))
                return

    def _recv(self, conn):
        """Read one worker reply, surfacing worker-side failures."""
        if not conn.poll(_WINDOW_TIMEOUT_S):  # pragma: no cover - hang guard
            raise RuntimeError("parallel worker did not answer within %.0fs"
                               % _WINDOW_TIMEOUT_S)
        blob = conn.recv_bytes()
        self.stats.frame_bytes += len(blob)
        reply = pickle.loads(blob)
        if isinstance(reply, tuple) and reply and reply[0] == "error":
            raise RuntimeError("parallel worker failed:\n%s" % reply[1])
        return reply

    # -- reporting / teardown ------------------------------------------------

    def _shard_report(self, sid: int) -> dict:
        sim = self.sims[sid]
        report = {
            "shard": sid,
            "now": sim.now,
            "events_dispatched": sim.events_dispatched,
            "schedule_digest": sim.schedule_digest,
            "digest_events": sim.schedule_digest_events,
        }
        probe = self.probes.get(sid)
        if probe is not None:
            report["probe"] = probe()
        return report

    def collect(self) -> Dict[int, dict]:
        """Per-shard reports (digest, event counts, probe payloads).

        Safe to call whenever no :meth:`run` is in progress — forked
        workers answer from their blocking receive between windows.
        After :meth:`stop_workers` the final snapshot is returned.
        """
        if self._final_reports is not None:
            return self._final_reports
        reports = {sid: self._shard_report(sid) for sid in self._parent_shards}
        for proc, conn, shard_ids, slot in self._children:
            _send_frame(conn, ("collect",))
        for proc, conn, shard_ids, slot in self._children:
            reports.update(self._recv(conn))
        return {sid: reports[sid] for sid in sorted(reports)}

    def stop_workers(self) -> None:
        """Terminate forked workers (idempotent); no further runs."""
        if self._stopped:
            return
        self._final_reports = self.collect()
        for proc, conn, shard_ids, slot in self._children:
            try:
                _send_frame(conn, ("exit",))
                self._recv(conn)
            except (OSError, EOFError, RuntimeError):  # pragma: no cover
                pass
        for proc, conn, shard_ids, slot in self._children:
            proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover - hang guard
                proc.terminate()
            conn.close()
        self._children = []
        if self._slab is not None:
            self._slab.close()
            self._slab.unlink()
            self._slab = None
        self._stopped = True
