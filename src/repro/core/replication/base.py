"""The pluggable replication-policy interface.

A :class:`ReplicationPolicy` owns everything about how one node's
writes reach its peers and how reads find a consistent value: the
write fan-out, the acknowledgment flow, dirty-read resolution, and
the WAL-replay step that runs when a crashed node recovers.  The
node (:class:`repro.core.jbof.JBOFNode`) keeps the protocol-neutral
machinery — view validation, engine execution, COPY migration — and
delegates every replication decision to its policy object.

Policies are registered by name (``"chain"``, ``"craq"``, ``"abd"``)
and selected through ``ClusterConfig(replication_protocol=...)``.
Adding a protocol is a drop-in: subclass :class:`ReplicationPolicy`,
implement the hooks, and call :func:`register_protocol` — no node or
cluster changes needed.

Digest discipline: constructing a policy and registering its RPC
handlers creates no simulation events, so protocol selection never
perturbs the schedule of runs that don't exercise the new paths.
"""

from __future__ import annotations

from typing import Dict, List


class ReplicationPolicy:
    """Base class for replication protocols.

    One policy instance lives on each :class:`JBOFNode`; it reaches
    the node's RPC endpoint, ring view, vnode runtimes, and engine
    helpers through ``self.node``.  The read/write hooks are
    simulation generators invoked from the node's KV dispatch —
    ``yield from`` delegation, so a hook that performs the same
    operations as the code it replaced produces the same event
    schedule.

    Hook contract (all receive the validated ``(runtime, request,
    body, chain)`` of a KV command whose view check already passed):

    * :meth:`on_client_write` — a write entering the protocol at this
      replica (``hop == 0``); must eventually answer ``request``.
    * :meth:`on_forward` — a write arriving from a peer replica
      (``hop > 0``); chain protocols continue the chain here.
    * :meth:`serve_read` — a GET addressed to this replica; must
      answer ``request`` (possibly by forwarding the envelope).
    * :meth:`on_ack` — the protocol's acknowledgment handler (chain's
      backward ack; unused by quorum protocols).  Synchronous: it runs
      in the delivery event and continues from callbacks, not a
      process.
    * :meth:`on_membership_change` / :meth:`on_peer_failure` —
      synchronous view-change notifications (no events allowed).
    * :meth:`replay` — WAL recovery: re-establish one journaled write
      in the current view, returning True (re-proposed) or False
      (already durable / no longer placeable); raise to keep the
      record journaled for a later attempt.
    """

    #: Registry key; subclasses override.
    name = "abstract"

    def __init__(self, node):
        self.node = node

    # -- wiring --------------------------------------------------------------

    def register_handlers(self) -> None:
        """Register this protocol's RPC methods on the node."""

    # -- datapath hooks ------------------------------------------------------

    def on_client_write(self, runtime, request, body, chain):
        raise NotImplementedError
        yield  # pragma: no cover - generator marker

    def on_forward(self, runtime, request, body, chain):
        raise NotImplementedError
        yield  # pragma: no cover - generator marker

    def serve_read(self, runtime, request, body, chain):
        raise NotImplementedError
        yield  # pragma: no cover - generator marker

    def on_ack(self, src: str, ack) -> None:
        raise NotImplementedError

    def fast_read_local(self, runtime, body, chain) -> bool:
        """Whether the fast datapath may serve this GET locally,
        callback-style, without entering :meth:`serve_read`.  Only
        protocols whose local read is linearizable for the given
        (replica, key) state may return True."""
        return False

    # -- control-plane hooks -------------------------------------------------

    def on_membership_change(self, update) -> None:
        """A new ring view was installed.  Synchronous; no events."""

    def on_peer_failure(self, vnode_id: str) -> None:
        """A vnode left the ring (crash or leave).  Synchronous."""

    # -- recovery ------------------------------------------------------------

    def replay(self, runtime, record):
        """Generator: re-establish one WAL record in the current view."""
        raise NotImplementedError
        yield  # pragma: no cover - generator marker

    def committed_stamp(self, runtime, key: bytes):
        """The protocol's committed ordering stamp for ``key`` at this
        replica (chain version int, ABD timestamp tuple).  Conformance
        tests use this to check per-key monotonicity."""
        return 0

    def migration_stamp(self, runtime, key: bytes) -> int:
        """Monotonic per-key stamp for COPY/mirror migration ordering.

        Captured at the source when a pair is scanned (COPY) or
        committed (mirror) and compared at the destination, so a scan
        snapshot that was buffered across a newer committed write
        cannot be applied over it.  Chain replicas count applies in
        ``applied_version``; quorum protocols override with their own
        ordering stamp.
        """
        return runtime.applied_version.get(key, 0)

    def on_migrated(self, runtime, key: bytes, stamp) -> None:
        """A COPY/mirror pair for ``key`` was applied at this replica
        with the source's migration ``stamp``.  Synchronous; no events.

        Protocols whose read quorums compare per-key stamps across
        replicas must adopt the migrated stamp here: after a ring
        change the destination holds the value but would otherwise
        vote the zero stamp, letting a stale pre-change replica outvote
        it and read-repair an acked write away.  Chain replication
        keeps the default no-op — its counters are per-replica and
        reads serialize through the tail, never by stamp comparison.
        """

    def __repr__(self):
        return "<%s on %s>" % (type(self).__name__, self.node.address)


#: name -> policy class.  Populated by register_protocol at import
#: time; repro.core.replication registers the built-in protocols.
_REGISTRY: Dict[str, type] = {}


def register_protocol(cls: type) -> type:
    """Register a policy class under ``cls.name`` (decorator-friendly)."""
    _REGISTRY[cls.name] = cls
    return cls


def protocol_names() -> List[str]:
    """Registered protocol names, sorted for stable error messages."""
    return sorted(_REGISTRY)


def make_policy(name: str, node) -> ReplicationPolicy:
    """Instantiate the protocol registered under ``name`` for ``node``."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown replication protocol %r; registered protocols: %s"
            % (name, ", ".join(protocol_names())))
    return cls(node)
