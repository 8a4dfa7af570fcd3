"""Wire-level message bodies exchanged between clients and JBOFs.

Sizes are modeled explicitly (the fabric charges serialization per
byte), so each body knows its wire footprint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.hashring import HashRing
from repro.sim.record import Record

#: Fixed per-command header: op, ids, ring version, hop counter, tenant.
KV_HEADER_BYTES = 24


class ReadPolicy(str, enum.Enum):
    """Replica choice for GETs.

    * ``CRRS`` — the replica with the most available tokens, LEED's
      load-aware replica selection (§3.7);
    * ``TAIL`` — the chain tail only, classic chain replication
      (the FAWN-KV baseline);
    * ``ANY`` — round robin over serving replicas (a sharded KVell
      deployment).

    The enum subclasses :class:`str`, so ``ReadPolicy.TAIL == "tail"``
    holds and string comparisons keep working; arguments that take a
    policy accept the members only.
    """

    CRRS = "crrs"
    TAIL = "tail"
    ANY = "any"

    @classmethod
    def coerce(cls, value: Optional[object]) -> Optional["ReadPolicy"]:
        """Validate a policy argument.

        ``None`` passes through (callers apply their own default) and
        so do members; anything else raises ``ValueError`` listing
        the valid policies.
        """
        if value is None or isinstance(value, cls):
            return value
        raise ValueError(
            "invalid read policy %r; valid policies: %s"
            % (value, ", ".join(policy.value for policy in cls)))

    def __str__(self) -> str:
        return self.value

#: Statuses carried by KVReply.
STATUS_OK = "ok"
STATUS_NOT_FOUND = "not_found"
STATUS_STORE_FULL = "store_full"
STATUS_NACK = "nack"          # view mismatch; refresh ring and retry
STATUS_UNAVAILABLE = "unavailable"  # vnode not serving (JOINING/LEAVING)
STATUS_OVERLOADED = "overloaded"    # waiting queue overflow; retry later


class KVRequest(Record):
    """A client key-value command addressed to one vnode in a chain."""

    __slots__ = _FIELDS = ("op", "key", "value", "vnode_id", "ring_version",
                           "hop", "tenant", "trace", "deadline_us")

    def __init__(self, op: str, key: bytes, value: Optional[bytes] = None,
                 vnode_id: str = "", ring_version: int = 0, hop: int = 0,
                 tenant: str = "default", trace: Optional[object] = None,
                 deadline_us: Optional[float] = None):
        self.op = op                 # "get" | "put" | "del"
        self.key = key
        self.value = value
        self.vnode_id = vnode_id
        self.ring_version = ring_version
        self.hop = hop               # expected chain position of the target
        self.tenant = tenant
        #: Tracing context (:class:`repro.obs.spans.TraceContext`)
        #: carried alongside the command — simulation-side
        #: observability, never on the wire (excluded from
        #: :meth:`wire_bytes`).  ``None`` when the request is unsampled.
        self.trace = trace
        #: Absolute sim time after which the issuing client has given
        #: up on this attempt.  Replicas drop expired *writes* at the
        #: chain entry and commitment points: a retried write's earlier
        #: attempt surfacing from a congested queue after the client
        #: already acked a newer value would silently roll the key back
        #: (a lost acked write the scenario suite caught).  Rides the
        #: fixed-size header like ``trace`` — excluded from
        #: :meth:`wire_bytes`.
        self.deadline_us = deadline_us

    def wire_bytes(self) -> int:
        """Bytes this command occupies on the wire."""
        return (KV_HEADER_BYTES + len(self.key)
                + (len(self.value) if self.value else 0))


class KVReply(Record):
    """Response to a KVRequest, with the piggybacked token allocation."""

    __slots__ = _FIELDS = ("status", "value", "tokens", "served_by",
                           "ring_version")

    def __init__(self, status: str, value: Optional[bytes] = None,
                 tokens: int = 0, served_by: str = "", ring_version: int = 0):
        self.status = status
        self.value = value
        #: Tokens the serving partition allocates to this tenant (§3.5).
        self.tokens = tokens
        self.served_by = served_by
        #: Fresh ring version hint (set on NACK so clients resync faster).
        self.ring_version = ring_version

    def wire_bytes(self) -> int:
        """Bytes this reply occupies on the wire."""
        return KV_HEADER_BYTES + (len(self.value) if self.value else 0)


class ChainAck(Record):
    """Backward acknowledgment clearing dirty bits (§3.7)."""

    __slots__ = _FIELDS = ("key", "vnode_id", "chain", "index")

    def __init__(self, key: bytes, vnode_id: str,
                 chain: Optional[List[str]] = None, index: int = 0):
        self.key = key
        self.vnode_id = vnode_id     # the replica this ack is addressed to
        self.chain: List[str] = [] if chain is None else chain
        self.index = index           # position of vnode_id within chain

    def wire_bytes(self) -> int:
        return 16 + len(self.key)


@dataclass
class CopyBatch:
    """A batch of key-value pairs shipped by the COPY primitive (§3.8)."""

    src_vnode: str
    dst_vnode: str
    pairs: List[Tuple[bytes, bytes]] = field(default_factory=list)
    done: bool = False
    #: Source-side per-key migration stamps, parallel to ``pairs``,
    #: captured when each value was *read* (COPY scan) or committed
    #: (mirror forward).  The destination refuses a pair older than
    #: what it already applied for the key: a scan snapshot can sit in
    #: the batch buffer while the mirror forwards a newer committed
    #: write, and applying the buffered pair afterwards would roll the
    #: key back (a lost acked write the scenario suite caught).  Rides
    #: the per-entry header — excluded from :meth:`wire_bytes`.
    versions: Optional[List[int]] = None

    def wire_bytes(self) -> int:
        return 24 + sum(len(k) + len(v) for k, v in self.pairs)


@dataclass
class AbdQuery:
    """ABD phase-1 query: read a key's logical timestamp at one vnode.

    With ``want_value`` set (read path) the replica also returns its
    stored value, so one round trip yields the ``(stamp, value)`` pair
    the read quorum compares.
    """

    vnode_id: str
    key: bytes
    want_value: bool = False

    def wire_bytes(self) -> int:
        return 16 + len(self.key)


@dataclass
class AbdVote:
    """One replica's answer to an :class:`AbdQuery`."""

    vnode_id: str
    key: bytes
    stamp: Tuple[int, str] = (0, "")
    value: Optional[bytes] = None
    status: str = STATUS_OK

    def wire_bytes(self) -> int:
        return 24 + len(self.key) + (len(self.value) if self.value else 0)


@dataclass
class AbdCommit:
    """ABD phase-2 commit (and read-repair write-back): apply ``value``
    at ``stamp`` unless the replica already holds a newer stamp."""

    vnode_id: str
    op: str                      # "put" | "del"
    key: bytes
    value: Optional[bytes] = None
    stamp: Tuple[int, str] = (0, "")

    def wire_bytes(self) -> int:
        return 24 + len(self.key) + (len(self.value) if self.value else 0)


class Heartbeat(Record):
    """Periodic liveness beacon from a JBOF to the control plane."""

    __slots__ = _FIELDS = ("jbof_address", "sent_at_us")

    def __init__(self, jbof_address: str, sent_at_us: float):
        self.jbof_address = jbof_address
        self.sent_at_us = sent_at_us

    def wire_bytes(self) -> int:
        return 24


@dataclass
class MembershipUpdate:
    """Control-plane broadcast of a new ring snapshot."""

    ring_version: int
    vnodes: List[Tuple[str, str]]        # (vnode_id, jbof_address)
    states: List[Tuple[str, str]]        # (vnode_id, state)
    replication: int = 3
    #: Cluster-wide replication protocol name.  Packed into the
    #: existing fixed header (a one-byte tag on the wire), so the
    #: modeled footprint below is unchanged.
    replication_protocol: str = "chain"
    #: The control plane's immutable snapshot of ``vnodes``, which
    #: every receiver installs as is, so one ring and its chain memo
    #: serve every node at this version.  In process only: not part
    #: of the wire format or :meth:`wire_bytes`.
    ring: Optional[HashRing] = field(default=None, compare=False,
                                     repr=False)

    def wire_bytes(self) -> int:
        return 16 + 48 * len(self.vnodes)
