"""Network fabric: NICs, links, and a ToR switch.

Models the testbed of §4.1 — hosts on a 100 Gbps Arista ToR switch —
at the level LEED's mechanisms care about: per-port serialization
delay (bandwidth), a fixed per-hop latency, and in-order delivery per
(src, dst) pair.  The embedded FAWN nodes attach via a 1 GbE profile
with USB2-stack latency.

Messages are opaque payloads with a byte size; the fabric charges
transmit serialization at the sender port, a switch hop, and receive
serialization at the receiver port, then hands the payload to the
receiving NIC's ``rx_handler``.

Delivery time is computed entirely from *sender-local* state (port
pacer, profiles, a per-destination in-order clamp), so a message is
fully described at transmit time by a plain record::

    (deliver_at, dst, src, seq, wire_bytes, payload)

Every record flows through the fabric's one :class:`DeliveryPump` — a
canonical inbox heap drained by
:data:`~repro.sim.core.DELIVERY_PRIORITY` events — so same-instant
deliveries land in record order, not in transmit order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.core import Simulator

#: An in-flight message: ``(deliver_at, dst, src, seq, wire_bytes,
#: payload)``.  The first four fields form a globally unique sort key
#: (``seq`` is the sender NIC's message counter), so sorting a batch of
#: records is deterministic and never compares payloads.
MessageRecord = Tuple[float, str, str, int, int, Any]


@dataclass(frozen=True)
class NicProfile:
    """Timing parameters for one NIC class."""

    name: str = "100gbe-rdma"
    #: Bandwidth in bytes per microsecond (100 Gb/s = 12 500 B/µs).
    bandwidth_bpus: float = 12500.0
    #: One-way fixed latency: NIC processing + cable, microseconds.
    base_latency_us: float = 1.0
    #: Maximum transmission unit; larger messages are segmented.
    mtu_bytes: int = 4096


#: Profiles for the three testbed NICs.
NIC_100G = NicProfile("100gbe-rdma", bandwidth_bpus=12500.0, base_latency_us=1.0)
NIC_1G_USB = NicProfile("1gbe-usb2", bandwidth_bpus=37.5, base_latency_us=40.0,
                        mtu_bytes=1500)
NIC_1G = NicProfile("1gbe", bandwidth_bpus=125.0, base_latency_us=15.0,
                    mtu_bytes=1500)


@dataclass(frozen=True)
class SwitchProfile:
    """A cut-through ToR switch."""

    name: str = "arista-7160"
    hop_latency_us: float = 0.5


class Nic:
    """One network port: paced transmit, callback receive."""

    def __init__(self, sim: Simulator, address: str,
                 profile: Optional[NicProfile] = None):
        self.sim = sim
        self.address = address
        self.profile = profile or NIC_100G
        #: Delivery callback ``rx_handler(src, payload)`` (a
        #: :class:`~repro.net.rpc.RpcEndpoint` installs its dispatcher):
        #: the fabric hands arriving payloads straight to it.  A port
        #: nobody listens on drops them.
        self.rx_handler = None
        self._tx_free_at = 0.0
        #: Last granted delivery time per destination (in-order clamp).
        self._pair_last: Dict[str, float] = {}
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.tx_messages = 0
        self.rx_messages = 0

    def __repr__(self):
        return "<Nic %s %s tx=%d rx=%d>" % (
            self.address, self.profile.name, self.tx_messages, self.rx_messages)


class DeliveryPump:
    """The fabric's delivery queue, draining in canonical order.

    Every delivery flows through one inbox heap keyed by the
    :data:`MessageRecord` sort key.  A single outstanding drain event
    (at :data:`~repro.sim.core.DELIVERY_PRIORITY`) pops all records due
    at its timestamp, so the dispatch suffix is a pure function of the
    inbox contents: identical record sequences produce identical
    schedules no matter in which order they were inserted.
    """

    def __init__(self, sim: Simulator, network: "Network"):
        self.sim = sim
        self.network = network
        self._inbox: List[MessageRecord] = []
        #: Times of the currently scheduled drain events, earliest first.
        self._drains: List[float] = []

    def insert(self, record: MessageRecord) -> None:
        """Queue one record; (re)schedule the drain if it is now due first."""
        when = record[0]
        sim = self.sim
        now = sim.now
        if when < now:
            raise ValueError(
                "delivery at %r is in the past (now=%r)" % (when, now))
        inbox = self._inbox
        heapq.heappush(inbox, record)
        head = inbox[0][0]
        drains = self._drains
        if not drains or head < drains[0]:
            heapq.heappush(drains, head)
            sim.schedule_delivery(head - now, self._drain)

    def _drain(self, _event) -> None:
        """Land every record due now on its destination NIC, in record
        order.  Partitions are re-checked here: a node that died
        mid-flight does not receive the message."""
        drains = self._drains
        heapq.heappop(drains)
        now = self.sim.now
        inbox = self._inbox
        network = self.network
        nics = network._nics
        partitioned = network._partitioned
        # <= rather than ==: the drain fires at now + (deliver_at - now),
        # which can round a few ulps past deliver_at.
        while inbox and inbox[0][0] <= now:
            _at, dst, src, _seq, wire, payload = heapq.heappop(inbox)
            if partitioned and (src in partitioned or dst in partitioned):
                continue
            receiver = nics[dst]
            receiver.rx_bytes += wire
            receiver.rx_messages += 1
            network.messages_delivered += 1
            if receiver.rx_handler is not None:
                receiver.rx_handler(src, payload)
        if inbox and (not drains or inbox[0][0] < drains[0]):
            head = inbox[0][0]
            heapq.heappush(drains, head)
            delay = head - now
            self.sim.schedule_delivery(delay if delay > 0.0 else 0.0,
                                       self._drain)

    def __repr__(self):
        return "<DeliveryPump pending=%d>" % len(self._inbox)


class Network:
    """A single-switch fabric connecting named NICs."""

    def __init__(self, sim: Simulator, switch: Optional[SwitchProfile] = None):
        self.sim = sim
        self.switch = switch or SwitchProfile()
        self._nics: Dict[str, Nic] = {}
        self.messages_delivered = 0
        #: When set, drops all traffic to/from these addresses (failure tests).
        self._partitioned: set = set()
        self._pump = DeliveryPump(sim, self)

    def attach(self, address: str,
               profile: Optional[NicProfile] = None) -> Nic:
        """Create and register a NIC under ``address``."""
        if address in self._nics:
            raise ValueError("address %r already attached" % address)
        nic = Nic(self.sim, address, profile)
        self._nics[address] = nic
        return nic

    def nic(self, address: str) -> Nic:
        return self._nics[address]

    # -- failure injection -------------------------------------------------------

    def partition(self, address: str) -> None:
        """Silently drop all traffic involving ``address``."""
        self._partitioned.add(address)

    def heal(self, address: str) -> None:
        self._partitioned.discard(address)

    # -- transmission --------------------------------------------------------------

    def transmit(self, src: str, dst: str, nbytes: int, payload: Any) -> None:
        """Send ``payload`` of ``nbytes`` from ``src`` to ``dst``.

        Fire-and-forget: the payload reaches the destination NIC's
        ``rx_handler(src, payload)`` after serialization + switch +
        propagation delays.
        Delivery is in order per (src, dst): the sender pacer is FIFO
        and the receive-side term is clamped to the pair's last granted
        delivery time.  The clamp is needed for mixed profiles (a small
        message can out-serialize a large predecessor at a slow
        receiver port) and only ever *delays* a delivery.

        Only *sender-local* state is read or written; a destination
        partition is checked at delivery time (a sender cannot observe
        a remote failure before its message crosses the fabric).
        """
        try:
            sender = self._nics[src]
            receiver = self._nics[dst]
        except KeyError:
            raise KeyError("unknown endpoint in %r -> %r"
                           % (src, dst)) from None
        if self._partitioned and src in self._partitioned:
            return  # dropped silently, like a dead cable
        wire = nbytes if nbytes >= 1 else 1
        profile = sender.profile
        # Paced transmit: the port serializes one message at a time.
        start = self.sim.now
        if start < sender._tx_free_at:
            start = sender._tx_free_at
        tx_done = sender._tx_free_at = start + wire / profile.bandwidth_bpus
        sender.tx_bytes += wire
        sender.tx_messages += 1
        deliver_at = (tx_done + profile.base_latency_us
                      + self.switch.hop_latency_us
                      + wire / receiver.profile.bandwidth_bpus)
        pair_last = sender._pair_last
        last = pair_last.get(dst)
        if last is not None and deliver_at < last:
            deliver_at = last
        pair_last[dst] = deliver_at
        self._pump.insert(
            (deliver_at, dst, src, sender.tx_messages, wire, payload))
