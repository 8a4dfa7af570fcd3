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

    (deliver_at, DELIVERY_PRIORITY, dst, src, seq, wire_bytes, payload, land)

Every record goes onto the simulator's own heap
(:meth:`~repro.sim.core.Simulator.post_delivery`); the dispatch loop
lands all records due at one instant as one event, after that
instant's normal events, so same-instant deliveries land in record
order, not in transmit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sim.core import DELIVERY_PRIORITY, Simulator

#: An in-flight message: ``(deliver_at, DELIVERY_PRIORITY, dst, src,
#: seq, wire_bytes, payload, land)``, with ``land`` the network's
#: :meth:`Network._land`.  The first five fields form a globally unique
#: sort key (``seq`` is the sender NIC's message counter), so the heap
#: orders records deterministically and never compares payloads.
MessageRecord = Tuple[float, int, str, str, int, int, Any,
                      Callable[[tuple], None]]


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


class Network:
    """A single-switch fabric connecting named NICs."""

    def __init__(self, sim: Simulator, switch: Optional[SwitchProfile] = None):
        self.sim = sim
        self.switch = switch or SwitchProfile()
        self._nics: Dict[str, Nic] = {}
        self.messages_delivered = 0
        #: When set, drops all traffic to/from these addresses (failure tests).
        self._partitioned: set = set()

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
        self.sim.post_delivery((deliver_at, DELIVERY_PRIORITY, dst, src,
                                sender.tx_messages, wire, payload,
                                self._land))

    def _land(self, record: MessageRecord) -> None:
        """Hand one record to its destination NIC, at its
        ``deliver_at`` (called by the simulator's dispatch loop).
        Partitions are re-checked here: a node that died mid-flight
        does not receive the message."""
        _at, _priority, dst, src, _seq, wire, payload, _land = record
        partitioned = self._partitioned
        if partitioned and (src in partitioned or dst in partitioned):
            return
        receiver = self._nics[dst]
        receiver.rx_bytes += wire
        receiver.rx_messages += 1
        self.messages_delivered += 1
        handler = receiver.rx_handler
        if handler is not None:
            handler(src, payload)
