"""RDMA-style verbs over the simulated fabric.

LEED's cross-node communication (§3.5) uses a hybrid of verbs:

* the **sender** passes commands with two-sided ``SEND`` (consumes a
  receive work request at the target, surfaces on its recv CQ);
* the **receiver** answers with one-sided ``WRITE`` carrying a 32-bit
  immediate, landing directly in a pre-allocated response buffer at
  the requester and signalling the requester's CQ with the IMM —
  which identifies the request without extra messages.

We keep the verb distinction explicit (different completion paths,
different per-verb counters) so that the memory-management asymmetry
the paper exploits is visible and testable, even though both verbs
ride the same simulated fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.net.topology import Network
from repro.sim.core import Simulator
from repro.sim.record import Record

#: Wire overhead per message: Ethernet + IP + UDP + RoCE BTH headers.
WIRE_OVERHEAD_BYTES = 58


class SendCompletion(Record):
    """Two-sided SEND arrival at the responder."""

    __slots__ = _FIELDS = ("src", "payload", "nbytes")

    def __init__(self, src: str, payload: Any, nbytes: int):
        self.src = src
        self.payload = payload
        self.nbytes = nbytes


class WriteCompletion(Record):
    """One-sided WRITE-with-IMM arrival at the requester."""

    __slots__ = _FIELDS = ("src", "imm", "payload", "nbytes")

    def __init__(self, src: str, imm: int, payload: Any, nbytes: int):
        self.src = src
        self.imm = imm
        self.payload = payload
        self.nbytes = nbytes


@dataclass
class MemoryRegion:
    """A registered buffer that remote WRITEs may target."""

    key: int
    size: int
    data: Any = None


class QueuePair:
    """One endpoint's RDMA context: send/recv queues plus verb stats.

    A single QP object per node suffices for this simulation — the
    fabric below already serializes per-port, which is the resource a
    real RC QP would contend on.
    """

    def __init__(self, sim: Simulator, network: Network, address: str):
        self.sim = sim
        self.network = network
        self.address = address
        self._regions: Dict[int, MemoryRegion] = {}
        self._next_key = 1
        self.sends_posted = 0
        self.writes_posted = 0
        #: Synchronous completion sinks, invoked at routing time with
        #: the completion record (:class:`~repro.net.rpc.RpcEndpoint`
        #: installs both); a completion nobody consumes is dropped.
        self.recv_handler = None
        self.write_handler = None
        self.nic = network.nic(address)
        # The fabric hands arriving payloads straight to ``_route``:
        # no rx-queue hop, no pump process.
        self.nic.rx_handler = self._route

    # -- memory registration -----------------------------------------------------

    def register_region(self, size: int) -> MemoryRegion:
        """Register a response buffer; returns its rkey handle."""
        region = MemoryRegion(key=self._next_key, size=size)
        self._next_key += 1
        self._regions[region.key] = region
        return region

    def deregister_region(self, key: int) -> None:
        self._regions.pop(key, None)

    # -- verbs ----------------------------------------------------------------------

    def post_send(self, dst: str, payload: Any, nbytes: int) -> None:
        """Two-sided SEND: payload pops on the destination's recv CQ."""
        self.sends_posted += 1
        wire = nbytes + WIRE_OVERHEAD_BYTES
        self.network.transmit(self.address, dst,
                              wire, ("SEND", self.address, payload, nbytes))

    def post_write_imm(self, dst: str, rkey: int, payload: Any,
                       nbytes: int, imm: int) -> None:
        """One-sided WRITE with immediate into the remote region ``rkey``."""
        self.writes_posted += 1
        wire = nbytes + WIRE_OVERHEAD_BYTES
        self.network.transmit(self.address, dst,
                              wire, ("WRITE_IMM", self.address, rkey, payload,
                                     nbytes, imm))

    # -- delivery ----------------------------------------------------------------------

    def _route(self, message) -> None:
        """Dispatch one fabric delivery to its completion sink."""
        kind = message[0]
        if kind == "SEND":
            _, src, payload, nbytes = message
            if self.recv_handler is not None:
                self.recv_handler(SendCompletion(src, payload, nbytes))
        elif kind == "WRITE_IMM":
            _, src, rkey, payload, nbytes, imm = message
            region = self._regions.get(rkey)
            if region is None:
                # Remote wrote to a deregistered buffer: a protection
                # fault on real hardware; drop here.
                return
            region.data = payload
            if self.write_handler is not None:
                self.write_handler(
                    WriteCompletion(src, imm, payload, nbytes))
        else:  # pragma: no cover - future verb kinds
            raise ValueError("unknown verb %r" % (kind,))

    def __repr__(self):
        return "<QueuePair %s sends=%d writes=%d>" % (
            self.address, self.sends_posted, self.writes_posted)
