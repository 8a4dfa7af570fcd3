"""Consistent hashing over virtual nodes (§3.1.2, §3.7, §3.8).

LEED divides the key space into partitions and maps them to virtual
nodes with consistent hashing.  Each key's *chain* is the sequence of
R successor virtual nodes on the ring (preferring distinct JBOFs):
position 0 is the chain head, position R-1 the tail.

Rings are versioned; every request carries the client's ring version
plus a hop counter, and a node NACKs requests whose chain position
does not match its own view (§3.8.1).

A :class:`HashRing` is an immutable snapshot.  The control plane
builds one per version and member list and publishes it with its
membership update; every client and JBOF installs that object, so
they share it and its memos, and no holder mutates it (a membership
change is a new snapshot).  The memos are pure: a chain depends only
on the key and the members.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

RING_SPACE = 1 << 32


def ring_position(label: bytes) -> int:
    """Position of a label (vnode id or key) on the ring."""
    digest = hashlib.md5(label).digest()
    return int.from_bytes(digest[:4], "big") % RING_SPACE


@dataclass(frozen=True)
class VNode:
    """One virtual node: a store partition hosted on a JBOF."""

    vnode_id: str
    jbof_address: str

    @property
    def position(self) -> int:
        return ring_position(self.vnode_id.encode("utf-8"))


class HashRing:
    """An immutable snapshot of the ring at one version."""

    def __init__(self, vnodes: List[VNode], replication: int = 3,
                 version: int = 0):
        if replication < 1:
            raise ValueError("replication factor must be >= 1")
        self.version = version
        self.replication = replication
        self.vnodes: Dict[str, VNode] = {v.vnode_id: v for v in vnodes}
        entries = sorted((v.position, v.vnode_id) for v in vnodes)
        self._positions = [p for p, _ in entries]
        self._ids = [i for _, i in entries]
        # Pure-compute memoization: ring snapshots are immutable, so a
        # walk from a given start index always yields the same chain.
        # Cached lists are shared — callers must treat them as
        # read-only (all current callers do).
        self._succ_cache: Dict[Tuple[int, int, bool], List[VNode]] = {}
        self._chain_cache: Dict[bytes, List[VNode]] = {}
        self._chain_ids_cache: Dict[bytes, List[str]] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, vnode_id: str) -> bool:
        return vnode_id in self.vnodes

    # -- lookup --------------------------------------------------------------------

    def successors(self, position: int, count: int,
                   distinct_jbofs: bool = True) -> List[VNode]:
        """``count`` vnodes clockwise from ``position``.

        Prefers vnodes on distinct JBOFs (replicas should not share a
        failure domain); falls back to repeats when the cluster has
        fewer JBOFs than replicas.
        """
        if not self._ids:
            return []
        start = bisect_right(self._positions, position) % len(self._ids)
        cache_key = (start, count, distinct_jbofs)
        cached = self._succ_cache.get(cache_key)
        if cached is not None:
            return cached
        chosen: List[VNode] = []
        seen_jbofs = set()
        # First pass: distinct JBOFs.
        for step in range(len(self._ids)):
            vnode = self.vnodes[self._ids[(start + step) % len(self._ids)]]
            if distinct_jbofs and vnode.jbof_address in seen_jbofs:
                continue
            chosen.append(vnode)
            seen_jbofs.add(vnode.jbof_address)
            if len(chosen) == count:
                self._succ_cache[cache_key] = chosen
                return chosen
        # Not enough distinct JBOFs: fill with remaining successors.
        for step in range(len(self._ids)):
            vnode = self.vnodes[self._ids[(start + step) % len(self._ids)]]
            if vnode in chosen:
                continue
            chosen.append(vnode)
            if len(chosen) == count:
                break
        self._succ_cache[cache_key] = chosen
        return chosen

    #: Bound on the per-snapshot key -> chain memo (keys recur heavily
    #: under zipfian workloads; the cap just stops pathological growth).
    CHAIN_CACHE_MAX = 65536

    def chain_for_key(self, key: bytes) -> List[VNode]:
        """The replication chain (head..tail) responsible for ``key``."""
        chain = self._chain_cache.get(key)
        if chain is None:
            chain = self.successors(ring_position(key), self.replication)
            if len(self._chain_cache) < self.CHAIN_CACHE_MAX:
                self._chain_cache[key] = chain
        return chain

    def chain_ids_for_key(self, key: bytes) -> List[str]:
        """Chain member vnode ids (head..tail) for ``key``."""
        ids = self._chain_ids_cache.get(key)
        if ids is None:
            ids = [v.vnode_id for v in self.chain_for_key(key)]
            if len(self._chain_ids_cache) < self.CHAIN_CACHE_MAX:
                self._chain_ids_cache[key] = ids
        return ids

    def owner_ranges(self, vnode_id: str) -> List[Tuple[int, int]]:
        """Ring arcs for which ``vnode_id`` appears in the chain.

        Returned as half-open arcs ``(lo, hi]`` in ring space (wrapping
        arcs are split in two).  Used by COPY to decide which keys to
        migrate (§3.8.1).
        """
        if vnode_id not in self.vnodes or not self._ids:
            return []
        n = len(self._ids)
        if n == 1:
            return [(0, RING_SPACE)]
        arcs: List[Tuple[int, int]] = []
        for index in range(n):
            arc_hi = self._positions[index]
            arc_lo = self._positions[index - 1]
            chain = self.successors(arc_lo, self.replication)
            if any(v.vnode_id == vnode_id for v in chain):
                if arc_lo < arc_hi:
                    arcs.append((arc_lo, arc_hi))
                else:  # wrap
                    arcs.append((arc_lo, RING_SPACE))
                    if arc_hi:
                        arcs.append((0, arc_hi))
        return _merge_arcs(arcs)

    def with_vnode(self, vnode: VNode, version: Optional[int] = None) -> "HashRing":
        """A new ring snapshot including ``vnode``."""
        vnodes = list(self.vnodes.values()) + [vnode]
        return HashRing(vnodes, self.replication,
                        self.version + 1 if version is None else version)

    def without_vnode(self, vnode_id: str,
                      version: Optional[int] = None) -> "HashRing":
        """A new ring snapshot excluding ``vnode_id``."""
        vnodes = [v for v in self.vnodes.values() if v.vnode_id != vnode_id]
        return HashRing(vnodes, self.replication,
                        self.version + 1 if version is None else version)

    def __repr__(self):
        return "<HashRing v%d %d vnodes R=%d>" % (
            self.version, len(self._ids), self.replication)


def _merge_arcs(arcs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge overlapping/adjacent (lo, hi] arcs."""
    if not arcs:
        return []
    arcs = sorted(arcs)
    merged = [arcs[0]]
    for lo, hi in arcs[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def in_arcs(position: int, arcs: List[Tuple[int, int]]) -> bool:
    """Whether a ring position falls inside any (lo, hi] arc."""
    for lo, hi in arcs:
        if lo < position <= hi:
            return True
    return False
