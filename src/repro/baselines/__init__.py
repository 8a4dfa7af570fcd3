"""Baseline systems reimplemented for comparison: FAWN-KV, KVell and a
leveled LSM-tree.

Every baseline store keeps the contract of :mod:`repro.core.datastore`
that LEED's store keeps: commands return an ``OpResult`` booked by
``OpStats.book`` (each ``*Stats`` extends ``OpStats``), CPU work is
charged through ``cpu_charge``, and ``scan(predicate, visit)`` hands
every live pair to ``visit`` inside the dispatch that read it.  So
FAWN and KVell run behind the full node machinery — RPC, chain
replication, membership with COPY migration, heartbeats — through
:func:`make_cluster`; the LSM is driven store-alone by the
``ablation_lsm`` bench.
"""

from repro.baselines.common import (
    FawnJBOFNode,
    KVellJBOFNode,
    SYSTEMS,
    make_cluster,
)
from repro.baselines.fawn.datastore import FawnConfig, FawnDataStore, FawnStats
from repro.baselines.kvell.btree import BTree
from repro.baselines.kvell.datastore import (
    KVellConfig,
    KVellDataStore,
    KVellStats,
)
from repro.baselines.lsm.bloom import BloomFilter
from repro.baselines.lsm.datastore import LsmConfig, LsmDataStore, LsmStats

__all__ = [
    "make_cluster",
    "SYSTEMS",
    "FawnJBOFNode",
    "KVellJBOFNode",
    "FawnDataStore",
    "FawnConfig",
    "FawnStats",
    "KVellDataStore",
    "KVellConfig",
    "KVellStats",
    "BTree",
    "LsmDataStore",
    "LsmConfig",
    "LsmStats",
    "BloomFilter",
]
