"""LEED core: data store, compaction, I/O engine, flow control,
swapping, CRRS replication, recovery, and cluster membership."""

from repro.core.circular_log import CircularLog, LogFullError, LogRangeError
from repro.core.client import ClientResult, ClientStats, FrontEndClient
from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.compaction import CompactionConfig, CompactionStats, Compactor
from repro.core.datastore import (
    NOT_FOUND,
    OK,
    STORE_FULL,
    LeedDataStore,
    OpResult,
    StoreConfig,
    StoreStats,
)
from repro.core.flow_control import FlowController, PendingRequest
from repro.core.hashring import HashRing, VNode, ring_position
from repro.core.io_engine import (
    TOKEN_COST,
    KVCommand,
    OverloadError,
    PartitionIOEngine,
)
from repro.core.jbof import (
    JOINING,
    LEAVING,
    RUNNING,
    JBOFNode,
    LeedOptions,
    VNodeRuntime,
)
from repro.core.membership import ControlPlane, CopyTask, VNodeInfo
from repro.core.protocol import KVReply, KVRequest
from repro.core.recovery import RecoveryReport, recover_store
from repro.core.replication import (
    AbdQuorum,
    ChainReplication,
    CraqChain,
    ReplicationPolicy,
    make_policy,
    protocol_names,
    register_protocol,
)
from repro.core.segment import Bucket, KeyItem, Segment, key_hash
from repro.core.segtbl import SegTbl
from repro.core.wal import WalRecord, WalStats, WriteAheadLog

__all__ = [
    "CircularLog", "LogFullError", "LogRangeError",
    "LeedDataStore", "StoreConfig", "StoreStats", "OpResult",
    "OK", "NOT_FOUND", "STORE_FULL",
    "Segment", "Bucket", "KeyItem", "key_hash", "SegTbl",
    "Compactor", "CompactionConfig", "CompactionStats",
    "PartitionIOEngine", "KVCommand", "TOKEN_COST", "OverloadError",
    "FlowController", "PendingRequest",
    "HashRing", "VNode", "ring_position",
    "JBOFNode", "LeedOptions", "VNodeRuntime",
    "JOINING", "RUNNING", "LEAVING",
    "ControlPlane", "VNodeInfo", "CopyTask",
    "KVRequest", "KVReply",
    "FrontEndClient", "ClientResult", "ClientStats",
    "LeedCluster", "ClusterConfig",
    "recover_store", "RecoveryReport",
    "ReplicationPolicy", "ChainReplication", "CraqChain", "AbdQuorum",
    "make_policy", "protocol_names", "register_protocol",
    "WriteAheadLog", "WalRecord", "WalStats",
]
