"""LEED: a low-power, fast persistent key-value store on SmartNIC JBOFs.

A full-system reproduction of the SIGCOMM 2023 paper on a
discrete-event simulation substrate.  The package layers:

* :mod:`repro.sim` — the discrete-event engine (time unit: µs);
* :mod:`repro.hw` — flash/NVMe/CPU/DRAM models and platform specs;
* :mod:`repro.net` — fabric, RDMA verbs, RPC;
* :mod:`repro.power` — wall-power model, requests/Joule;
* :mod:`repro.core` — the LEED system itself (data store, compaction,
  token I/O engine, flow control, swapping, CRRS, membership);
* :mod:`repro.baselines` — FAWN-KV and KVell, reimplemented;
* :mod:`repro.workloads` — YCSB mixes and drivers;
* :mod:`repro.bench` — the per-figure/table experiment harness.

Quickstart::

    from repro import LeedCluster
    cluster = LeedCluster(num_jbofs=3, num_clients=1)
    cluster.start()

    def app(client):
        result = yield from client.put(b"hello", b"world")
        result = yield from client.get(b"hello")
        return result.value

    proc = cluster.sim.process(app(cluster.clients[0]))
    print(cluster.sim.run(until=proc))   # b"world"
"""

from repro.baselines import make_cluster
from repro.core.client import ClientResult, FrontEndClient
from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.compaction import CompactionConfig, Compactor
from repro.core.datastore import LeedDataStore, OpResult, StoreConfig
from repro.core.hashring import HashRing, VNode
from repro.core.io_engine import KVCommand, PartitionIOEngine
from repro.core.jbof import JBOFNode, LeedOptions
from repro.core.membership import ControlPlane
from repro.core.protocol import ReadPolicy
from repro.core.recovery import RecoveryReport, recover_store
from repro.obs import LatencyHistogram, MetricsRegistry, Tracer
from repro.telemetry import counters as telemetry_counters
from repro.telemetry import render as render_telemetry
from repro.hw.platforms import RASPBERRY_PI, SERVER_JBOF, STINGRAY
from repro.sim.core import Simulator
from repro.workloads.ycsb import YCSBWorkload

__version__ = "1.0.0"

__all__ = [
    "LeedCluster",
    "ClusterConfig",
    "LeedDataStore",
    "StoreConfig",
    "OpResult",
    "Compactor",
    "CompactionConfig",
    "PartitionIOEngine",
    "KVCommand",
    "JBOFNode",
    "LeedOptions",
    "ControlPlane",
    "ReadPolicy",
    "Tracer",
    "LatencyHistogram",
    "MetricsRegistry",
    "recover_store",
    "RecoveryReport",
    "telemetry_counters",
    "render_telemetry",
    "FrontEndClient",
    "ClientResult",
    "HashRing",
    "VNode",
    "YCSBWorkload",
    "Simulator",
    "make_cluster",
    "STINGRAY",
    "SERVER_JBOF",
    "RASPBERRY_PI",
    "__version__",
]
