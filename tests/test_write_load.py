"""Key-log compaction keeps up with the 8 x 8 update load.

The shape is leedbench's ``ycsb_wr_compact`` at its specified load: 4
JBOFs x 2 SSDs, 3-way chain replication, 256 segments per partition,
a 1152 KB key ring and an 8 MB value log, 2 000 records of 256 B, then
10 000 YCSB-WR updates from 8 clients with 8 outstanding each.  The
busiest partition takes most of the writes; when its compactor scanned
one entry per read it fell behind, its key log sat at the compaction
reserve and 16-19 % of PUTs ended ``store_full``.  ~6 s.
"""

from repro.baselines import make_cluster
from repro.core.datastore import StoreConfig
from repro.workloads.ycsb import YCSBWorkload

SEED = 11
CLIENTS = 8
OUTSTANDING = 8
OPS = 10_000


def run_write_load(seed):
    """Load, then the closed-loop update phase; returns every status."""
    cluster = make_cluster(
        "leed", num_nodes=4, ssds_per_node=2, num_clients=CLIENTS,
        replication=3, seed=seed,
        store_config=StoreConfig(num_segments=256,
                                 key_log_bytes=1152 << 10,
                                 value_log_bytes=8 << 20))
    workload = YCSBWorkload("WR", num_records=2000, seed=seed,
                            value_size=256)
    sim = cluster.sim
    cluster.start()
    sim.run(until=sim.process(cluster.load(workload.load_pairs())))
    statuses = []
    budget = [OPS]

    def worker(client):
        while budget[0]:
            budget[0] -= 1
            operation = workload.next_operation()
            result = yield from client.put(operation.key, operation.value)
            statuses.append(result.status)

    workers = [sim.process(worker(client)) for client in cluster.clients
               for _slot in range(OUTSTANDING)]
    sim.run(until=sim.all_of(workers))
    compactions = sum(runtime.compactor.stats.key_rounds
                      for node in cluster.jbofs
                      for runtime in node.vnodes.values())
    return statuses, compactions


def test_eight_by_eight_updates_are_never_refused():
    statuses, compactions = run_write_load(SEED)
    assert len(statuses) == OPS
    assert compactions > 0
    assert statuses.count("store_full") == 0
    assert set(statuses) == {"ok"}
