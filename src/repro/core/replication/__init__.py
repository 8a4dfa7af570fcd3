"""Pluggable replication protocols for LEED nodes.

Importing this package registers the built-in protocols:

* ``"chain"`` — :class:`ChainReplication`, LEED's CRRS chain (§3.7);
* ``"craq"``  — :class:`CraqChain`, the version-query variant;
* ``"abd"``   — :class:`AbdQuorum`, majority quorums with per-key
  logical timestamps.

Select one with ``ClusterConfig(replication_protocol="...")``; see
``docs/replication.md`` for the interface and how to add a protocol.
"""

from repro.core.replication.abd import ZERO_STAMP, AbdQuorum
from repro.core.replication.base import (
    ReplicationPolicy,
    make_policy,
    protocol_names,
    register_protocol,
)
from repro.core.replication.chain import (
    VERSION_QUERY_BYTES,
    ChainReplication,
    CraqChain,
)

__all__ = [
    "ReplicationPolicy",
    "make_policy", "protocol_names", "register_protocol",
    "ChainReplication", "CraqChain", "AbdQuorum",
    "VERSION_QUERY_BYTES", "ZERO_STAMP",
]
