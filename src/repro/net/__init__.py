"""Simulated network: fabric and RPC."""

from repro.net.rpc import (
    ENVELOPE_BYTES,
    OneWay,
    RpcEndpoint,
    RpcError,
    RpcRequest,
    RpcResponse,
    RpcTimeout,
    WIRE_OVERHEAD_BYTES,
)
from repro.net.topology import (
    NIC_1G,
    NIC_1G_USB,
    NIC_100G,
    Network,
    Nic,
    NicProfile,
    SwitchProfile,
)

__all__ = [
    "Network",
    "Nic",
    "NicProfile",
    "SwitchProfile",
    "NIC_100G",
    "NIC_1G",
    "NIC_1G_USB",
    "RpcEndpoint",
    "RpcError",
    "RpcTimeout",
    "RpcRequest",
    "RpcResponse",
    "OneWay",
    "ENVELOPE_BYTES",
    "WIRE_OVERHEAD_BYTES",
]
