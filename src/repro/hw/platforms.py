"""Spec sheets for the three storage platforms the paper compares.

Numbers come from §2.1, §4.1, §4.3 and Table 1 of the paper plus the
referenced product sheets:

* **Stingray PS1100R SmartNIC JBOF** — 8-core ARM A72 @3.0 GHz, 8 GB
  DDR4, 100 GbE, PCIe Gen3 x16 switch, up to 4 NVMe SSDs; 45 W idle,
  52.5 W max active; onboard memory bandwidth 4390 MB/s.
* **Server JBOF** — 2x Intel Xeon Gold 5218 (32 cores @2.3 GHz), 96 GB
  DRAM, 100 GbE ConnectX-5, 4-8 NVMe SSDs; the 3-JBOF cluster draws
  756 W in §4.3 (252 W per node active).
* **Raspberry Pi 3B+ embedded node** — 4-core A53 @1.4 GHz, 1 GB
  DRAM, 1 GbE (USB2-attached, ~300 Mb/s effective), 32 GB SD card;
  3.6 W idle, 4.2 W active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hw.ssd import SDCARD_PROFILE, SSDProfile


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of one storage-node platform."""

    name: str
    num_cores: int
    freq_ghz: float
    dram_bytes: int
    dram_bandwidth_bpus: float
    nic_gbps: float
    max_ssds: int
    ssd_profile: SSDProfile
    idle_power_w: float
    max_power_w: float
    #: Extra watts when all cores poll (measured: +7.5 W on Stingray).
    polling_power_w: float

    # -- derived quantities used by Table 1 -------------------------------------

    def flash_bytes(self, num_ssds: Optional[int] = None) -> int:
        n = self.max_ssds if num_ssds is None else num_ssds
        return n * self.ssd_profile.capacity_bytes

    def storage_skew_ratio(self, num_ssds: Optional[int] = None) -> float:
        """Flash:DRAM size ratio — challenge C1 (Table 1 row 1)."""
        return self.flash_bytes(num_ssds) / self.dram_bytes

    def network_density_gbps_per_core(self) -> float:
        """GbE each core must drive — challenge C2 (Table 1 row 2)."""
        return self.nic_gbps / self.num_cores

    def storage_density_iops_per_core(self, io_bytes: int = 4096,
                                      num_ssds: Optional[int] = None) -> float:
        """4 KB random-read IOPS each core must drive (Table 1 row 3)."""
        n = self.max_ssds if num_ssds is None else num_ssds
        return n * self.ssd_profile.peak_read_iops(io_bytes) / self.num_cores

    def active_power_w(self, utilization: float = 1.0) -> float:
        """Wall power at a given utilization (linear idle->max model)."""
        utilization = min(max(utilization, 0.0), 1.0)
        return self.idle_power_w + utilization * (self.max_power_w - self.idle_power_w)


STINGRAY = PlatformSpec(
    name="stingray-ps1100r",
    num_cores=8,
    freq_ghz=3.0,
    dram_bytes=8 * 2**30,
    dram_bandwidth_bpus=4390.0,
    nic_gbps=100.0,
    max_ssds=4,
    ssd_profile=SSDProfile(),
    idle_power_w=45.0,
    max_power_w=52.5,
    polling_power_w=7.5,
)

SERVER_JBOF = PlatformSpec(
    name="xeon-server-jbof",
    num_cores=32,
    freq_ghz=2.3,
    dram_bytes=96 * 2**30,
    dram_bandwidth_bpus=20000.0,
    nic_gbps=100.0,
    max_ssds=8,
    ssd_profile=SSDProfile(),
    idle_power_w=180.0,
    max_power_w=252.0,
    polling_power_w=20.0,
)

RASPBERRY_PI = PlatformSpec(
    name="raspberry-pi-3b-plus",
    num_cores=4,
    freq_ghz=1.4,
    dram_bytes=1 * 2**30,
    dram_bandwidth_bpus=2000.0,
    nic_gbps=1.0,
    max_ssds=1,
    ssd_profile=SDCARD_PROFILE,
    idle_power_w=3.6,
    max_power_w=4.2,
    polling_power_w=0.3,
)

#: Per-node power of shared networking fabric: a FAWN cluster needs
#: rack switches; we charge a flat per-node share (§2.2.2).
SWITCH_SHARE_W = {"embedded": 1.5, "jbof": 5.0}
