"""Hardware models: flash, NVMe SSDs, CPUs, DRAM, platform specs."""

from repro.hw.cpu import CYCLE_COSTS, Core, CpuComplex
from repro.hw.dram import Dram, OutOfMemoryError
from repro.hw.flash import FlashArray, FlashError
from repro.hw.platforms import (
    RASPBERRY_PI,
    SERVER_JBOF,
    STINGRAY,
    PlatformSpec,
)
from repro.hw.ssd import SDCARD_PROFILE, NVMeSSD, SSDProfile, SSDStats

__all__ = [
    "FlashArray",
    "FlashError",
    "NVMeSSD",
    "SSDProfile",
    "SSDStats",
    "SDCARD_PROFILE",
    "Core",
    "CpuComplex",
    "CYCLE_COSTS",
    "Dram",
    "OutOfMemoryError",
    "PlatformSpec",
    "STINGRAY",
    "SERVER_JBOF",
    "RASPBERRY_PI",
]
