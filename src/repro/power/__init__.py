"""Wall-power model and energy-efficiency accounting."""

from repro.power.meter import EnergyReport, energy_j

__all__ = ["EnergyReport", "energy_j"]
