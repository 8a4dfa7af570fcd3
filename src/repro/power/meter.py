"""Wall-power model and energy-efficiency accounting.

Stands in for the Watts Up Pro / HOBO loggers of §4.1.  A node's wall
power follows the linear idle→max model of :class:`PlatformSpec`,
driven half by its cores' and half by its SSD channels' busy fraction;
:func:`energy_j` is the exact integral of that model over a span of
simulated time, in closed form over the busy-time counters the
devices already keep, so reading it moves nothing.  Energy efficiency
is then requests completed per Joule — the paper's headline metric
(Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.hw.platforms import PlatformSpec


def energy_j(spec: PlatformSpec, elapsed_us: float, core_busy_us: float,
             channel_busy_us: float) -> Dict[str, float]:
    """Joules a node of platform ``spec`` drew over ``elapsed_us``, by
    part: ``idle`` (the idle draw over the whole span) and the active
    draw above it that its mean per-core (``cpu``) and mean per-channel
    SSD (``ssd``) busy time earned, each weighted one half."""
    active_w = spec.max_power_w - spec.idle_power_w
    return {"cpu": 0.5e-6 * active_w * core_busy_us,
            "idle": 1e-6 * spec.idle_power_w * elapsed_us,
            "ssd": 0.5e-6 * active_w * channel_busy_us}


@dataclass
class EnergyReport:
    """Requests-per-Joule accounting for a run."""

    requests_completed: int
    elapsed_us: float
    energy_joules: float
    label: str = ""

    @property
    def throughput_qps(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.requests_completed / (self.elapsed_us * 1e-6)

    @property
    def queries_per_joule(self) -> float:
        if self.energy_joules <= 0:
            return 0.0
        return self.requests_completed / self.energy_joules

    @property
    def mean_power_w(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.energy_joules / (self.elapsed_us * 1e-6)

    def __str__(self):
        return ("%s: %d reqs in %.3f s, %.1f J -> %.1f KQPS, %.1f KQueries/J"
                % (self.label or "run", self.requests_completed,
                   self.elapsed_us * 1e-6, self.energy_joules,
                   self.throughput_qps / 1e3, self.queries_per_joule / 1e3))
