"""Wall-power metering and energy-efficiency accounting.

Stands in for the Watts Up Pro / HOBO loggers of §4.1.  A
:class:`PowerMeter` integrates a node's wall power over simulated
time using the linear idle→max model of :class:`PlatformSpec`, driven
by the observed utilization of the node's cores and SSDs.  Energy
efficiency is then requests completed per Joule — the paper's
headline metric (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.hw.platforms import PlatformSpec
from repro.sim.core import Simulator
from repro.sim.record import Record


class PowerSample(Record):
    """One (time, watts) observation."""

    __slots__ = _FIELDS = ("time_us", "watts")

    def __init__(self, time_us: float, watts: float):
        self.time_us = time_us
        self.watts = watts


class PowerMeter:
    """Integrates one node's wall power over simulated time.

    The node reports utilization through callables supplied at
    construction; the meter samples them lazily whenever energy is
    requested, using trapezoidal integration over recorded samples.
    """

    def __init__(self, sim: Simulator, spec: PlatformSpec,
                 utilization_fn=None, name: str = "meter",
                 extra_idle_w: float = 0.0):
        self.sim = sim
        self.spec = spec
        self.name = name
        #: Flat additional draw (e.g. per-node switch share).
        self.extra_idle_w = extra_idle_w
        self._utilization_fn = utilization_fn or (lambda: 0.0)
        self._samples: List[PowerSample] = [
            PowerSample(sim.now, self._current_watts())]
        self._energy_j = 0.0
        self._last_time = sim.now
        self._last_watts = self._samples[0].watts

    def _current_watts(self) -> float:
        return self.spec.active_power_w(self._utilization_fn()) + self.extra_idle_w

    def sample(self) -> PowerSample:
        """Record a power observation now and fold it into the integral."""
        now = self.sim.now
        watts = self._current_watts()
        # Trapezoid between the previous sample and now.
        self._energy_j += 0.5 * (self._last_watts + watts) * (now - self._last_time) * 1e-6
        self._last_time = now
        self._last_watts = watts
        obs = PowerSample(now, watts)
        self._samples.append(obs)
        return obs

    def energy_joules(self) -> float:
        """Total energy consumed up to now."""
        self.sample()
        return self._energy_j

    def mean_power_w(self) -> float:
        if self.sim.now <= 0:
            return self._last_watts
        return self.energy_joules() / (self.sim.now * 1e-6)

    @property
    def samples(self) -> List[PowerSample]:
        return list(self._samples)


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


def cluster_energy(meters: List[PowerMeter]) -> float:
    """Total Joules across a set of node meters."""
    return sum(m.energy_joules() for m in meters)
