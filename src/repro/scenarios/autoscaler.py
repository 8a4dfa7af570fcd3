"""Reactive autoscaler: add/remove JBOFs on p99/energy signals.

The :class:`Autoscaler` is a background simulator process that wakes
every ``check_interval_us``, computes the p99 over the last 1 024
rows of the run's history (every :class:`CurveDriver` op), and:

* **scales out** (``LeedCluster.add_jbof``) when p99 exceeds
  ``p99_high_us`` and headroom remains,
* **scales in** (``LeedCluster.remove_jbof``) when p99 has fallen
  below ``p99_low_us`` — the extra node is then pure idle energy, the
  exact overprovisioning cost LEED's energy argument targets.

Every decision is recorded with the observed p99 and the cluster's
cumulative energy at that instant, and surfaces in the scenario
record under ``autoscaler.decisions``.
"""

from __future__ import annotations

from typing import List

from repro.scenarios.dsl import AutoscalerConfig


class Autoscaler:
    """One scenario run's scaling loop."""

    def __init__(self, runtime, config: AutoscalerConfig):
        self.rt = runtime
        self.config = config
        self.decisions: List[dict] = []
        #: Indices of JBOFs this autoscaler added (LIFO for scale-in).
        self._added: List[int] = []
        self._last_action_us = -config.cooldown_us

    def run(self):
        """Generator: the scaling loop; exits when the runtime stops."""
        while not self.rt.stopping:
            yield self.rt.sim.timeout(self.config.check_interval_us)
            if self.rt.stopping:
                return
            p99 = self.rt.recent_p99()
            if p99 is None:
                continue
            if self.rt.sim.now - self._last_action_us < self.config.cooldown_us:
                continue
            if (p99 > self.config.p99_high_us
                    and len(self._added) < self.config.max_extra_jbofs):
                node = yield from self.rt.cluster.add_jbof()
                self._added.append(len(self.rt.cluster.jbofs) - 1)
                self._record("scale_out", p99, node.address)
            elif p99 < self.config.p99_low_us and self._added:
                index = self._added.pop()
                yield from self.rt.cluster.remove_jbof(index)
                self._record("scale_in", p99, "jbof%d" % index)

    def _record(self, kind: str, p99: float, address: str) -> None:
        self._last_action_us = self.rt.sim.now
        decision = {
            "t_us": self.rt.sim.now,
            "action": kind,
            "address": address,
            "p99_us": round(p99, 3),
            "energy_joules": round(self.rt.cluster.energy_joules(), 6),
            "num_jbofs": sum(1 for node in self.rt.cluster.jbofs
                             if node.vnodes),
        }
        self.decisions.append(decision)
        self.rt.note("autoscale_%s" % kind, address=address,
                     p99_us=decision["p99_us"])
