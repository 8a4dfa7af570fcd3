"""Scenario injection actions: environment events scheduled in phases.

Each action is a generator taking the :class:`ScenarioRuntime` (see
:mod:`repro.scenarios.runner`) plus the injection's kwargs.  Actions
go through the cluster/control-plane scenario hooks — registry-safe
RPC and the physical-injection methods on
:class:`~repro.core.cluster.LeedCluster` — never through direct node
method calls, so they stay within simlint's SIM006/SIM008 rules.

The registry is keyed by the ``action`` string in
:class:`~repro.scenarios.dsl.Injection`.
"""

from __future__ import annotations

from typing import Callable, Dict

#: Action registry: name -> generator function(runtime, **kwargs).
#: Module-level by design; mutated only at import time.
ACTIONS: Dict[str, Callable] = {}


def register_action(name: str):
    """Decorator: register an injection action under ``name``."""
    def wrap(fn):
        ACTIONS[name] = fn
        return fn
    return wrap


@register_action("crash")
def crash(rt, index: int):
    """Fail-stop one JBOF; the failure monitor will detect it."""
    address = rt.cluster.crash_jbof(index)
    rt.note("crash", jbof=index, address=address)
    yield rt.sim.timeout(0)


@register_action("recover")
def recover(rt, index: int):
    """Heal a fail-stopped JBOF's network + replay its WAL.

    Does *not* rejoin its vnodes — use ``rejoin`` for the full
    crash-recover-rejoin cycle.
    """
    address = rt.cluster.recover_jbof(index)
    rt.note("recover", jbof=index, address=address)
    yield rt.sim.timeout(0)


@register_action("rejoin")
def rejoin(rt, index: int):
    """Heal a crashed JBOF and join its vnodes back into the ring."""
    address = rt.cluster.recover_jbof(index)
    yield from rt.cluster.rejoin_jbof(index)
    rt.note("rejoin", jbof=index, address=address)


@register_action("power_blackout")
def power_blackout(rt, index: int, outage_us: float):
    """Pull the power, wait ``outage_us``, restore.

    Restoration is LEED's power-loss recovery (§3.2.3): the DRAM
    SegTbl is gone, so every store is rebuilt by scanning its flash
    key log, then the capacitor-backed WAL replays un-acked intents.
    The full report (scan + replay timing) lands in the scenario
    record's ``recovery.power`` list.
    """
    started = rt.sim.now
    rt.cluster.power_fail_jbof(index)
    rt.note("power_fail", jbof=index)
    yield rt.sim.timeout(outage_us)
    report = yield from rt.cluster.power_restore_jbof(index)
    rt.note("power_restore", jbof=index)
    rt.record_power_recovery(index, started, outage_us, report)


@register_action("drain")
def drain(rt, index: int):
    """Gracefully migrate every vnode off one JBOF."""
    yield from rt.cluster.drain_jbof(index)
    rt.note("drain", jbof=index)


@register_action("rejoin_drained")
def rejoin_drained(rt, index: int):
    """Join a drained (but healthy) JBOF's vnodes back."""
    yield from rt.cluster.rejoin_jbof(index)
    rt.note("rejoin_drained", jbof=index)


@register_action("rolling_upgrade")
def rolling_upgrade(rt, version: str = "v2", pause_us: float = 0.0):
    """Drain → replace → rejoin every JBOF in turn, under load."""
    started = rt.sim.now
    yield from rt.cluster.rolling_upgrade(version, pause_us=pause_us)
    rt.note("rolling_upgrade", version=version,
            duration_us=rt.sim.now - started)


@register_action("add_jbof")
def add_jbof(rt):
    """Provision one extra JBOF and join its vnodes (scale-out)."""
    node = yield from rt.cluster.add_jbof()
    rt.note("add_jbof", address=node.address)


@register_action("remove_jbof")
def remove_jbof(rt, index: int):
    """Drain and power down one JBOF (scale-in)."""
    yield from rt.cluster.remove_jbof(index)
    rt.note("remove_jbof", jbof=index)
