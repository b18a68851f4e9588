"""Pre-copy live migration of VMs.

Xen's live migration copies the guest's memory to the destination while
it keeps running, re-copying pages the guest dirties, then pauses the
guest for a final stop-and-copy round (the *downtime*) before resuming
it on the destination.

The model reproduces the three observations of Figures 10(b)/10(c):

1. migration time grows with the memory footprint (more data to move);
2. a VM running Wcount migrates slower than an idle one (dirty pages
   force extra copy rounds);
3. downtime varies widely across busy VMs (residual dirty set at the
   stop-and-copy point is workload- and timing-dependent).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.cluster.machine import PhysicalMachine
from repro.sim.engine import Simulator
from repro.sim.network import NetworkFabric
from repro.virt.vm import VirtualMachine


@dataclass
class MigrationRecord:
    """Outcome of one completed live migration."""

    vm_name: str
    src: str
    dst: str
    mem_mb: float
    migration_time_s: float
    downtime_ms: float
    activity_level: float


@dataclass
class MigrationConfig:
    """Tunables of the pre-copy model."""

    #: memory copied beyond the footprint per unit of guest activity
    #: (dirty-page re-copy amplification; activity in [0,1])
    dirty_amplification: float = 1.4
    #: minimum stop-and-copy downtime for an idle guest (ms)
    base_downtime_ms: float = 60.0
    #: extra expected downtime per unit activity (ms)
    activity_downtime_ms: float = 700.0
    #: multiplicative jitter applied to downtime (uniform +/- this)
    downtime_jitter: float = 0.5


class LiveMigration:
    """One in-flight migration; construct it to start it."""

    def __init__(
        self,
        sim: Simulator,
        fabric: NetworkFabric,
        vm: VirtualMachine,
        dst_pm: PhysicalMachine,
        on_complete: Optional[Callable[[MigrationRecord], None]] = None,
        config: Optional[MigrationConfig] = None,
        rng: Optional[random.Random] = None,
        extra_data_mb: float = 0.0,
    ) -> None:
        """``extra_data_mb`` models Hadoop's data sticky-ness: a VM that
        doubles as a DataNode (combined architecture, Figure 3 left)
        must drag its resident blocks along; the split architecture
        passes 0 here because data stays in the storage VMs."""
        if dst_pm is vm.pm:
            raise ValueError("destination must differ from current host")
        if extra_data_mb < 0:
            raise ValueError("extra_data_mb must be non-negative")
        self.sim = sim
        self.fabric = fabric
        self.vm = vm
        self.src_pm = vm.pm
        self.dst_pm = dst_pm
        self.on_complete = on_complete
        self.config = config or MigrationConfig()
        self.rng = rng or sim.fork_rng(f"migration:{vm.name}")
        self.started_at = sim.now
        self.record: Optional[MigrationRecord] = None
        self._activity = vm.activity_level()
        copy_mb = (
            vm.spec.mem_mb * (1.0 + self.config.dirty_amplification * self._activity)
            + extra_data_mb
        )
        obs = sim.obs
        obs.metrics.counter("migrations.started").inc()
        self._span = obs.tracer.begin(
            f"migrate:{vm.name}",
            category="migration",
            track="migration",
            src=self.src_pm.name,
            dst=dst_pm.name,
            mem_mb=vm.spec.mem_mb,
            copy_mb=copy_mb,
            activity=self._activity,
        ) if obs.tracer.enabled else None
        self._pause_span = None
        self._flow = fabric.start_flow(
            self.src_pm.name,
            dst_pm.name,
            copy_mb,
            on_complete=self._precopy_done,
            efficiency=vm.net_efficiency(),
            label=f"migrate:{vm.name}",
        )

    def _precopy_done(self) -> None:
        # stop-and-copy: pause the guest for the downtime window
        cfg = self.config
        self.vm.pause()
        tracer = self.sim.obs.tracer
        if tracer.enabled and self._span is not None:
            self._pause_span = tracer.begin(
                "stop-and-copy",
                category="migration",
                track="migration",
                parent=self._span,
                # causal edge: tasks stalled on this guest during the
                # pause window charge the overlap to virt overhead
                vm=self.vm.name,
                src=self.src_pm.name,
                dst=self.dst_pm.name,
            )
        jitter = 1.0 + cfg.downtime_jitter * (2.0 * self.rng.random() - 1.0)
        downtime_ms = (
            cfg.base_downtime_ms + cfg.activity_downtime_ms * self._activity
        ) * jitter
        self.sim.schedule(downtime_ms / 1000.0, lambda: self._finish(downtime_ms))

    def _finish(self, downtime_ms: float) -> None:
        vm = self.vm
        # quiesce: withdraw the in-flight work from the old PM's pools
        # and replay what remains on the new host
        replays = vm.drain()
        vm.relocate(self.dst_pm)
        vm.resume()
        for replay in replays:
            replay()
        self.record = MigrationRecord(
            vm_name=vm.name,
            src=self.src_pm.name,
            dst=self.dst_pm.name,
            mem_mb=vm.spec.mem_mb,
            migration_time_s=self.sim.now - self.started_at,
            downtime_ms=downtime_ms,
            activity_level=self._activity,
        )
        obs = self.sim.obs
        obs.metrics.counter("migrations.completed").inc()
        obs.metrics.histogram("migration.time_s").observe(self.record.migration_time_s)
        obs.metrics.histogram("migration.downtime_ms").observe(downtime_ms)
        obs.tracer.end(self._pause_span, downtime_ms=downtime_ms)
        obs.tracer.end(
            self._span,
            migration_time_s=self.record.migration_time_s,
            downtime_ms=downtime_ms,
        )
        if self.on_complete is not None:
            self.on_complete(self.record)
