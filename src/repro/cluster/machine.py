"""Physical machines and execution contexts.

A :class:`PhysicalMachine` is a server: a CPU pool (cores), a disk pool
(MB/s), a memory ledger, a NIC registered with the network fabric, and
a power model.

An :class:`ExecutionContext` is *where work runs*: directly on the
machine (:class:`NativeContext`), in the Xen privileged domain
(:class:`~repro.virt.vm.Dom0Context`), or inside a guest VM
(:class:`~repro.virt.vm.VirtualMachine`).  MapReduce TaskTrackers,
DataNodes and interactive services all execute against this interface,
which is what lets the same Hadoop model run on native, Dom-0, virtual
and hybrid clusters -- the comparison at the heart of the paper.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.power import PowerModel
from repro.cluster.resources import DEFAULT_PM_SPEC, Resources
from repro.sim.engine import Simulator
from repro.sim.network import NetworkFabric
from repro.sim.pool import PoolEntry, ResourcePool

if TYPE_CHECKING:  # pragma: no cover
    from repro.virt.vm import VirtualMachine


def _prune(table: Dict[PoolEntry, Any]) -> Dict[PoolEntry, Any]:
    """Drop finished or removed entries from an in-flight table, in place."""
    for entry in [e for e in table if e.done]:
        del table[entry]
    return table


class ExecutionContext:
    """Base class for anything tasks can run on.

    The context is the only owner of its in-flight work: one
    insertion-ordered table per resource maps each live pool entry to
    what its caller asked for.  One share policy (``_cpu_share``,
    ``_disk_share``, ``_memio_cap``; guests override it) sets every
    entry's cap, weight and efficiency, both when work is added and on
    :meth:`refresh_entries`.  The context also keeps the memory ledger.
    """

    def __init__(self, name: str, pm: "PhysicalMachine", mem_capacity_mb: float) -> None:
        self.name = name
        self._pm = pm
        self.mem_capacity_mb = mem_capacity_mb
        self.mem_used_mb = 0.0
        #: in-flight CPU work: entry -> requested cap
        self._cpu: Dict[PoolEntry, float] = {}
        #: in-flight disk work: entry -> (requested cap, efficiency penalty)
        self._disk: Dict[PoolEntry, Tuple[float, float]] = {}
        #: in-flight page-cache work
        self._memio: Dict[PoolEntry, None] = {}
        #: transient fault-injection multipliers in (0, 1]: CPU steal
        #: (noisy neighbour / hypervisor contention) and a degraded disk
        #: (remapped sectors, failing controller).  Applied on top of the
        #: virtualization efficiency model; 1.0 means healthy.
        self.degrade_cpu_factor = 1.0
        self.degrade_disk_factor = 1.0

    # -- identity -------------------------------------------------------
    @property
    def pm(self) -> "PhysicalMachine":
        return self._pm

    @property
    def host(self) -> str:
        """Network endpoint (the PM's NIC) for flows from this context."""
        return self._pm.name

    @property
    def is_virtual(self) -> bool:
        return False

    # -- efficiency model (overridden by virtual contexts) ---------------
    def cpu_efficiency(self) -> float:
        return 1.0

    def disk_efficiency(self) -> float:
        return 1.0

    def net_efficiency(self) -> float:
        return 1.0

    # -- share policy (overridden by guests) ------------------------------
    # An entry's cap is the smaller of the ceiling and what its caller
    # asked for; the weight is the entry's fair-share weight.
    def _cpu_share(self, n: int) -> Tuple[float, float]:
        """``(cap ceiling, weight)`` of each of ``n`` in-flight CPU entries."""
        return math.inf, 1.0

    def _disk_share(self, n: int) -> Tuple[float, float]:
        """``(cap ceiling, weight)`` of each of ``n`` in-flight disk entries."""
        return math.inf, 1.0

    def _memio_cap(self) -> float:
        return math.inf

    # -- memory ----------------------------------------------------------
    def alloc_mem(self, mb: float) -> None:
        """Reserve memory; over-commit is allowed but slows CPU work."""
        if mb < 0:
            raise ValueError("mb must be non-negative")
        self.mem_used_mb += mb
        self.refresh_entries()

    def free_mem(self, mb: float) -> None:
        if mb < 0:
            raise ValueError("mb must be non-negative")
        self.mem_used_mb = max(0.0, self.mem_used_mb - mb)
        self.refresh_entries()

    def memory_pressure_factor(self) -> float:
        """Piece-wise linear slowdown from memory over-commit.

        At or below capacity there is no penalty; past capacity the
        penalty grows linearly (paging) down to a floor of 0.25.  This
        is the piece-wise linear memory interference relation the paper
        adopts from MROrchestrator [31].
        """
        if self.mem_capacity_mb <= 0:
            return 1.0
        ratio = self.mem_used_mb / self.mem_capacity_mb
        if ratio <= 1.0:
            return 1.0
        return max(0.25, 1.0 - 0.6 * (ratio - 1.0))

    @property
    def mem_available_mb(self) -> float:
        return max(0.0, self.mem_capacity_mb - self.mem_used_mb)

    # -- transient degradation (fault injection) --------------------------
    def set_degradation(self, cpu: float = 1.0, disk: float = 1.0) -> None:
        """Degrade this context's CPU/disk to the given capacity factors.

        In-flight work slows down immediately (same refresh discipline
        as memory pressure); passing 1.0 restores full health.
        """
        if not 0.0 < cpu <= 1.0 or not 0.0 < disk <= 1.0:
            raise ValueError("degradation factors must be in (0, 1]")
        self.degrade_cpu_factor = cpu
        self.degrade_disk_factor = disk
        self.refresh_entries()

    @property
    def degraded(self) -> bool:
        return self.degrade_cpu_factor < 1.0 or self.degrade_disk_factor < 1.0

    # -- running work -----------------------------------------------------
    def run_cpu(
        self,
        core_seconds: float,
        on_complete: Optional[Callable[[], None]] = None,
        cap: float = 1.0,
        label: str = "",
    ) -> PoolEntry:
        """Execute ``core_seconds`` of computation in this context.

        ``cap`` bounds the entry's rate (a single-threaded task can use
        at most 1 core regardless of idle capacity).
        """
        cpu = _prune(self._cpu)
        ceiling, weight = self._cpu_share(len(cpu) + 1)
        entry = self._pm.cpu_pool.add(
            core_seconds,
            on_complete=on_complete,
            weight=weight,
            cap=min(cap, ceiling),
            efficiency=self._combined_cpu_eff(),
            label=label or f"{self.name}:cpu",
        )
        if not entry.done:
            cpu[entry] = cap
            self._added()
        return entry

    def run_disk(
        self,
        mb: float,
        on_complete: Optional[Callable[[], None]] = None,
        cap: float = math.inf,
        label: str = "",
        efficiency_penalty: float = 0.0,
        cached: bool = False,
    ) -> PoolEntry:
        """Read or write ``mb`` megabytes against the PM's disk.

        ``efficiency_penalty`` lets callers model sustained-contention
        degradation (large jobs keep many concurrent streams alive, and
        the paper shows the virtual/native gap widening with data size).
        ``cached`` routes the I/O through the page-cache pool instead of
        the disk (the caller decides whether the working set fits).
        """
        if cached:
            entry = self._pm.memio_pool.add(
                mb,
                on_complete=on_complete,
                cap=self._memio_cap(),
                efficiency=0.95 if self.is_virtual else 1.0,
                label=label or f"{self.name}:memio",
            )
            if not entry.done:
                _prune(self._memio)[entry] = None
            return entry
        disk = _prune(self._disk)
        ceiling, _ = self._disk_share(len(disk) + 1)
        eff = max(
            0.05, self.disk_efficiency() * self.degrade_disk_factor - efficiency_penalty
        )
        entry = self._pm.disk_pool.add(
            mb,
            on_complete=on_complete,
            # enters at weight 1: a guest's refresh sets the blkio share in
            # the same instant, and seeding it here would let that refresh
            # skip its rebalance and shift the event sequence
            weight=1.0,
            cap=min(cap, ceiling),
            efficiency=eff,
            label=label or f"{self.name}:disk",
        )
        if not entry.done:
            disk[entry] = (cap, efficiency_penalty)
            self._added()
        return entry

    def _added(self) -> None:
        # a guest's shares depend on its entry count and on its
        # mixed-workload penalty, so new work re-derives its siblings;
        # native shares do not, and refreshing would needlessly advance
        # the PM's other pools
        if self.is_virtual:
            self.refresh_entries()

    def _combined_cpu_eff(self) -> float:
        return max(
            0.05,
            self.cpu_efficiency()
            * self.memory_pressure_factor()
            * self.degrade_cpu_factor,
        )

    def refresh_entries(self) -> None:
        """Re-apply the share policy to in-flight work after a change.

        Runs as one batched update per pool (see
        :meth:`~repro.sim.pool.ResourcePool.begin_batch`): the whole
        refresh costs one rebalance per touched pool instead of one per
        entry mutation.  Page-cache caps only move for guests (pause),
        so native contexts leave that pool alone.
        """
        cpu = _prune(self._cpu)
        disk = _prune(self._disk)
        memio = _prune(self._memio) if self.is_virtual else {}
        pm = self._pm
        pools = []
        if cpu:
            pools.append(pm.cpu_pool)
        if disk:
            pools.append(pm.disk_pool)
        if memio:
            pools.append(pm.memio_pool)
        for pool in pools:
            pool.begin_batch()
        try:
            # opening a batch applies accrued progress, which can finish
            # entries: shares are counted over what still runs
            if _prune(cpu):
                ceiling, weight = self._cpu_share(len(cpu))
                eff = self._combined_cpu_eff()
                for entry, requested in cpu.items():
                    entry.set_cap(min(requested, ceiling))
                    entry.set_weight(weight)
                    entry.set_efficiency(eff)
            if _prune(disk):
                ceiling, weight = self._disk_share(len(disk))
                base_eff = self.disk_efficiency() * self.degrade_disk_factor
                for entry, (requested, penalty) in disk.items():
                    entry.set_cap(min(requested, ceiling))
                    entry.set_weight(weight)
                    entry.set_efficiency(max(0.05, base_eff - penalty))
            if _prune(memio):
                cap = self._memio_cap()
                for entry in memio:
                    entry.set_cap(cap)
        finally:
            for pool in pools:
                pool.end_batch()

    def drain(self) -> List[Callable[[], PoolEntry]]:
        """Withdraw all in-flight work; return one replay per entry.

        Live migration quiesces a guest with this, switches hosts and
        then calls each replay, which resubmits the entry's remaining
        work with its callback, requested cap and efficiency penalty to
        the context's (new) pools.
        """
        pm = self._pm
        work = [
            (e, pm.cpu_pool, partial(self.run_cpu, cap=cap))
            for e, cap in _prune(self._cpu).items()
        ]
        work += [
            (e, pm.disk_pool, partial(self.run_disk, cap=cap, efficiency_penalty=pen))
            for e, (cap, pen) in _prune(self._disk).items()
        ]
        work += [
            (e, pm.memio_pool, partial(self.run_disk, cached=True))
            for e in _prune(self._memio)
        ]
        replays = []
        for entry, pool, run in work:
            # withdrawing one entry advances its pool, whose completion
            # callbacks may have ended a sibling since
            if not entry.done:
                pool.remove(entry)
                replays.append(partial(run, entry.work_remaining, entry.on_complete))
        self._cpu.clear()
        self._disk.clear()
        self._memio.clear()
        return replays

    @property
    def cpu_entries(self) -> Tuple[PoolEntry, ...]:
        """In-flight CPU entries, oldest first (read-only view)."""
        return tuple(_prune(self._cpu))

    @property
    def active_cpu_entries(self) -> int:
        return len(_prune(self._cpu))

    @property
    def active_disk_entries(self) -> int:
        return len(_prune(self._disk))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r} on {self._pm.name!r})"


class NativeContext(ExecutionContext):
    """Work running directly on the physical machine (no hypervisor)."""


class PhysicalMachine:
    """One server of the testbed."""

    def __init__(
        self,
        sim: Simulator,
        fabric: NetworkFabric,
        name: str,
        spec: Resources = DEFAULT_PM_SPEC,
        power_model: Optional[PowerModel] = None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.spec = spec
        self.power_model = power_model or PowerModel()
        self.cpu_pool = ResourcePool(sim, spec.cpu_cores, name=f"{name}:cpu")
        self.disk_pool = ResourcePool(sim, spec.disk_mbps, name=f"{name}:disk")
        #: OS page cache: I/O that fits in memory moves at memory-copy
        #: speed through this pool instead of the disk (see
        #: JobTracker.io_cached for the fit rule)
        self.memio_pool = ResourcePool(sim, 400.0, name=f"{name}:memio")
        #: page-cache budget available to workloads
        self.cache_budget_mb = 0.5 * spec.mem_mb
        self.powered_on = True
        self.vms: List["VirtualMachine"] = []
        if not fabric.has_host(name):
            fabric.register_host(name, up_mbps=spec.net_mbps, down_mbps=spec.net_mbps)
        self.native = NativeContext(f"{name}:native", self, spec.mem_mb)

    # -- VM hosting -------------------------------------------------------
    def attach_vm(self, vm: "VirtualMachine") -> None:
        if vm in self.vms:
            raise ValueError(f"{vm.name} already on {self.name}")
        self.vms.append(vm)
        self._density_changed()

    def detach_vm(self, vm: "VirtualMachine") -> None:
        self.vms.remove(vm)
        self._density_changed()

    def _density_changed(self) -> None:
        for vm in self.vms:
            vm.refresh_entries()

    @property
    def vm_count(self) -> int:
        return len(self.vms)

    # -- power ------------------------------------------------------------
    def power_off(self) -> None:
        """Turn the server off (only valid when idle)."""
        if self.cpu_pool.entries or self.disk_pool.entries or self.vms:
            raise RuntimeError(f"cannot power off busy machine {self.name}")
        self.powered_on = False

    def power_on(self) -> None:
        self.powered_on = True

    def utilization(self) -> float:
        """Blended utilization used for power (CPU-dominated)."""
        return min(1.0, 0.7 * self.cpu_pool.utilization + 0.3 * self.disk_pool.utilization)

    def current_power_watts(self) -> float:
        return self.power_model.power(self.utilization(), self.powered_on)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhysicalMachine({self.name!r}, vms={len(self.vms)})"
