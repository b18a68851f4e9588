"""Guest virtual machines and the Dom-0 privileged context.

A :class:`VirtualMachine` is an :class:`~repro.cluster.machine.ExecutionContext`
whose work passes through the hypervisor: efficiencies come from the
:class:`~repro.virt.overheads.OverheadModel` (and depend on how many VMs
share the host), and rates are capped so the guest can never exceed its
vCPU allocation regardless of how idle the host is.  The cap/weight
discipline mimics Xen's credit scheduler: a VM's tasks collectively get
one VM-weight of CPU, divided among them.

The Phase II scheduler actuates on VMs through three knobs, all modelled
here: ``cpu_fraction`` (credit-scheduler cap), ``io_limit_mbps``
(cgroups blkio throttle) and ``pause()``/``resume()``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.cluster.machine import ExecutionContext, PhysicalMachine
from repro.cluster.resources import DEFAULT_VM_SPEC, Resources
from repro.virt.overheads import DEFAULT_OVERHEADS, OverheadModel


class VirtualMachine(ExecutionContext):
    """A Xen-style guest (default flavour: 1 vCPU, 1 GB RAM)."""

    def __init__(
        self,
        name: str,
        pm: PhysicalMachine,
        spec: Resources = DEFAULT_VM_SPEC,
        overheads: OverheadModel = DEFAULT_OVERHEADS,
        weight: float = 1.0,
    ) -> None:
        super().__init__(name, pm, spec.mem_mb)
        self.spec = spec
        self.overheads = overheads
        self.vm_weight = weight
        self.paused = False
        #: credit-scheduler style cap: fraction of vCPU allocation usable.
        #: values above 1.0 are work-conserving uncapping (the DRM grants
        #: idle host cycles beyond the nominal vCPU allocation)
        self.cpu_fraction = 1.0
        #: cgroups blkio throttle in MB/s (None = unthrottled)
        self.io_limit_mbps: Optional[float] = None
        #: blkio weight: relative disk share vs other VMs on the host
        self.io_weight = 1.0
        pm.attach_vm(self)
        # the guest gets its own network endpoint, capped by the virtual
        # NIC ceiling and co-located (loopback) with its host's group
        net_cap = min(spec.net_mbps, overheads.vm_net_cap_mbps * max(1.0, spec.cpu_cores))
        pm.fabric.register_host(
            name, up_mbps=net_cap, down_mbps=net_cap, group=pm.name
        )

    # ------------------------------------------------------------------
    # context interface
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The guest's own network endpoint (see fabric groups)."""
        return self.name

    @property
    def is_virtual(self) -> bool:
        return True

    def cpu_efficiency(self) -> float:
        return self.overheads.vm_cpu_efficiency(self._pm.vm_count)

    def disk_efficiency(self) -> float:
        eff = self.overheads.vm_io_efficiency(self._pm.vm_count)
        if self.active_cpu_entries > 0 and self.active_disk_entries > 0:
            eff -= self.overheads.mixed_workload_penalty
        return max(self.overheads.floor, eff)

    def net_efficiency(self) -> float:
        return self.overheads.net_eff

    def _cpu_share(self, n: int) -> Tuple[float, float]:
        # credit-scheduler semantics: the guest's tasks together get one
        # VM weight, however many there are, and its vCPU allocation
        share = self.spec.cpu_cores * self.cpu_fraction / n
        return (0.0 if self.paused else max(share, 1e-6)), self.vm_weight / n

    def _disk_share(self, n: int) -> Tuple[float, float]:
        limit = math.inf if self.io_limit_mbps is None else self.io_limit_mbps
        return (0.0 if self.paused else max(limit / n, 1e-6)), self.io_weight / n

    def _memio_cap(self) -> float:
        return 0.0 if self.paused else math.inf

    def update_requested_caps(self, updates) -> None:
        """Change the rate ceilings in-flight entries asked for: write
        every ``(entry, cap)`` pair, then refresh once.  The interactive
        probe/settle loops adjust two entries per VM per epoch; paying
        one refresh instead of one per entry is what keeps wide service
        fleets off the pool-rebalance hot path."""
        for entry, cap in updates:
            if cap < 0:
                raise ValueError("cap must be non-negative")
            if entry in self._cpu:
                self._cpu[entry] = cap
            elif entry in self._disk:
                self._disk[entry] = (cap, self._disk[entry][1])
        self.refresh_entries()

    # ------------------------------------------------------------------
    # actuators
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Freeze the guest (entries stall at rate 0, nothing is lost)."""
        if self.paused:
            return
        self.paused = True
        self.refresh_entries()

    def resume(self) -> None:
        if not self.paused:
            return
        self.paused = False
        self.refresh_entries()

    def set_cpu_fraction(self, fraction: float) -> None:
        """Credit-scheduler cap as a fraction of the vCPU allocation.

        Values in (1.0, host_cores/vcpus] grant idle host cycles beyond
        the nominal allocation (work-conserving mode, used by the DRM's
        CPU management).
        """
        if fraction < 0.0:
            raise ValueError("fraction must be non-negative")
        max_fraction = self._pm.spec.cpu_cores / max(self.spec.cpu_cores, 1e-9)
        self.cpu_fraction = min(fraction, max_fraction)
        self.refresh_entries()

    def set_io_limit(self, mbps: Optional[float]) -> None:
        """cgroups blkio-style throttle (None removes the limit)."""
        if mbps is not None and mbps < 0:
            raise ValueError("io limit must be non-negative")
        self.io_limit_mbps = mbps
        self.refresh_entries()

    def set_io_weight(self, weight: float) -> None:
        """cgroups blkio weight: relative disk priority on the host."""
        if weight <= 0:
            raise ValueError("io weight must be positive")
        self.io_weight = weight
        self.refresh_entries()

    def balloon_to(self, mem_mb: float) -> None:
        """Resize the guest's memory (Xen ballooning).

        The DRM's memory manager moves capacity between collocated VMs;
        shrinking below current usage creates paging pressure rather
        than failing, as with a real balloon driver.
        """
        if mem_mb <= 0:
            raise ValueError("memory size must be positive")
        self.mem_capacity_mb = mem_mb
        self.refresh_entries()

    # ------------------------------------------------------------------
    # relocation (used by live migration)
    # ------------------------------------------------------------------
    def relocate(self, new_pm: PhysicalMachine) -> None:
        """Instantly rebind the VM to another host.

        Live migration semantics (transfer time, downtime) live in
        :mod:`repro.virt.migration`; this is the final placement switch.
        In-flight entries are *not* carried across machine pools -- the
        migration module quiesces the VM first.
        """
        if self._cpu or self._disk or self._memio:
            raise RuntimeError(
                f"cannot relocate {self.name} with in-flight pool entries"
            )
        self._pm.detach_vm(self)
        self._pm = new_pm
        new_pm.attach_vm(self)
        new_pm.fabric.set_group(self.name, new_pm.name)

    @property
    def busy(self) -> bool:
        return self.active_cpu_entries > 0 or self.active_disk_entries > 0

    def activity_level(self) -> float:
        """Rough [0,1] score of how hard the guest is working.

        Drives the dirty-page rate during live migration: a VM running
        Wcount dirties memory much faster than an idle one.
        """
        cpu = sum(e.rate for e in self._cpu)
        disk = sum(e.rate for e in self._disk)
        cpu_part = min(1.0, cpu / max(self.spec.cpu_cores, 1e-9))
        disk_part = min(1.0, disk / 40.0)
        return min(1.0, 0.6 * cpu_part + 0.4 * disk_part)


class Dom0Context(ExecutionContext):
    """Xen's privileged domain running work quasi-natively.

    Figure 2(c): Dom-0 performance is within 5% of native, enabling the
    'flexibly virtualized' hosts that can transition between running
    guests and running near-native batch work.
    """

    def __init__(
        self,
        name: str,
        pm: PhysicalMachine,
        overheads: OverheadModel = DEFAULT_OVERHEADS,
    ) -> None:
        super().__init__(name, pm, pm.spec.mem_mb)
        self.overheads = overheads

    def cpu_efficiency(self) -> float:
        return self.overheads.dom0_eff

    def disk_efficiency(self) -> float:
        return self.overheads.dom0_eff

    def net_efficiency(self) -> float:
        return self.overheads.dom0_eff
