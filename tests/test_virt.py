"""Tests for VMs, overheads, throttling and live migration."""

import math

import pytest

from repro.cluster.cluster import Cluster
from repro.virt.migration import LiveMigration
from repro.virt.overheads import DEFAULT_OVERHEADS, OverheadModel
from repro.virt.throttle import CgroupController


# ----------------------------------------------------------------------
# OverheadModel
# ----------------------------------------------------------------------
def test_cpu_efficiency_degrades_with_density():
    m = DEFAULT_OVERHEADS
    assert m.vm_cpu_efficiency(1) == pytest.approx(m.cpu_eff)
    assert m.vm_cpu_efficiency(4) < m.vm_cpu_efficiency(2) < m.vm_cpu_efficiency(1)


def test_io_efficiency_degrades_with_density():
    m = DEFAULT_OVERHEADS
    assert m.vm_io_efficiency(4) < m.vm_io_efficiency(1)


def test_sustained_penalty_grows_with_data():
    m = DEFAULT_OVERHEADS
    assert m.sustained_io_penalty(0) == 0.0
    assert m.sustained_io_penalty(16) > m.sustained_io_penalty(1) > 0


def test_efficiency_floor_holds():
    m = OverheadModel(io_density_penalty=0.2)
    assert m.vm_io_efficiency(100) == m.floor


def test_overhead_validation():
    with pytest.raises(ValueError):
        OverheadModel(cpu_eff=1.5)


# ----------------------------------------------------------------------
# VirtualMachine semantics
# ----------------------------------------------------------------------
def test_vm_cpu_capped_at_vcpu(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    done = []
    vm.run_cpu(10.0, on_complete=lambda: done.append(sim.now), cap=2.0)
    sim.run()
    # 1 vCPU cap and ~0.938 efficiency at 2 VMs/PM
    assert done[0] == pytest.approx(10.0 / 0.938, rel=0.01)


def test_vm_tasks_share_the_vcpu(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    done = {}
    vm.run_cpu(10.0, on_complete=lambda: done.setdefault("a", sim.now))
    vm.run_cpu(10.0, on_complete=lambda: done.setdefault("b", sim.now))
    sim.run()
    assert done["a"] > 15.0  # two tasks timeshare one vCPU


def test_vm_pause_stalls_and_resume_restores(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    done = []
    vm.run_cpu(10.0, on_complete=lambda: done.append(sim.now))
    sim.schedule(1.0, vm.pause)
    sim.schedule(11.0, vm.resume)
    sim.run()
    assert done[0] == pytest.approx(10.0 / 0.938 + 10.0, rel=0.01)


def test_vm_io_limit_throttles(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    done = []
    vm.set_io_limit(5.0)
    vm.run_disk(50.0, on_complete=lambda: done.append(sim.now))
    sim.run()
    assert done[0] >= 50.0 / 5.0


def test_vm_io_limit_removal(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    done = []
    vm.set_io_limit(1.0)
    vm.run_disk(60.0, on_complete=lambda: done.append(sim.now))
    sim.schedule(1.0, lambda: vm.set_io_limit(None))
    sim.run()
    assert done[0] < 10.0


def test_vm_cpu_fraction_above_one_is_work_conserving(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    vm.set_cpu_fraction(2.0)
    done = {}
    vm.run_cpu(10.0, on_complete=lambda: done.setdefault("a", sim.now), cap=2.0)
    vm.run_cpu(10.0, on_complete=lambda: done.setdefault("b", sim.now), cap=2.0)
    sim.run()
    # with 2.0 fraction the two tasks can use both host cores
    assert done["a"] == pytest.approx(10.0 / 0.938, rel=0.02)


def test_vm_cpu_fraction_clamped_to_host(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    vm.set_cpu_fraction(100.0)
    assert vm.cpu_fraction == pytest.approx(2.0)  # dual-core host, 1 vCPU


def test_mixed_workload_penalty_applies(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    base = vm.disk_efficiency()
    vm.run_cpu(math.inf, cap=0.5)
    vm.run_disk(math.inf, cap=5.0)
    assert vm.disk_efficiency() == pytest.approx(
        base - DEFAULT_OVERHEADS.mixed_workload_penalty
    )


def test_balloon_changes_capacity(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    vm.balloon_to(2048.0)
    assert vm.mem_capacity_mb == 2048.0
    with pytest.raises(ValueError):
        vm.balloon_to(0)


def test_vm_has_own_network_endpoint(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    assert vm.host == vm.name
    assert virtual_cluster.fabric.has_host(vm.name)
    # co-located with its PM's group
    assert virtual_cluster.fabric.colocated(vm.name, virtual_cluster.vms[1].name)


def test_vm_density_change_refreshes_efficiency(sim):
    cluster = Cluster.virtual(sim, 1, 1)
    vm = cluster.vms[0]
    eff_single = vm.cpu_efficiency()
    cluster.add_vm(cluster.pms[0])
    assert vm.cpu_efficiency() < eff_single


# ----------------------------------------------------------------------
# CgroupController
# ----------------------------------------------------------------------
def test_cgroups_audit_log(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    cg = CgroupController(sim)
    cg.set_io_limit(vm, 10.0)
    cg.set_cpu_limit(vm, 0.5)
    cg.pause(vm)
    cg.resume(vm)
    cg.release_all(vm)
    knobs = [e.knob for e in cg.actions_for(vm.name)]
    assert knobs == ["io", "cpu", "pause", "resume", "release"]
    assert vm.io_limit_mbps is None
    assert vm.cpu_fraction == 1.0
    assert not vm.paused


# ----------------------------------------------------------------------
# LiveMigration
# ----------------------------------------------------------------------
def test_migration_moves_vm_and_records(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    src = vm.pm
    dst = virtual_cluster.pms[2]
    records = []
    LiveMigration(sim, virtual_cluster.fabric, vm, dst, on_complete=records.append)
    sim.run()
    assert vm.pm is dst
    assert records[0].src == src.name and records[0].dst == dst.name
    assert records[0].migration_time_s > 0
    assert records[0].downtime_ms > 0
    # the fabric group followed the VM
    assert virtual_cluster.fabric.colocated(vm.name, dst.name)


def test_migration_requeues_inflight_work(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    done = []
    vm.run_cpu(100.0, on_complete=lambda: done.append(sim.now))
    LiveMigration(sim, virtual_cluster.fabric, vm, virtual_cluster.pms[3])
    sim.run()
    assert len(done) == 1  # work survived the migration


def test_migration_keeps_disk_efficiency_penalty(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    entry = vm.run_disk(5000.0, efficiency_penalty=0.3)
    assert entry.efficiency == pytest.approx(vm.disk_efficiency() - 0.3)
    replayed = []
    LiveMigration(
        sim, virtual_cluster.fabric, vm, virtual_cluster.pms[3],
        on_complete=lambda rec: replayed.extend(vm.pm.disk_pool.entries),
    )
    sim.run()
    (moved,) = replayed
    assert moved is not entry and moved.work_remaining < 5000.0
    # the destination hosts three guests: a lower base, the same penalty
    assert moved.efficiency == pytest.approx(vm.disk_efficiency() - 0.3)
    assert moved.efficiency < entry.efficiency


def test_busy_vm_migrates_slower_than_idle(sim):
    def measure(busy):
        local_sim_cluster = Cluster.virtual(sim.__class__(seed=9), 2, 2)
        local_sim = local_sim_cluster.sim
        vm = local_sim_cluster.vms[0]
        if busy:
            vm.run_cpu(1e6, cap=1.0)
            vm.run_disk(1e6)
        records = []
        LiveMigration(
            local_sim, local_sim_cluster.fabric, vm,
            local_sim_cluster.pms[1], on_complete=records.append,
        )
        local_sim.run(until=1000.0)
        return records[0]

    idle = measure(False)
    busy = measure(True)
    assert busy.migration_time_s > idle.migration_time_s
    assert busy.downtime_ms > idle.downtime_ms


def test_migration_extra_data_payload(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    base, heavy = [], []
    LiveMigration(sim, virtual_cluster.fabric, vm, virtual_cluster.pms[2],
                  on_complete=base.append)
    sim.run()
    LiveMigration(sim, virtual_cluster.fabric, vm, virtual_cluster.pms[3],
                  on_complete=heavy.append, extra_data_mb=2000.0)
    sim.run()
    assert heavy[0].migration_time_s > base[0].migration_time_s


def test_migration_to_same_host_rejected(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    with pytest.raises(ValueError):
        LiveMigration(sim, virtual_cluster.fabric, vm, vm.pm)
