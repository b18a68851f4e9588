"""Tests for Phase II: DRM, IPS and the HybridMR facade."""

import math

import pytest

from repro.cluster.cluster import Cluster
from repro.core.drm import DynamicResourceManager, LocalResourceManager
from repro.core.ips import Arbiter, InterferencePreventionSystem
from repro.core.scheduler import HybridMRConfig, HybridMRScheduler
from repro.interactive.loadgen import ConstantLoad
from repro.interactive.service import RUBIS, InteractiveService
from repro.interactive.sla import SLAMonitor
from repro.mapreduce.cluster import MapReduceCluster
from repro.sim.engine import Simulator
from repro.workloads.specs import make_job


@pytest.fixture
def virtual_mr(sim, virtual_cluster):
    return MapReduceCluster(
        sim, virtual_cluster.fabric, list(virtual_cluster.vms),
        map_slots=2, reduce_slots=2,
    )


# ----------------------------------------------------------------------
# DRM
# ----------------------------------------------------------------------
def test_drm_enables_dynamic_memory(sim, virtual_cluster, virtual_mr):
    drm = DynamicResourceManager(sim, virtual_mr.jt, list(virtual_cluster.vms))
    assert not virtual_mr.jt.dynamic_memory
    drm.start()
    assert virtual_mr.jt.dynamic_memory


def test_drm_uncaps_starved_vms(sim, virtual_cluster, virtual_mr):
    drm = DynamicResourceManager(
        sim, virtual_mr.jt, list(virtual_cluster.vms),
        manage_memory=False, manage_io=False,
    )
    drm.start()
    # fewer tasks than VMs: hosts keep slack the DRM should grant
    virtual_mr.jt.submit(make_job("Kmeans", input_gb=0.25, num_reducers=2))
    sim.run(until=30.0)
    assert any("cpu-uncap" in a for a in drm.actions)
    drm.stop()
    virtual_mr.jt.shutdown()


def test_drm_memory_ballooning_moves_capacity(sim, virtual_cluster, virtual_mr):
    drm = DynamicResourceManager(
        sim, virtual_mr.jt, list(virtual_cluster.vms),
        manage_cpu=False, manage_io=False,
    )
    drm.start()
    pm = virtual_cluster.pms[0]
    needy, donor = pm.vms
    needy.alloc_mem(needy.mem_capacity_mb * 1.3)  # paging
    sim.run(until=20.0)
    assert needy.mem_capacity_mb > 1024.0
    assert donor.mem_capacity_mb < 1024.0
    assert any("balloon" in a for a in drm.actions)
    drm.stop()
    virtual_mr.jt.shutdown()


def test_drm_io_weight_boosts_tail(sim, virtual_cluster, virtual_mr):
    drm = DynamicResourceManager(
        sim, virtual_mr.jt, list(virtual_cluster.vms),
        manage_cpu=False, manage_memory=False, tail_fraction=2.0,
    )
    drm.start()
    virtual_mr.jt.submit(make_job("Sort", input_gb=0.5, num_reducers=4))
    sim.run(until=6.0)  # mid-run: tail boost active
    assert any("io-weight" in a for a in drm.actions)
    assert any(vm.io_weight > 1.0 for vm in virtual_cluster.vms)
    sim.run(until=60.0)  # job done: weights return to fair
    drm.stop()
    virtual_mr.jt.shutdown()


def test_drm_ablation_improves_jct(sim):
    def run(managed):
        local = Simulator(seed=17)
        cluster = Cluster.virtual(local, 4, 2)
        mr = MapReduceCluster(local, cluster.fabric, list(cluster.vms),
                              map_slots=2, reduce_slots=2)
        drm = None
        if managed:
            drm = DynamicResourceManager(local, mr.jt, list(cluster.vms))
            drm.start()
        jobs = mr.run_jobs([
            make_job(b, input_gb=1.0, num_reducers=4, name=b.lower())
            for b in ("Sort", "Kmeans", "Wcount")
        ])
        if drm:
            drm.stop()
        return sum(j.jct for j in jobs) / len(jobs)

    assert run(True) < run(False)


@pytest.fixture
def reversed_host_hashes(monkeypatch):
    """Hash PMs so that a set iterates them in reverse creation order:
    code that walks hosts through a set, not in first-seen order, then
    visits them differently from creation order."""
    from repro.cluster.machine import PhysicalMachine

    order = {}

    def hash_(pm):
        return 100 - order.setdefault(id(pm), len(order))

    monkeypatch.setattr(PhysicalMachine, "__hash__", hash_)
    return order


def test_drm_visits_hosts_in_first_seen_order(reversed_host_hashes):
    sim = Simulator(seed=1)
    cluster = Cluster.virtual(sim, 4, 2)
    for pm in cluster.pms:
        hash(pm)
    mr = MapReduceCluster(sim, cluster.fabric, list(cluster.vms), map_slots=2,
                          reduce_slots=2)
    drm = DynamicResourceManager(sim, mr.jt, list(cluster.vms))
    for pm in cluster.pms:
        needy = pm.vms[0]
        needy.mem_used_mb = needy.mem_capacity_mb * 1.5
    drm._balance_memory()
    needy_names = [a.rsplit(" ", 1)[-1] for a in drm.actions]
    assert needy_names == [pm.vms[0].name for pm in cluster.pms]


def test_service_sums_background_load_in_host_order(reversed_host_hashes):
    sim = Simulator(seed=1)
    cluster = Cluster.virtual(sim, 3, 1)
    for pm in cluster.pms:
        hash(pm)
    shares = (0.1, 0.2, 0.3)
    for pm, share in zip(cluster.pms, shares):
        pm.native.run_disk(math.inf, cap=share * pm.disk_pool.capacity)
    svc = InteractiveService(sim, "s", RUBIS, list(cluster.vms), ConstantLoad(10))
    # float addition is not associative: the order is visible in the sum
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    assert svc._background_disk_utilization() == ((0.1 + 0.2) + 0.3) / 3


def test_lrm_estimates_progress_rates(sim, virtual_cluster, virtual_mr):
    drm = DynamicResourceManager(sim, virtual_mr.jt, list(virtual_cluster.vms))
    drm.start()
    virtual_mr.jt.submit(make_job("Kmeans", input_gb=0.5, num_reducers=2))
    sim.run(until=30.0)
    attempts = virtual_mr.jt.running_attempts()
    if attempts:
        est = drm.estimate_attempt(attempts[0])
        assert 0.0 <= est.progress <= 1.0
    lrm = next(iter(drm.lrms.values()))
    assert isinstance(lrm, LocalResourceManager)
    assert lrm.samples
    drm.stop()
    virtual_mr.jt.shutdown()


def test_interference_score_reflects_io(sim, virtual_cluster, virtual_mr):
    drm = DynamicResourceManager(sim, virtual_mr.jt, list(virtual_cluster.vms))
    drm.start()
    virtual_mr.jt.submit(make_job("Sort", input_gb=1.0, num_reducers=4))
    sim.run(until=11.0)  # mid-run, after at least two DRM epochs
    attempts = virtual_mr.jt.running_attempts()
    assert attempts, "job finished before the probe -- enlarge the input"
    scores = [drm.interference_score(a) for a in attempts]
    assert any(s > 0 for s in scores)
    drm.stop()
    virtual_mr.jt.shutdown()


# ----------------------------------------------------------------------
# Arbiter heuristics
# ----------------------------------------------------------------------
def test_best_fit_prefers_tightest_host(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    spare_busy = virtual_cluster.pms[2]  # hosts 2 VMs (2 vCPU used of 2)
    empty = virtual_cluster.add_pm("empty")
    target = Arbiter.best_fit(vm, [spare_busy, empty], forbidden=set())
    assert target is empty  # busy host has no vCPU headroom left


def test_best_fit_respects_forbidden(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    empty = virtual_cluster.add_pm("empty")
    assert Arbiter.best_fit(vm, [empty], forbidden={"empty"}) is None


def test_min_min_orders_ascending():
    scored = [(3.0, "c"), (1.0, "a"), (2.0, "b")]
    assert [x for _, x in Arbiter.min_min_order(scored)] == ["a", "b", "c"]


# ----------------------------------------------------------------------
# IPS end to end
# ----------------------------------------------------------------------
def build_ips_world(seed=5, ips_on=True):
    sim = Simulator(seed=seed)
    cluster = Cluster.virtual(sim, 4, 3)
    vms = cluster.vms
    service_vms = [vms[i] for i in range(0, len(vms), 3)]
    batch_vms = [vm for vm in vms if vm not in service_vms]
    service = InteractiveService(sim, "rubis", RUBIS, service_vms, ConstantLoad(1200))
    scheduler = HybridMRScheduler(
        sim, cluster.fabric, [], batch_vms, cluster.pms,
        services=[service],
        config=HybridMRConfig(phase1_enabled=False, ips_enabled=ips_on),
        mr_kwargs=dict(map_slots=2, reduce_slots=2),
    )
    scheduler.start()
    return sim, cluster, service, scheduler


def test_ips_throttles_interfering_vms():
    sim, cluster, service, scheduler = build_ips_world()
    scheduler.submit(make_job("Sort", input_gb=2.0, num_reducers=8))
    sim.run(until=120.0)
    actions = [a.action for a in scheduler.ips.actions]
    assert "throttle" in actions
    scheduler.stop()


def test_ips_protects_latency_vs_no_ips():
    def mean_latency(ips_on):
        sim, cluster, service, scheduler = build_ips_world(ips_on=ips_on)
        scheduler.submit(make_job("Sort", input_gb=2.0, num_reducers=8))
        scheduler.submit(make_job("Twitter", input_gb=2.0, num_reducers=8))
        sim.run(until=180.0)
        value = service.mean_latency_ms()
        scheduler.stop()
        return value

    assert mean_latency(True) < mean_latency(False)


def test_ips_releases_after_recovery():
    sim, cluster, service, scheduler = build_ips_world()
    scheduler.submit(make_job("Sort", input_gb=1.0, num_reducers=8))
    sim.run(until=400.0)
    actions = [a.action for a in scheduler.ips.actions]
    if "throttle" in actions:
        assert "release" in actions
    scheduler.stop()


# ----------------------------------------------------------------------
# HybridMRScheduler facade
# ----------------------------------------------------------------------
def test_facade_requires_some_context(sim, virtual_cluster):
    with pytest.raises(ValueError):
        HybridMRScheduler(sim, virtual_cluster.fabric, [], [], virtual_cluster.pms)


def test_facade_routes_without_native_side(sim, virtual_cluster):
    scheduler = HybridMRScheduler(
        sim, virtual_cluster.fabric, [], list(virtual_cluster.vms),
        virtual_cluster.pms, config=HybridMRConfig(),
    )
    scheduler.start()
    placement, job = scheduler.submit(make_job("Sort", input_gb=0.25, num_reducers=2))
    assert placement.value == "virtual"
    sim.run(until=200.0)
    assert job.done
    scheduler.stop()


def test_facade_random_placement_uses_both_sides(sim, hybrid_cluster):
    scheduler = HybridMRScheduler(
        sim, hybrid_cluster.fabric, hybrid_cluster.native_contexts(),
        list(hybrid_cluster.vms), hybrid_cluster.pms,
        config=HybridMRConfig(phase1_enabled=False),
    )
    scheduler.start()
    placements = {
        scheduler.submit(make_job("Sort", input_gb=0.25, num_reducers=2, name=f"j{i}"))[0]
        for i in range(8)
    }
    assert len(placements) == 2
    scheduler.stop()
