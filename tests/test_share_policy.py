"""Oracle for the in-flight share policy of execution contexts.

Random operation sequences run against a guest VM and a native
context.  After every step each live pool entry's cap, weight and
efficiency must equal the closed-form policy, recomputed here from the
context's knobs and the entries still running:

- CPU, guest: cap ``min(asked, cores * cpu_fraction / n)`` (0 while
  paused), weight ``vm_weight / n``, efficiency from the density model,
  memory pressure and CPU degradation;
- disk, guest: cap ``min(asked, io_limit / n)`` (0 while paused),
  weight ``io_weight / n``, efficiency from the density model, the
  mixed-workload penalty, disk degradation and the entry's own penalty;
- page cache, guest: cap 0 while paused, else unbounded;
- native: the asked cap, weight 1, efficiency from memory pressure and
  degradation only.
"""

import math
import random

import pytest

from repro.cluster.cluster import Cluster
from repro.sim.engine import Simulator
from repro.virt.vm import VirtualMachine

CAPS = (0.0, 0.25, 0.5, 1.0, 2.0, math.inf)
DISK_CAPS = (1.0, 10.0, 40.0, math.inf)
PENALTIES = (0.0, 0.1, 0.3, 0.9)


def _close(actual, expected):
    return actual == expected or math.isclose(
        actual, expected, rel_tol=1e-12, abs_tol=1e-15
    )


def _memory_factor(ctx):
    if ctx.mem_capacity_mb <= 0:
        return 1.0
    ratio = ctx.mem_used_mb / ctx.mem_capacity_mb
    return 1.0 if ratio <= 1.0 else max(0.25, 1.0 - 0.6 * (ratio - 1.0))


def check_policy(ctx, asked):
    """Every live entry ``asked`` records matches the closed form."""
    live = {e: a for e, a in asked.items() if not e.done}
    cpu = [e for e, a in live.items() if a[0] == "cpu"]
    disk = [e for e, a in live.items() if a[0] == "disk"]
    memio = [e for e, a in live.items() if a[0] == "memio"]
    assert ctx.active_cpu_entries == len(cpu)
    assert ctx.active_disk_entries == len(disk)
    assert ctx.cpu_entries == tuple(cpu)
    guest = isinstance(ctx, VirtualMachine)
    if guest:
        ov = ctx.overheads
        vms = ctx.pm.vm_count
        cpu_base = ov.vm_cpu_efficiency(vms)
        disk_base = ov.vm_io_efficiency(vms)
        if cpu and disk:
            disk_base -= ov.mixed_workload_penalty
        disk_base = max(ov.floor, disk_base)
    else:
        cpu_base = disk_base = 1.0
    cpu_eff = max(0.05, cpu_base * _memory_factor(ctx) * ctx.degrade_cpu_factor)
    for e in cpu:
        n = len(cpu)
        if guest:
            ceiling = 0.0 if ctx.paused else max(
                ctx.spec.cpu_cores * ctx.cpu_fraction / n, 1e-6
            )
            weight = ctx.vm_weight / n
        else:
            ceiling, weight = math.inf, 1.0
        assert _close(e.cap, min(live[e][1], ceiling)), (e, live[e])
        assert _close(e.weight, weight), (e, live[e])
        assert _close(e.efficiency, cpu_eff), (e, live[e])
    for e in disk:
        n = len(disk)
        if guest:
            limit = math.inf if ctx.io_limit_mbps is None else ctx.io_limit_mbps / n
            ceiling = 0.0 if ctx.paused else max(limit, 1e-6)
            weight = ctx.io_weight / n
        else:
            ceiling, weight = math.inf, 1.0
        eff = max(0.05, disk_base * ctx.degrade_disk_factor - live[e][2])
        assert _close(e.cap, min(live[e][1], ceiling)), (e, live[e])
        assert _close(e.weight, weight), (e, live[e])
        assert _close(e.efficiency, eff), (e, live[e])
    for e in memio:
        assert e.cap == (0.0 if guest and ctx.paused else math.inf)
        assert e.weight == 1.0
        assert e.efficiency == (0.95 if guest else 1.0)


def _refreshing_ops(ctx, rng):
    """Operations that end in a refresh of ``ctx``."""
    ops = [
        ctx.refresh_entries,
        lambda: ctx.alloc_mem(rng.choice((64.0, 700.0, 1500.0))),
        lambda: ctx.free_mem(rng.choice((64.0, 700.0, 1500.0))),
        lambda: ctx.set_degradation(
            cpu=rng.choice((0.5, 1.0)), disk=rng.choice((0.4, 1.0))
        ),
    ]
    if isinstance(ctx, VirtualMachine):
        ops += [
            lambda: ctx.resume() if ctx.paused else ctx.pause(),
            lambda: ctx.set_cpu_fraction(rng.choice((0.25, 0.5, 1.0, 1.5, 3.0))),
            lambda: ctx.set_io_limit(rng.choice((None, 5.0, 20.0, 100.0))),
            lambda: ctx.set_io_weight(rng.choice((0.5, 1.0, 2.0, 5.0))),
            lambda: ctx.balloon_to(rng.choice((512.0, 1024.0, 2048.0))),
        ]
    return ops


def _finish_as_refresh_opens(sim, ctx, asked, op):
    """Land the next finishing entry's completion on a refresh.

    A probe is queued at the finishing instant, then the entry's pool is
    rebalanced again so its own completion tick queues behind the probe:
    the entry finishes inside the probe's ``begin_batch``.  Returns the
    entry, or None when nothing of ``ctx`` is due to finish.
    """
    # native refreshes leave the page-cache pool alone
    finite = [
        e for e, a in asked.items()
        if not e.done and e.work_remaining != math.inf and e.progress_rate > 1e-9
        and (a[0] != "memio" or isinstance(ctx, VirtualMachine))
    ]
    if not finite:
        return None
    for pool in dict.fromkeys(e.pool for e in finite):
        pool.set_capacity(pool.capacity)  # apply progress up to now
    target = min(finite, key=lambda e: e.eta())
    seen = []

    def probe():
        seen.append(target.done)
        op()
        seen.append(target.done)
        sim.stop()

    sim.schedule(target.eta(), probe)
    target.set_cap(target.cap)  # re-queue the pool's tick after the probe
    sim.run()
    assert seen == [False, True]
    return target


def _add(ctx, asked, rng):
    kind = rng.choice(("cpu", "cpu", "disk", "disk", "memio"))
    work = math.inf if rng.random() < 0.15 else rng.uniform(0.5, 30.0)
    if kind == "cpu":
        cap = rng.choice(CAPS)
        entry = ctx.run_cpu(work, cap=cap)
        asked[entry] = ("cpu", cap, 0.0)
    elif kind == "disk":
        cap, penalty = rng.choice(DISK_CAPS), rng.choice(PENALTIES)
        entry = ctx.run_disk(work * 5.0, cap=cap, efficiency_penalty=penalty)
        asked[entry] = ("disk", cap, penalty)
    else:
        entry = ctx.run_disk(work * 5.0, cached=True)
        asked[entry] = ("memio", math.inf, 0.0)


def _run_sequence(ctx, sim, seed, steps=60):
    rng = random.Random(seed)
    asked = {}
    ops = _refreshing_ops(ctx, rng)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4:
            _add(ctx, asked, rng)
        elif roll < 0.5:
            live = [e for e in asked if not e.done]
            if live:
                victim = rng.choice(live)
                victim.pool.remove(victim)
            # the killer releases the task's memory, which refreshes
            ctx.free_mem(0.0)
        elif roll < 0.75:
            rng.choice(ops)()
        elif roll < 0.9:
            sim.run(until=sim.now + rng.uniform(0.1, 20.0))
            rng.choice(ops)()
        else:
            if _finish_as_refresh_opens(sim, ctx, asked, rng.choice(ops)) is None:
                sim.run(until=sim.now + 1.0)
                ctx.refresh_entries()
        check_policy(ctx, asked)


@pytest.mark.parametrize("seed", range(24))
def test_guest_shares_match_closed_form(seed):
    sim = Simulator(seed=seed)
    cluster = Cluster.virtual(sim, 1, 2)
    _run_sequence(cluster.vms[0], sim, seed)


@pytest.mark.parametrize("seed", range(8))
def test_native_shares_match_closed_form(seed):
    sim = Simulator(seed=seed)
    cluster = Cluster.native(sim, 1)
    _run_sequence(cluster.pms[0].native, sim, seed)


def test_entry_finishing_as_refresh_opens_is_not_counted():
    sim = Simulator(seed=1)
    vm = Cluster.virtual(sim, 1, 2).vms[0]
    asked = {}
    short = vm.run_cpu(2.0, cap=1.0)
    asked[short] = ("cpu", 1.0, 0.0)
    for _ in range(2):
        entry = vm.run_cpu(math.inf, cap=1.0)
        asked[entry] = ("cpu", 1.0, 0.0)
    assert _finish_as_refresh_opens(sim, vm, asked, vm.refresh_entries) is short
    assert vm.active_cpu_entries == 2
    check_policy(vm, asked)


def test_native_add_leaves_other_pools_alone():
    """Native work does not re-derive siblings: adding CPU work must not
    advance the PM's disk pool."""
    sim = Simulator(seed=1)
    pm = Cluster.native(sim, 1).pms[0]
    pm.native.run_disk(math.inf, cap=10.0)
    sim.run(until=5.0)
    last = pm.disk_pool._last_update
    pm.native.run_cpu(10.0)
    assert pm.disk_pool._last_update == last


def test_drain_replays_cap_and_penalty():
    sim = Simulator(seed=1)
    vm = Cluster.virtual(sim, 1, 2).vms[0]
    pm = vm.pm
    vm.run_cpu(50.0, cap=0.5)
    vm.run_disk(500.0, cap=20.0, efficiency_penalty=0.2)
    vm.run_disk(3000.0, cached=True)
    sim.run(until=3.0)
    vm.pause()  # quiesce as live migration does: progress is applied
    pools = (pm.cpu_pool, pm.disk_pool, pm.memio_pool)
    left = [pool.entries[0].work_remaining for pool in pools]
    replays = vm.drain()
    assert not any(pool.entries for pool in pools)
    assert vm.active_cpu_entries == vm.active_disk_entries == 0
    vm.resume()
    cpu, disk, memio = [replay() for replay in replays]
    assert [e.work_remaining for e in (cpu, disk, memio)] == left
    assert [e.pool for e in (cpu, disk, memio)] == list(pools)
    assert cpu.cap == 0.5
    assert disk.cap == 20.0
    assert disk.efficiency == pytest.approx(vm.disk_efficiency() - 0.2)
