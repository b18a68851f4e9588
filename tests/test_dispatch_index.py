"""Tracker selection in JobTracker dispatch rounds against a scan oracle.

A dispatch round picks, for every assignment, the free tracker with the
smallest ``(PM load, running, name)``, where PM load is the round's
``load_by_pm`` (running attempts per physical machine at round start,
bumped by each launch of the round).  The JobTracker finds it through a
per-round lazy heap; the full-fleet ``min()`` scan below is the oracle.

Rounds run through the real ``JobTracker._dispatch``.  A shim on
``_launch`` records each chosen tracker next to the oracle's choice and
applies the slot bookkeeping of a launch without starting the attempt,
so nothing else in the simulator moves between assignments.
"""

import random

import pytest

from repro.cluster.cluster import Cluster
from repro.hdfs.filesystem import HDFS
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.schedulers import FairScheduler, FIFOScheduler
from repro.mapreduce.task import TaskAttempt, TaskKind
from repro.mapreduce.tracker import TaskTracker
from repro.sim.engine import Simulator
from repro.workloads.specs import make_job
from repro.zoo import create_policy


def free_slots(tracker, kind):
    if kind is TaskKind.MAP:
        return tracker.free_map_slots()
    return tracker.free_reduce_slots()


def scan_oracle(trackers, kind, load):
    free = [t for t in trackers if free_slots(t, kind) > 0]
    return min(free, key=lambda t: (load[id(t.context.pm)], len(t.running), t.name))


class RoundRecorder:
    """Drives dispatch rounds and records chosen vs oracle trackers.

    ``on_launch(n)`` runs after the n-th recorded launch (1-based); tests
    use it to free a slot in the middle of a round.
    """

    def __init__(self, jt, on_launch=None):
        self.jt = jt
        self.on_launch = on_launch
        self.chosen = []
        self.expected = []
        self.load = {}
        jt._launch = self._launch

    def round(self):
        self.load = {}
        for t in self.jt.trackers:
            key = id(t.context.pm)
            self.load[key] = self.load.get(key, 0) + len(t.running)
        self.jt._dispatch()

    def _launch(self, task, tracker, speculative=False):
        self.expected.append(scan_oracle(self.jt.trackers, task.kind, self.load).name)
        self.chosen.append(tracker.name)
        attempt = preload(self.jt, task, tracker)
        self.load[id(tracker.context.pm)] += 1
        if self.on_launch is not None:
            self.on_launch(len(self.chosen))
        return attempt


def preload(jt, task, tracker):
    """Occupy a slot of ``tracker`` with an attempt of ``task`` that
    never starts (its slot stays held until it is killed)."""
    attempt = TaskAttempt(jt, task, tracker)
    tracker.assign(attempt)
    return attempt


def make_jt(sim, cluster, trackers, scheduler=None):
    fs = HDFS(sim, cluster.fabric, 64.0, 2)
    for ctx in cluster.all_contexts():
        fs.add_datanode(ctx)
    return JobTracker(
        sim, fs, cluster.fabric, trackers,
        scheduler=scheduler, speculation=False, slowstart=0.0,
    )


def submit(jt, name, maps, reduces):
    spec = make_job("Sort", input_gb=maps * 0.0625, num_maps=maps,
                    num_reducers=reduces, name=name)
    return jt.submit(spec)


def random_fleet(rng, sim):
    n_pms = rng.randint(1, 64)
    n_native = rng.randint(0, n_pms)
    cluster = Cluster.hybrid(sim, n_native, n_pms - n_native, 4)
    contexts = [pm.native for pm in cluster.native_pms]
    for pm in cluster.virtualized_pms:
        contexts.extend(pm.vms[: rng.randint(1, 4)])
    trackers = [
        TaskTracker(ctx, rng.choice([0, 1, 2, 3]), rng.choice([0, 1, 2]))
        for ctx in contexts
    ]
    return cluster, trackers


SCHEDULERS = [
    FIFOScheduler,
    FairScheduler,
    lambda: create_policy("drf"),
    lambda: create_policy("delay"),
]


@pytest.mark.parametrize("seed", range(40))
def test_dispatch_rounds_match_scan_oracle(seed):
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    cluster, trackers = random_fleet(rng, sim)
    jt = make_jt(sim, cluster, trackers, rng.choice(SCHEDULERS)())

    # preloaded load: a background job whose attempts hold slots
    background = submit(jt, "background", 48, 24)
    held = []
    for task in background.map_tasks + background.reduce_tasks:
        tracker = rng.choice(trackers)
        if rng.random() < 0.5 and free_slots(tracker, task.kind) > 0:
            held.append(preload(jt, task, tracker))
    for tracker in trackers:
        if rng.random() < 0.15:
            tracker.alive = False

    def release(n):
        # some rounds free a slot after their second launch
        if n == 2 and release_mid_round and held:
            held.pop(rng.randrange(len(held))).kill()

    recorder = RoundRecorder(jt, release)
    for i in range(rng.randint(1, 3)):
        submit(jt, f"job{i}", rng.randint(1, 40), rng.randint(0, 12))
    for _ in range(3):
        release_mid_round = rng.random() < 0.5
        recorder.round()
        # between rounds: some attempts end and some trackers revive
        for _ in range(rng.randint(0, 4)):
            if held:
                held.pop(rng.randrange(len(held))).kill()
        for tracker in trackers:
            if not tracker.alive and rng.random() < 0.3:
                jt.handle_node_repair(tracker.context)

    assert recorder.chosen, "the fleet took no task"
    assert recorder.chosen == recorder.expected
    for ctx in {id(t.context): t.context for t in trackers}.values():
        scanned = [a for t in trackers if t.context is ctx for a in t.running]
        assert jt.attempts_on_context(ctx) == scanned


def test_slot_freed_mid_round_is_offered_again():
    sim = Simulator(seed=1)
    cluster = Cluster.native(sim, 2)
    first, second = (pm.native for pm in cluster.pms)
    small = TaskTracker(first, map_slots=1, reduce_slots=0)
    big = TaskTracker(second, map_slots=3, reduce_slots=0)
    assert small.name < big.name
    jt = make_jt(sim, cluster, [small, big])
    background = submit(jt, "background", 1, 0)
    held = preload(jt, background.map_tasks[0], small)

    def release(n):
        if n == 1:
            held.kill()

    recorder = RoundRecorder(jt, release)
    submit(jt, "job", 2, 0)
    recorder.round()
    # small is full at round start, so big takes the first map; once
    # small's slot frees, both PMs carry load 1 and small has fewer
    # running attempts, so it must take the second.  The killed
    # background map reopens, so three maps run in all.
    assert recorder.chosen == [big.name, small.name, big.name]
    assert recorder.chosen == recorder.expected
