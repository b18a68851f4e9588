"""Event core: invariants of the one queue and the one max-min fill.

Three families of evidence:

- the heap queue fires events in strictly increasing
  ``(time, priority, seq)`` order under adversarial schedules
  (cancellations, recurrences, same-key ties, ghost keys, a split
  ``run(until)``), never fires a cancelled event, fires every other
  event exactly once, and gives the same trace with or without forced
  compaction;
- the fabric's indexed max-min fill is *bitwise* identical to the
  dict-based oracle in ``tests/maxmin_oracle.py``;
- ``Simulator.step``'s single dispatch tail means accounting and
  profiling runs replay the bare run event-for-event.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.network import _HostLinks, maxmin_fill
from tests.maxmin_oracle import maxmin_flow_rates


# ----------------------------------------------------------------------
# heap queue: order, cancellation and compaction invariants
# ----------------------------------------------------------------------
class _RecordingSimulator(Simulator):
    """Logs every event it creates and every live event it pops."""

    def __init__(self) -> None:
        super().__init__()
        self.created = []
        self.fired = []

    def schedule(self, delay, callback, priority=0):
        event = super().schedule(delay, callback, priority)
        self.created.append(event)
        return event

    def _schedule_abs(self, time, callback, priority=0):
        event = super()._schedule_abs(time, callback, priority)
        self.created.append(event)
        return event

    def _pop_live(self):
        event = super()._pop_live()
        if event is not None:
            self.fired.append((event.sort_key(), event.cancelled, event))
        return event


def _run_scenario(seed: int, compact: bool):
    """Drive one randomized schedule; ``compact`` forces extra
    ``_compact()`` calls mid-run and between the split runs.

    The RNG is consumed *inside callbacks*, so any change in pop order
    cascades into a loudly different trace rather than a near miss.
    """
    rng = random.Random(seed)
    sim = _RecordingSimulator()
    trace = []
    pending = []
    #: seqs the scenario cancelled while they were still queued
    cancelled_queued = set()

    def cancel(event) -> None:
        if all(fired is not event for _, _, fired in sim.fired):
            cancelled_queued.add(event.seq)
        event.cancel()

    def make(label: str, depth: int):
        def cb() -> None:
            trace.append((round(sim.now, 9), label))
            roll = rng.random()
            if roll < 0.35 and depth < 4:
                # schedule more work from within a callback
                for i in range(rng.randrange(1, 3)):
                    pending.append(
                        sim.schedule(
                            rng.uniform(0.0, 7.0),
                            make(f"{label}.{i}", depth + 1),
                            priority=rng.randrange(-2, 3),
                        )
                    )
            elif roll < 0.55 and pending:
                # cancel a random event (tombstone/ghost source); it
                # may already have fired, which must be a no-op
                cancel(pending.pop(rng.randrange(len(pending))))
            elif roll < 0.60 and compact:
                # mid-run compaction must be invisible to pop order
                sim._compact()

        return cb

    for i in range(rng.randrange(5, 25)):
        pending.append(
            sim.schedule(
                rng.uniform(0.0, 10.0),
                make(f"root{i}", 0),
                priority=rng.randrange(-2, 3),
            )
        )
    # exact-grid recurrences, one cancelled mid-run
    cancels = [
        sim.call_every(rng.uniform(0.5, 2.0), make(f"every{i}", 4), until=12.0)
        for i in range(2)
    ]

    def stop_every0() -> None:
        trace.append((round(sim.now, 9), "stop-every0"))
        cancels[0]()

    sim.schedule(rng.uniform(2.0, 6.0), stop_every0)
    # a same-(time, priority) collision: seq must break the tie
    t = rng.uniform(1.0, 9.0)
    for i in range(3):
        sim.schedule_at(t, make(f"tie{i}", 4), priority=1)

    # split the run so run(until)'s raw-head-peek semantics are hit too
    sim.run(until=rng.uniform(2.0, 8.0))
    if compact:
        sim._compact()
    sim.run(until=40.0)
    sim.run()  # final drain
    return sim, trace, cancelled_queued


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_heap_queue_invariants_under_adversarial_schedule(seed):
    sim, trace, cancelled_queued = _run_scenario(seed, compact=True)
    keys = [key for key, _, _ in sim.fired]
    assert all(a < b for a, b in zip(keys, keys[1:])), "keys not increasing"
    # no cancelled event ever fires
    assert not any(was_cancelled for _, was_cancelled, _ in sim.fired)
    fired = Counter(event.seq for _, _, event in sim.fired)
    assert not cancelled_queued & set(fired)
    stop = [label for _, label in trace].index("stop-every0")
    assert not any(label == "every0" for _, label in trace[stop:])
    # after the drain, every never-cancelled event fired exactly once
    for event in sim.created:
        assert fired[event.seq] <= 1
        if not event.cancelled:
            assert fired[event.seq] == 1, event
    assert sim.pending == 0
    assert sim.queue_stats()["depth"] == 0
    # forced compaction is invisible: identical trace without it
    plain, plain_trace, _ = _run_scenario(seed, compact=False)
    assert plain_trace == trace
    assert [key for key, _, _ in plain.fired] == keys
    assert plain.now == sim.now
    assert plain.events_processed == sim.events_processed


def test_queue_stats_reports_backend():
    sim = Simulator()
    empty = {"backend": "heap", "depth": 0, "live": 0, "tombstones": 0,
             "ghost_keys": 0}
    assert sim.queue_stats() == empty
    doomed = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    doomed.cancel()
    assert sim.queue_stats() == dict(empty, depth=2, live=1, tombstones=1)
    sim._compact()
    assert sim.queue_stats() == dict(empty, depth=1, live=1, ghost_keys=1)


# ----------------------------------------------------------------------
# indexed max-min fill: bitwise identical to the oracle
# ----------------------------------------------------------------------
class _F:
    __slots__ = ("src", "dst")

    def __init__(self, src: str, dst: str) -> None:
        self.src = src
        self.dst = dst


def _random_topology(rng: random.Random):
    n_hosts = rng.randrange(2, 9)
    hosts = [f"h{i}" for i in range(n_hosts)]
    # a few shared capacity values so exact float ties actually occur
    tie_pool = [rng.uniform(20.0, 2000.0) for _ in range(3)]
    links = {}
    for h in hosts:
        up = rng.choice(tie_pool) if rng.random() < 0.6 else rng.uniform(20.0, 2000.0)
        down = rng.choice(tie_pool) if rng.random() < 0.6 else rng.uniform(20.0, 2000.0)
        link = _HostLinks(up, down, 2000.0, h)
        if rng.random() < 0.3:
            link.nic_scale = rng.choice([0.25, 0.5, 1.0])
        links[h] = link
    flows = []
    for _ in range(rng.randrange(1, 120)):
        src, dst = rng.sample(hosts, 2)
        flows.append(_F(src, dst))
    return flows, links


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_maxmin_fill_dispatcher_matches_reference(seed):
    """Random topologies with exact capacity ties and degraded NICs.

    Bitwise, not approx: the fill feeds completion-event timestamps, so
    even a 1-ulp drift would change same-seed digests.
    """
    flows, links = _random_topology(random.Random(seed))
    assert maxmin_fill(flows, links) == maxmin_flow_rates(flows, links)


# ----------------------------------------------------------------------
# step(): one dispatch tail, instrumented runs replay the bare run
# ----------------------------------------------------------------------
def _instrumented_run(accounting: bool, profiling: bool, stepwise: bool):
    sim = Simulator()
    if accounting:
        sim.enable_event_accounting()
    if profiling:
        from repro.obs.prof import Profiler

        sim.enable_profiling(Profiler(gauge_sample_every=16))
    rng = random.Random(42)
    trace = []

    def make(label, depth):
        def cb():
            trace.append((round(sim.now, 9), label))
            if depth < 3 and rng.random() < 0.4:
                sim.schedule(rng.uniform(0.0, 3.0), make(label + "'", depth + 1))

        return cb

    for i in range(30):
        sim.schedule(rng.uniform(0.0, 5.0), make(f"e{i}", 0), priority=i % 3)
    if stepwise:
        while sim.step():
            pass
    else:
        sim.run()
    return trace, sim.events_processed


def test_step_dispatch_tail_identical_across_instrumentation():
    """Regression for the duplicated step() dispatch tail: accounting
    and profiling variants must process the identical event sequence
    with identical ``events_processed`` -- via step() and run() both."""
    baseline = _instrumented_run(accounting=False, profiling=False, stepwise=False)
    for accounting in (False, True):
        for profiling in (False, True):
            for stepwise in (False, True):
                got = _instrumented_run(accounting, profiling, stepwise)
                assert got == baseline, (
                    f"dispatch drift with accounting={accounting} "
                    f"profiling={profiling} stepwise={stepwise}"
                )
