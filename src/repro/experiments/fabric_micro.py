"""Shuffle-heavy network-fabric microbenchmark (``fabric`` cell).

A pure fabric stress test with no MapReduce on top: every VM host plays
reducer and fetches shuffle pieces from every other host in back-to-back
all-to-all waves, keeping a bounded number of fetches in flight exactly
like :meth:`TaskAttempt._pump_fetches`.  Same-PM fetches ride loopback
channels, a NIC degradation window and a partition pulse exercise the
fault surfaces, and a batch of doomed flows per wave exercises
``cancel_flow``.  This is the cell perfbench's ``shuffle-fabric``
workload times for the fabric hot path: nearly every simulation event
lands in ``repro.sim.network``, so events/sec here is a direct measure of the
flow rebalance + advance kernels, and the cell's profile (``repro bench
fabric --flame prof.flame``) splits their wall time between the
``net.maxmin_fill`` frame and the callbacks around it.

Pure function of ``(scale, seed, params)``: all piece sizes are drawn
up front from a labelled RNG stream and every control action (degrade,
partition, cancel) happens at a deterministic point of the wave
lifecycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.common import SMALL, Scale, resolve_scale
from repro.sim.engine import Simulator
from repro.sim.network import NetworkFabric


def _piece_queues(
    hosts: List[str], waves: int, fanout: int, piece_mb: float, rng
) -> Dict[int, Dict[str, List[Tuple[str, float]]]]:
    """Per-wave, per-reducer fetch queues, drawn before the clock runs."""
    queues: Dict[int, Dict[str, List[Tuple[str, float]]]] = {}
    for wave in range(waves):
        queues[wave] = {}
        for dst in hosts:
            pieces = []
            for src in hosts:
                if src == dst:
                    continue
                for _ in range(fanout):
                    pieces.append((src, piece_mb * (0.5 + rng.random())))
            queues[wave][dst] = pieces
    return queues


def run(
    scale: Scale = SMALL,
    seed: int = 7,
    waves: int = 5,
    fanout: int = 5,
    piece_mb: float = 24.0,
    parallel_fetches: int = 12,
    doomed_per_wave: int = 4,
    partition_wave: int = 2,
    partition_heal_s: float = 4.0,
) -> Dict[str, object]:
    """Sweep/bench cell: all-to-all shuffle waves on a bare fabric."""
    scale = resolve_scale(scale)
    sim = Simulator(seed=seed)
    fabric = NetworkFabric(sim)
    hosts: List[str] = []
    for pm in range(scale.pms):
        for vm in range(scale.vms_per_pm):
            host = f"vm{pm}.{vm}"
            fabric.register_host(host, group=f"pm{pm}")
            hosts.append(host)
    rng = sim.fork_rng("fabric.micro")
    queues = _piece_queues(hosts, waves, fanout, piece_mb, rng)

    pieces_per_wave = sum(len(q) for q in queues[0].values())
    state = {
        "wave": 0,
        "left": pieces_per_wave,
        "started": 0,
        "cancelled": 0,
        "inflight": {h: 0 for h in hosts},
        "doomed": [],
    }
    wave_finish: List[float] = []
    side_a = frozenset(h for h in hosts if h.startswith("vm0."))
    side_b = frozenset(hosts) - side_a

    def pump(dst: str) -> None:
        queue = queues[state["wave"]][dst]
        fabric.begin_batch()  # one fill per pump burst
        try:
            while state["inflight"][dst] < parallel_fetches and queue:
                src, mb = queue.pop(0)
                state["inflight"][dst] += 1
                state["started"] += 1
                fabric.start_flow(
                    src, dst, mb,
                    on_complete=lambda dst=dst: fetched(dst),
                    label=f"w{state['wave']}:{src}->{dst}",
                )
        finally:
            fabric.end_batch()

    def fetched(dst: str) -> None:
        state["inflight"][dst] -= 1
        state["left"] -= 1
        if state["left"] > 0:
            pump(dst)
            return
        # wave barrier: cancel the doomed batch, record, move on
        for flow in state["doomed"]:
            fabric.cancel_flow(flow)
            state["cancelled"] += 1
        state["doomed"] = []
        if fabric.nic_scale(hosts[0]) < 1.0:
            fabric.set_nic_scale(hosts[0], 1.0)
        wave_finish.append(sim.now)
        state["wave"] += 1
        if state["wave"] >= waves:
            return
        sim.schedule(0.0, begin_wave)

    def begin_wave() -> None:
        wave = state["wave"]
        state["left"] = sum(len(q) for q in queues[wave].values())
        # the whole wave launch (doomed batch, fault pulses, every
        # reducer's first pump burst) shares a single closing fill
        fabric.begin_batch()
        try:
            # a doomed batch that transfers until the wave barrier kills it
            for i in range(doomed_per_wave):
                src = hosts[i % len(hosts)]
                dst = hosts[(i + 1) % len(hosts)]
                state["doomed"].append(
                    fabric.start_flow(src, dst, 1e6, label=f"doomed{wave}.{i}")
                )
            if wave == 1:
                # NIC flap on the first host for the whole wave
                fabric.set_nic_scale(hosts[0], 0.5)
            if wave == partition_wave and len(side_b) > 0:
                fabric.partition(side_a, side_b)
                sim.schedule(partition_heal_s, fabric.heal_partition)
            for dst in hosts:
                pump(dst)
        finally:
            fabric.end_batch()

    sim.schedule(0.0, begin_wave)
    sim.run()
    return {
        "hosts": len(hosts),
        "waves": waves,
        "flows_started": state["started"],
        "flows_cancelled": state["cancelled"],
        "wave_finish_s": wave_finish,
        "makespan_s": wave_finish[-1] if wave_finish else 0.0,
        # rounded: totals are sums over per-interval float progress, and
        # the digest must not hang on associativity of that summation
        "cross_host_mb": round(fabric.cross_host_mb, 6),
        "bytes_mb": round(fabric.bytes_transferred_mb, 6),
    }
