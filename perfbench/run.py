"""Benchmark of the HybridMR simulator: end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hybrid-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

One run measures one workload in this process.  After a warm-up pass it
repeats the workload's fixed amount of simulated work until
``--seconds`` have passed and reports medians over the passes:

``--trace 0``
    untraced passes; prints the end-to-end metrics (``run_s``,
    ``cpu_s``, ``setup_s``, ``peak_rss_mb``).  The only wrapper is one
    boundary on ``Simulator.run`` (plus the correctness probes of the
    workload, one list append per operation).
``--trace 1``
    untraced and span-traced passes alternate (their wall times give
    ``trace.overhead_pct``), then a counting pass gives the
    deterministic per-layer counters (see ``tracer.py``); fleet-wave
    adds one counting pass at a quarter of its fleet.

Every pass is checked: the result digest must repeat across all passes
of the run (traced ones included) and the workload's invariants must
hold.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full report (and, for a
traced run, the spans of the last span-traced pass as a Chrome trace)
goes to ``perfbench/out/``.  Exit status is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import FLEET_QUARTER_PMS, WORKLOADS  # noqa: E402

#: every pass repeats; a run never reports a median of fewer passes
MIN_PASSES = 3


class Probe:
    """Per-pass observations: the ``Simulator.run`` boundary plus the
    operations the workload checks collect."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.run_s = 0.0
        self.events = 0
        self.jobs: list = []
        self.flows: list = []
        self.fabrics: dict = {}

    def install(self, patcher) -> None:
        from repro.sim.engine import Simulator

        run = Simulator.run
        probe = self

        def timed_run(sim, *args, **kwargs):
            before = sim.events_processed
            start = time.perf_counter()
            try:
                return run(sim, *args, **kwargs)
            finally:
                probe.run_s += time.perf_counter() - start
                probe.events += sim.events_processed - before

        patcher.set(Simulator, "run", timed_run)


def digest(result: dict) -> str:
    payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def one_pass(workload, seed: int, probe: Probe, pms: Optional[int] = None) -> dict:
    """Run the workload once; time it, then check it (untimed)."""
    gc.collect()
    probe.reset()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    result = workload.run(seed, pms)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    problems = workload.check(result, probe)
    attempted, failed = workload.operations(result, probe)
    if problems:
        failed = attempted  # a failed check fails the whole pass
    return {
        "result": result,
        "digest": digest(result),
        "wall_s": wall,
        "cpu_s": cpu,
        "run_s": probe.run_s,
        "setup_s": wall - probe.run_s,
        "events": probe.events,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import platform

    import repro
    from repro.sim.engine import Simulator

    try:
        import numpy  # noqa: F401

        numpy_ok = True
    except ImportError:
        numpy_ok = False
    return {
        "python": platform.python_version(),
        "numpy": numpy_ok,
        "queue_backend": Simulator(seed=0).queue_stats()["backend"],
        "nproc": os.cpu_count(),
        "repro_version": repro.__version__,
        "git_commit": git_commit(),
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    }


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def median_of(passes: List[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: List[dict]) -> Dict[str, dict]:
    return {
        "run_s": {"value": median_of(passes, "run_s"), "unit": "s"},
        "cpu_s": {"value": median_of(passes, "cpu_s"), "unit": "s"},
        "setup_s": {"value": median_of(passes, "setup_s"), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload, t, c, counting: dict, overhead_pct: float,
              quarter) -> Dict[str, dict]:
    """The per-layer metrics: times from the tracer ``t`` of the median
    span-traced pass, counts from the tracer ``c`` of a counting pass."""
    ev = "ev"
    pool_ticks, _ = c.owner_totals(ev, "repro.sim.pool", "ResourcePool")
    _, pool_tick_s = t.owner_totals(ev, "repro.sim.pool", "ResourcePool")
    _, net_tick_s = t.owner_totals(ev, "repro.sim.network", "NetworkFabric")
    jt_rounds, _ = c.owner_totals(ev, "repro.mapreduce.jobtracker", "JobTracker")
    _, jt_s = t.owner_totals(ev, "repro.mapreduce.jobtracker", "JobTracker")
    drm_epochs, _ = c.owner_totals(ev, "repro.core.drm", "DynamicResourceManager")
    _, drm_s = t.owner_totals(ev, "repro.core.drm", "DynamicResourceManager")
    ips_polls = (c.owner_totals(ev, "repro.core.ips", "InterferencePreventionSystem")[0]
                 + c.owner_totals(ev, "repro.interactive.sla", "SLAMonitor")[0])
    ips_s = (t.owner_totals(ev, "repro.core.ips", "InterferencePreventionSystem")[1]
             + t.owner_totals(ev, "repro.interactive.sla", "SLAMonitor")[1])
    svc_epochs, _ = c.owner_totals(ev, "repro.interactive.service", "InteractiveService")
    _, svc_s = t.owner_totals(ev, "repro.interactive.service", "InteractiveService")
    scheduled = c.calls("engine.scheduled")
    cancelled = c.calls("engine.cancelled")
    assigns = c.calls("jt.assign")
    placements = c.calls("nn.place")
    count, sec, pct, ratio = "count", "s", "%", "ratio"
    m = {
        "engine.events": (counting["events"], count),
        "engine.scheduled": (scheduled, count),
        "engine.cancelled": (cancelled, count),
        "engine.tombstone_ratio": (_ratio(cancelled, scheduled), ratio),
        "engine.self_s": (t.layer_self["engine"], sec),
        "pool.ticks": (pool_ticks, count),
        "pool.tick_self_s": (pool_tick_s, sec),
        "pool.waterfill_calls": (c.calls("pool.waterfill"), count),
        "pool.waterfill_entries": (c.size("pool.waterfill"), count),
        "pool.waterfill_s": (t.self_s("pool.waterfill"), sec),
        "pool.adds": (c.calls("pool.add"), count),
        "pool.removes": (c.calls("pool.remove"), count),
        "pool.batches": (c.calls("pool.batch"), count),
        "pool.entry_updates": (c.calls("pool.entry_update"), count),
        "vm.refresh_calls": (c.calls("vm.refresh"), count),
        "vm.refresh_s": (t.self_s("vm.refresh"), sec),
        "vm.cap_updates": (c.calls("vm.cap_update"), count),
        "ctx.work_items": (c.calls("ctx.work"), count),
        "net.flows_started": (c.calls("net.start"), count),
        "net.flows_cancelled": (c.calls("net.cancel"), count),
        "net.fill_calls": (c.calls("net.fill"), count),
        "net.fill_flows": (c.size("net.fill"), count),
        "net.fill_s": (t.self_s("net.fill"), sec),
        "net.tick_self_s": (net_tick_s, sec),
        "net.batches": (c.calls("net.batch"), count),
        "jt.dispatch_rounds": (jt_rounds, count),
        "jt.dispatch_self_s": (jt_s, sec),
        "jt.assignments": (assigns, count),
        "jt.slot_probes": (c.calls("jt.probe"), count),
        "jt.probes_per_assign": (_ratio(c.calls("jt.probe"), assigns), ratio),
        "jt.replica_lookups": (c.calls("jt.replica_lookup"), count),
        "nn.placements": (placements, count),
        "nn.place_s": (t.self_s("nn.place"), sec),
        "nn.datanode_reads": (c.calls("nn.dn_read"), count),
        "nn.scans_per_placement": (_ratio(c.calls("nn.dn_read"), placements), ratio),
        "hdfs.block_reads": (c.calls("hdfs.read"), count),
        "hdfs.file_writes": (c.calls("hdfs.write"), count),
        "hdfs.preload_s": (t.self_s("hdfs.preload"), sec),
        "drm.epochs": (drm_epochs, count),
        "drm.epoch_self_s": (drm_s, sec),
        "drm.samples": (c.calls("drm.sample"), count),
        "drm.model_refreshes": (c.calls("drm.refresh"), count),
        "ips.polls": (ips_polls, count),
        "ips.poll_self_s": (ips_s, sec),
        "sched.placements": (c.calls("sched.place"), count),
        "svc.epochs": (svc_epochs, count),
        "svc.epoch_self_s": (svc_s, sec),
        "svc.solves": (c.calls("svc.solve"), count),
        "setup.cluster_s": (t.self_s("setup.cluster"), sec),
        "setup.mr_s": (t.self_s("setup.mr"), sec),
        "sim.makespan_s": (workload.makespan_s(counting["result"]), sec),
        "trace.overhead_pct": (overhead_pct, pct),
        "trace.run_s": (t.run_wall, sec),
    }
    for layer, own in t.layer_self.items():
        if layer != "engine":
            m[f"layer.{layer}_s"] = (own, sec)
    probes_q, scans_q = quarter if quarter is not None else (0.0, 0.0)
    curve = f"curve.pms{FLEET_QUARTER_PMS}"
    m[f"{curve}.jt.probes_per_assign"] = (probes_q, ratio)
    m[f"{curve}.nn.scans_per_placement"] = (scans_q, ratio)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
def measure_untraced(workload, seed: int, seconds: float, probe: Probe) -> List[dict]:
    passes: List[dict] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(one_pass(workload, seed, probe))
    return passes


def traced_pass(workload, seed: int, probe: Probe, counting: bool,
                pms: Optional[int] = None):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(counting=counting)
    try:
        result = one_pass(workload, seed, probe, pms)
    finally:
        tracer.uninstall()
    return result, tracer


def measure_traced(workload, seed: int, seconds: float, probe: Probe) -> dict:
    """Alternate untraced and span-traced passes, then count."""
    untraced: List[dict] = []
    timed: List[tuple] = []
    start = time.perf_counter()
    while len(timed) < MIN_PASSES or time.perf_counter() - start < seconds:
        untraced.append(one_pass(workload, seed, probe))
        if timed:
            timed[-1][1].spans = []  # only the last pass's spans are kept
        timed.append(traced_pass(workload, seed, probe, counting=False))
    last_spans = timed[-1][1]
    counting, counter = traced_pass(workload, seed, probe, counting=True)
    extra_passes = [counting]
    quarter = None
    if workload.curve_pms is not None:
        q_pass, q_tracer = traced_pass(workload, seed, probe, counting=True,
                                       pms=workload.curve_pms)
        quarter = (
            _ratio(q_tracer.calls("jt.probe"), q_tracer.calls("jt.assign")),
            _ratio(q_tracer.calls("nn.dn_read"), q_tracer.calls("nn.place")),
        )
        extra_passes.append(q_pass)
    by_run = sorted(timed, key=lambda pt: pt[1].run_wall)
    _, median_tracer = by_run[(len(by_run) - 1) // 2]
    overhead = 100.0 * (
        median_of([p for p, _ in timed], "wall_s") / median_of(untraced, "wall_s")
        - 1.0
    )
    problems = []
    gaps = []
    for _, tracer in timed:
        tiled = sum(tracer.layer_self.values())
        gaps.append(abs(tiled - tracer.run_wall) / tracer.run_wall)
        if gaps[-1] > 0.01:
            problems.append(
                f"layer self times sum to {tiled:.6f} s, traced "
                f"Simulator.run wall is {tracer.run_wall:.6f} s"
            )
    # every count a span pass also takes must repeat exactly in each span
    # pass and in the counting pass
    counts = {k: (v[0], v[2]) for k, v in counter.acc.items()}
    for _, tracer in timed:
        if any(counts.get(k) != (v[0], v[2]) for k, v in tracer.acc.items()):
            problems.append("deterministic counters differ between passes")
            break
    if len({p["events"] for p, _ in timed} | {counting["events"]}) != 1:
        problems.append("event counts differ between traced passes")
    metrics = per_layer(workload, median_tracer, counter, counting, overhead,
                        quarter)
    return {
        "passes": untraced + [p for p, _ in timed] + extra_passes,
        "digest_passes": untraced + [p for p, _ in timed] + [counting],
        "metrics": metrics,
        "problems": problems,
        "tiling_gap_max": max(gaps),
        "missing": sorted(set(counter.missing)),
        "self_by_key": median_tracer.module_self(),
        "spans": last_spans,
    }


def summary_lines(metrics: Dict[str, dict], extra: Dict[str, float],
                  attempted: int, failed: int) -> List[str]:
    lines = [f"  {k:<38} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(
        f"  {'failed_frac':<38} {_ratio(failed, attempted):>14.6g} ratio"
        f"  ({failed} of {attempted} operations)"
    )
    for key, value in extra.items():
        unit = "pp" if key == "paper_gap_pp" else "%"
        lines.append(f"  {key:<38} {value:>14.6g} {unit}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from tracer import Patcher

    workload = WORKLOADS[name]
    env = environment()
    patcher = Patcher()
    probe = Probe()
    probe.install(patcher)
    workload.install_probes(patcher, probe)
    wall0 = time.perf_counter()
    warmup = one_pass(workload, seed, probe)
    run_problems: List[str] = []
    if trace:
        traced = measure_traced(workload, seed, seconds, probe)
        passes = traced["passes"]
        digest_passes = [warmup] + traced["digest_passes"]
        metrics = traced["metrics"]
        run_problems = traced["problems"]
    else:
        passes = measure_untraced(workload, seed, seconds, probe)
        digest_passes = [warmup] + passes
        metrics = end_to_end(passes)
    patcher.restore()
    all_passes = [warmup] + passes
    problems = list(run_problems)
    for i, p in enumerate(all_passes):
        problems.extend(f"pass {i}: {msg}" for msg in p["problems"])
    digests = {p["digest"] for p in digest_passes}
    if len(digests) != 1:
        problems.append(f"result digest differs across passes: {sorted(digests)}")
    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    if problems and failed == 0:
        failed = attempted
    extra = workload.extra_report(warmup["result"])
    correct = not problems

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env,
        "elapsed_s": time.perf_counter() - wall0,
        "passes": [{k: v for k, v in p.items() if k != "result"} for p in all_passes],
        "digest": warmup["digest"],
        "metrics": metrics,
        "failed_frac": _ratio(failed, attempted),
        "extra": extra,
        "problems": problems,
    }
    if trace:
        report["missing_entry_points"] = traced["missing"]
        report["tiling_gap_max"] = traced["tiling_gap_max"]
        report["self_s_by_span"] = traced["self_by_key"]
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    if trace:
        with open(f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(traced["spans"].chrome_trace(), fh)

    print(f"perfbench {name} seed={seed} trace={int(trace)}: "
          f"{len(all_passes)} passes in {report['elapsed_s']:.1f} s")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in summary_lines(metrics, extra, attempted, failed):
        print(line)
    if trace and traced["missing"]:
        print("  missing entry points: " + ", ".join(traced["missing"]))
    for problem in problems:
        print(f"  FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, one child process at a time."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = subprocess.run(cmd, cwd=str(ROOT)).returncode
        if code != 0:
            print(f"perfbench: {name} exited with {code}", file=sys.stderr)
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
