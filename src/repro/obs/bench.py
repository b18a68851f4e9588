"""Simulator self-measurement (``repro bench``).

Measures the simulator itself: where its wall time goes, and whether
the same seed gives the same work and the same result.  Each
benchmarked cell (a :mod:`repro.sweep` figure function) runs three
kinds of pass, each under a :class:`~repro.obs.capture.SimCapture`:

1. one *bare* timed pass with nothing attached: wall-clock time,
   events processed and events/sec (informational; speed is gated by
   the paired ``perfbench`` gate, ``tools/paired_perfbench.py``);
2. one *profiled* pass under a :class:`~repro.obs.prof.Profiler`
   (optionally with ``tracemalloc`` sampling): per-subsystem event
   counts and self/cumulative wall time, engine-health gauges and the
   flamegraph stacks.  It is never timed;
3. one *traced* pass with span tracing forced on: span counts and the
   :mod:`repro.obs.critpath` blame breakdown.

The profiled and traced passes stay separate: span recording runs
inside the callbacks the profiler times, so stacking tracing on the
profiled pass would inflate its wall time and skew the per-subsystem
self-shares.  Both observed passes double as determinism checks -- each
must reproduce the bare result digest (``profiling_consistent``,
``tracing_consistent``), proof that observation never perturbs the
simulation.

``run_bench`` writes one report (schema ``repro.bench/1``)::

    {
      "schema": "repro.bench/1",
      "repro_version": "...", "python": "...", "platform": "...",
      "scale": "tiny", "seed": 1,
      "cells": {
        "<figure>": {
          "wall_s": ..., "events": N, "events_per_s": ...,
          "simulators": N, "event_counts": {"repro.sim.network": N, ...},
          "wall_traced_s": ..., "spans": N, "spans_per_s": ...,
          "result_digest": "sha256...", "tracing_consistent": true,
          "profiling_consistent": true, "profile": {...},
          "jobs": N, "blame_s": {...}, "blame_pct": {...}
        }, ...
      },
      "totals": {"wall_s", "events", "events_per_s", "elapsed_s",
                 "peak_rss_kb"}
    }

``profile`` is :meth:`Profiler.snapshot` of the profiled pass.
``compare_reports`` is the determinism gate: against a committed
baseline it fails when a cell's ``result_digest``, ``events`` or any
``event_counts`` entry differs, or an observed pass perturbed a
result.  Cell-set drift and per-subsystem self-share shifts are notes.
Wall times are reported but never gated here: a single run on a shared
machine cannot tell a slowdown from noise.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
import tracemalloc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.obs.capture import SimCapture
from repro.obs.prof import Profiler

REPORT_SCHEMA = "repro.bench/1"

#: a subsystem self-share move (percentage points) worth a gate note
SHARE_SHIFT_PP = 5.0

#: cells benchmarked by default: the headline claims plus one cell per
#: subsystem of interest (virt overheads, deployment geometry, the
#: scheduler benefit suite, live migration, fault injection)
DEFAULT_CELLS: Tuple[str, ...] = (
    "headline",
    "fig01",
    "fig02",
    "fig08",
    "fig10",
    "chaos",
    "fabric",
)


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process (KB on Linux)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def result_digest(result: object) -> str:
    """sha256 of the canonical JSON of a cell result."""
    payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_cell(
    figure: str,
    scale: str = "tiny",
    seed: int = 1,
    trace_malloc: bool = False,
) -> dict:
    """Benchmark one sweep cell: bare, profiled and traced passes.

    ``trace_malloc`` adds ``tracemalloc`` memory phases to the
    profiled pass.
    """
    from repro.experiments.common import resolve_scale
    from repro.sweep.cells import load, resolve

    figure = resolve(figure)
    fn = load(figure)
    scale_obj = resolve_scale(scale)

    with SimCapture() as bare:
        started = time.perf_counter()
        result = fn(scale_obj, seed)
        wall_s = time.perf_counter() - started
    digest = result_digest(result)
    events = bare.total_events()

    prof = Profiler(trace_memory=trace_malloc)
    started_tracemalloc = trace_malloc and not tracemalloc.is_tracing()
    if started_tracemalloc:
        tracemalloc.start()
    try:
        with SimCapture(profiler=prof):
            result_profiled = fn(scale_obj, seed)
    finally:
        if started_tracemalloc:
            tracemalloc.stop()
    profile = prof.snapshot()

    with SimCapture(tracing=True) as traced:
        started = time.perf_counter()
        result_traced = fn(scale_obj, seed)
        wall_traced_s = time.perf_counter() - started
    blame = traced.combined_blame()
    spans = traced.total_spans()

    return {
        "figure": figure,
        "wall_s": wall_s,
        "events": events,
        "events_per_s": events / wall_s if wall_s > 0 else 0.0,
        "simulators": len(bare.simulators),
        "event_counts": {
            name: sub["events"]
            for name, sub in profile["subsystems"].items()
            if sub["events"]
        },
        "wall_traced_s": wall_traced_s,
        "spans": spans,
        "spans_per_s": spans / wall_traced_s if wall_traced_s > 0 else 0.0,
        "result_digest": digest,
        "tracing_consistent": result_digest(result_traced) == digest,
        "profiling_consistent": result_digest(result_profiled) == digest,
        "profile": profile,
        "jobs": blame["total"]["jobs"],
        "blame_s": blame["total"]["blame_s"],
        "blame_pct": blame["total"]["blame_pct"],
    }


def run_bench(
    cells: Sequence[str] = DEFAULT_CELLS,
    scale: str = "tiny",
    seed: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    trace_malloc: bool = False,
) -> dict:
    """Benchmark ``cells`` and return the ``repro.bench/1`` report."""
    started = time.perf_counter()
    out: Dict[str, dict] = {}
    for figure in cells:
        cell = run_cell(figure, scale, seed, trace_malloc)
        out[cell["figure"]] = cell
        if progress is not None:
            progress(
                f"{cell['figure']}: {cell['events']} events in "
                f"{cell['wall_s']:.2f}s ({cell['events_per_s']:,.0f}/s), "
                f"{cell['spans']} spans, {cell['jobs']} jobs"
            )
    elapsed = time.perf_counter() - started
    total_wall = sum(c["wall_s"] for c in out.values())
    total_events = sum(c["events"] for c in out.values())
    return {
        "schema": REPORT_SCHEMA,
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scale": scale,
        "seed": seed,
        "cells": out,
        "totals": {
            "wall_s": total_wall,
            "events": total_events,
            "events_per_s": total_events / total_wall if total_wall > 0 else 0.0,
            "elapsed_s": elapsed,
            "peak_rss_kb": _peak_rss_kb(),
        },
    }


def write_bench_json(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# determinism gate
# ----------------------------------------------------------------------
def compare_reports(baseline: dict, current: dict) -> Tuple[List[str], List[str]]:
    """Gate a bench report on exact determinism against a baseline.

    Returns ``(failures, notes)``.  A cell present in both reports
    fails when its ``result_digest``, ``events`` or any
    ``event_counts`` entry differs from the baseline, or when its
    traced or profiled pass perturbed the result.  Notes (cells missing
    from the run, new cells, per-subsystem self-share shifts of
    ``SHARE_SHIFT_PP`` or more when both cells carry a ``profile``) are
    informational: the wall-time mix legitimately moves as code
    changes.
    """
    failures: List[str] = []
    notes: List[str] = []
    base_cells = baseline.get("cells", {})
    cur_cells = current.get("cells", {})
    for name in sorted(base_cells):
        if name not in cur_cells:
            notes.append(f"{name}: in baseline but missing from current run")
            continue
        base, cur = base_cells[name], cur_cells[name]
        for key in ("result_digest", "events"):
            if cur.get(key) != base.get(key):
                failures.append(
                    f"{name}: {key} {base.get(key)} -> {cur.get(key)}"
                )
        base_counts = base.get("event_counts", {})
        cur_counts = cur.get("event_counts", {})
        for module in sorted(set(base_counts) | set(cur_counts)):
            if cur_counts.get(module) != base_counts.get(module):
                failures.append(
                    f"{name}: event_counts[{module}] "
                    f"{base_counts.get(module)} -> {cur_counts.get(module)}"
                )
        for observer, observed in (("tracing", "traced"),
                                   ("profiling", "profiled")):
            if not cur.get(f"{observer}_consistent", True):
                failures.append(
                    f"{name}: {observer} perturbed the simulation result "
                    f"(digest mismatch between bare and {observed} passes)"
                )
        if "profile" in base and "profile" in cur:
            notes.extend(_share_shift_notes(
                name, base["profile"]["subsystems"],
                cur["profile"]["subsystems"],
            ))
    for name in sorted(set(cur_cells) - set(base_cells)):
        notes.append(f"{name}: new cell, not in baseline")
    return failures, notes


def _share_shift_notes(cell: str, base: dict, cur: dict) -> List[str]:
    notes = []
    for name in sorted(set(base) | set(cur)):
        base_pct = base.get(name, {}).get("self_pct", 0.0)
        cur_pct = cur.get(name, {}).get("self_pct", 0.0)
        shift = cur_pct - base_pct
        if abs(shift) >= SHARE_SHIFT_PP:
            notes.append(
                f"{cell}: {name} self-time share shifted "
                f"{base_pct:.1f}% -> {cur_pct:.1f}% ({shift:+.1f}pp)"
            )
    return notes


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def format_bench(report: dict) -> str:
    """Human-readable bench report table."""
    from repro.metrics.report import format_table

    rows = []
    for name, cell in sorted(report["cells"].items()):
        top_blame = max(
            cell["blame_s"].items(), key=lambda kv: kv[1]
        )[0] if any(cell["blame_s"].values()) else "-"
        subsystems = cell["profile"]["subsystems"]
        top_self = "-"
        if subsystems:
            top, sub = max(
                subsystems.items(), key=lambda kv: kv[1]["self_pct"]
            )
            top_self = f"{top} {sub['self_pct']:.0f}%"
        rows.append(
            [
                name,
                round(cell["wall_s"], 3),
                cell["events"],
                round(cell["events_per_s"]),
                cell["spans"],
                cell["jobs"],
                "ok" if cell["tracing_consistent"] else "PERTURBED",
                "ok" if cell["profiling_consistent"] else "PERTURBED",
                top_self,
                top_blame,
            ]
        )
    totals = report["totals"]
    title = (
        f"repro bench @ {report['scale']} seed {report['seed']} -- "
        f"{totals['events']} events in {totals['wall_s']:.2f}s "
        f"({totals['events_per_s']:,.0f}/s), "
        f"peak RSS {(totals['peak_rss_kb'] or 0) / 1024.0:.0f} MB"
    )
    return format_table(
        ["cell", "wall_s", "events", "events/s", "spans", "jobs",
         "traced", "profiled", "top_self", "top_blame"],
        rows,
        title=title,
    )
