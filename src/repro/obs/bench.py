"""Simulator self-measurement (``repro bench``).

Treats the simulator's own throughput as a first-class metric.  Each
benchmarked cell (a :mod:`repro.sweep` figure function) runs three
kinds of pass, each under a :class:`~repro.obs.capture.SimCapture`:

1. ``repeats`` *bare* timed passes with nothing attached: wall-clock
   time (the fastest repetition counts, so machine noise cannot
   masquerade as a regression), events processed and events/sec.
   Every repetition must produce the same result digest;
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
``compare_reports`` is the one regression gate: against a committed
baseline it fails when any cell's events/sec drops by more than the
tolerance (default 20%) or an observed pass perturbed a result;
result-digest changes and self-share shifts are surfaced as notes
(simulation outputs legitimately change across PRs -- the gate watches
*speed*, the tests watch *correctness*).
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
    repeats: int = 2,
    trace_malloc: bool = False,
) -> dict:
    """Benchmark one sweep cell: bare, profiled and traced passes.

    The bare pass runs ``repeats`` times and keeps the *fastest* wall
    time -- the usual best-of-N discipline that filters out scheduler
    noise from a shared machine, making the regression gate far less
    flaky.  Every repetition must produce the same result digest (the
    cells are pure functions of seed), which is asserted.
    ``trace_malloc`` adds ``tracemalloc`` memory phases to the
    profiled pass.
    """
    from repro.experiments.common import resolve_scale
    from repro.sweep.cells import load, resolve

    figure = resolve(figure)
    fn = load(figure)
    scale_obj = resolve_scale(scale)

    wall_s = float("inf")
    digest = None
    for _ in range(max(1, repeats)):
        with SimCapture() as bare:
            started = time.perf_counter()
            result = fn(scale_obj, seed)
            wall_s = min(wall_s, time.perf_counter() - started)
        rep_digest = result_digest(result)
        if digest is not None and rep_digest != digest:
            raise AssertionError(
                f"cell {figure} is not a pure function of its seed: "
                "result digest changed between bare repetitions"
            )
        digest = rep_digest
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
    repeats: int = 2,
    trace_malloc: bool = False,
) -> dict:
    """Benchmark ``cells`` and return the ``repro.bench/1`` report."""
    started = time.perf_counter()
    out: Dict[str, dict] = {}
    for figure in cells:
        cell = run_cell(figure, scale, seed, repeats, trace_malloc)
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
# regression gate
# ----------------------------------------------------------------------
def compare_reports(
    baseline: dict, current: dict, tolerance: float = 0.2
) -> Tuple[List[str], List[str]]:
    """Compare a bench report against a baseline.

    Returns ``(failures, notes)``.  Failures (events/sec regression
    beyond ``tolerance``, tracing or profiling perturbing a result)
    should fail CI; notes (digest changes, event-count and cell set
    drift, per-subsystem self-share shifts of ``SHARE_SHIFT_PP`` or
    more when both cells carry a ``profile``) are informational --
    the wall-time mix legitimately moves as code changes, the note
    makes the move visible instead of judging it.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    failures: List[str] = []
    notes: List[str] = []
    base_cells = baseline.get("cells", {})
    cur_cells = current.get("cells", {})
    for name in sorted(base_cells):
        if name not in cur_cells:
            notes.append(f"{name}: in baseline but missing from current run")
            continue
        base, cur = base_cells[name], cur_cells[name]
        floor = base["events_per_s"] * (1.0 - tolerance)
        if cur["events_per_s"] < floor:
            failures.append(
                f"{name}: events/s regressed "
                f"{base['events_per_s']:,.0f} -> {cur['events_per_s']:,.0f} "
                f"(floor {floor:,.0f} at tolerance {tolerance:.0%})"
            )
        if not cur.get("tracing_consistent", True):
            failures.append(
                f"{name}: tracing perturbed the simulation result "
                "(digest mismatch between bare and traced passes)"
            )
        if not cur.get("profiling_consistent", True):
            failures.append(
                f"{name}: profiling perturbed the simulation result "
                "(digest mismatch between bare and profiled passes)"
            )
        if cur.get("result_digest") != base.get("result_digest"):
            notes.append(
                f"{name}: result digest changed "
                f"(simulation output differs from the baseline)"
            )
        if base.get("events") and cur.get("events") != base["events"]:
            notes.append(
                f"{name}: events {base['events']} -> {cur['events']}"
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


def format_compare_table(baseline: dict, current: dict) -> str:
    """Per-cell delta table for ``repro bench --compare``.

    A bare pass/fail hides *where* a budget went; this shows each
    cell's events/sec move, the event-count drift, and the largest
    critpath blame-share shift -- the usual first clue to *why* a cell
    got slower (work moved between subsystems vs the same work running
    slower).
    """
    from repro.metrics.report import format_table

    base_cells = baseline.get("cells", {})
    cur_cells = current.get("cells", {})
    rows = []
    for name in sorted(set(base_cells) | set(cur_cells)):
        base, cur = base_cells.get(name), cur_cells.get(name)
        if base is None or cur is None:
            rows.append([
                name, "-", "-", "new" if base is None else "dropped",
                "-", "-",
            ])
            continue
        base_eps, cur_eps = base["events_per_s"], cur["events_per_s"]
        eps_delta = 100.0 * (cur_eps - base_eps) / base_eps if base_eps else 0.0
        shift_label = "-"
        base_blame = base.get("blame_pct", {})
        cur_blame = cur.get("blame_pct", {})
        shifts = [
            (cur_blame.get(c, 0.0) - base_blame.get(c, 0.0), c)
            for c in set(base_blame) | set(cur_blame)
        ]
        if shifts:
            shift, category = max(shifts, key=lambda sc: abs(sc[0]))
            if abs(shift) >= 0.05:
                shift_label = f"{category} {shift:+.1f}pp"
        rows.append([
            name,
            round(base_eps),
            round(cur_eps),
            f"{eps_delta:+.1f}%",
            cur.get("events", 0) - base.get("events", 0),
            shift_label,
        ])
    base_total = baseline.get("totals", {}).get("events_per_s", 0.0)
    cur_total = current.get("totals", {}).get("events_per_s", 0.0)
    total_delta = (
        100.0 * (cur_total - base_total) / base_total if base_total else 0.0
    )
    return format_table(
        ["cell", "base_ev/s", "cur_ev/s", "Δev/s", "Δevents", "blame_shift"],
        rows,
        title=(
            f"bench vs baseline -- total events/s "
            f"{base_total:,.0f} -> {cur_total:,.0f} ({total_delta:+.1f}%)"
        ),
    )


def archive_report(report: dict, directory: str) -> str:
    """Append ``report`` to a ``BENCH_trajectory/`` perf-history dir.

    Writes ``bench-<utc>-<digest8>.json`` plus one line in
    ``index.jsonl`` (timestamp, file, per-cell events/sec), so the
    events/sec history across PRs is one ``jq`` away.  Returns the
    archived file's path.
    """
    import os

    os.makedirs(directory, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode("utf-8")
    ).hexdigest()[:8]
    path = os.path.join(directory, f"bench-{stamp}-{digest}.json")
    write_bench_json(path, report)
    index_line = {
        "ts": stamp,
        "file": os.path.basename(path),
        "repro_version": report.get("repro_version"),
        "scale": report.get("scale"),
        "seed": report.get("seed"),
        "total_events_per_s": round(
            report.get("totals", {}).get("events_per_s", 0.0), 1
        ),
        "events_per_s": {
            name: round(cell["events_per_s"], 1)
            for name, cell in sorted(report.get("cells", {}).items())
        },
    }
    with open(os.path.join(directory, "index.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(index_line, sort_keys=True) + "\n")
    return path


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
