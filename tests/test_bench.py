"""repro.obs.bench + SimCapture: profiling, regression gate, CLI."""

import copy
import json
from pathlib import Path

import pytest

from repro.cluster.cluster import Cluster
from repro.mapreduce.cluster import MapReduceCluster
from repro.obs.bench import (
    DEFAULT_CELLS,
    archive_report,
    compare_reports,
    format_bench,
    format_compare_table,
    result_digest,
    run_bench,
    run_cell,
    write_bench_json,
)
from repro.obs.capture import SimCapture, active_sim_capture
from repro.obs.critpath import CATEGORIES
from repro.obs.prof import Profiler
from repro.sim.engine import Simulator
from repro.workloads.specs import make_job


def _tiny_job(seed=4):
    sim = Simulator(seed=seed)
    cluster = Cluster.native(sim, 4)
    mr = MapReduceCluster(sim, cluster.fabric, cluster.native_contexts())
    job = mr.run_job(make_job("Sort", input_gb=0.25, num_reducers=2))
    return sim, job


# ----------------------------------------------------------------------
# SimCapture + the profiler seam
# ----------------------------------------------------------------------
def test_sim_capture_collects_and_nests():
    assert active_sim_capture() is None
    with SimCapture() as outer:
        sim_a = Simulator(seed=1)
        with SimCapture() as inner:
            sim_b = Simulator(seed=2)
            assert inner.simulators == [sim_b]
            assert active_sim_capture() is inner
        assert active_sim_capture() is outer
        assert outer.simulators == [sim_a]
    assert active_sim_capture() is None


def test_sim_capture_forces_tracing_and_counts_spans():
    with SimCapture(tracing=True) as capture:
        sim, job = _tiny_job()
    assert job.done
    assert capture.total_spans() == len(sim.obs.tracer) > 0
    assert capture.total_events() == sim.events_processed > 0


def test_profiler_attributes_events_to_modules():
    profiler = Profiler()
    with SimCapture(profiler=profiler) as capture:
        sim, _job = _tiny_job()
    assert capture.simulators == [sim]
    subsystems = profiler.subsystem_table()
    assert subsystems, "the profiler should record per-module events"
    assert sum(s["events"] for s in subsystems.values()) == (
        sim.events_processed
    )
    assert any(module.startswith("repro.") for module in subsystems)


def test_sim_capture_combined_blame_ties_to_makespan():
    with SimCapture(tracing=True) as capture:
        _sim, job = _tiny_job()
    blame = capture.combined_blame()
    assert blame["total"]["jobs"] == 1
    assert sum(blame["total"]["blame_s"].values()) == pytest.approx(
        job.jct, abs=1e-6
    )


# ----------------------------------------------------------------------
# run_cell / run_bench
# ----------------------------------------------------------------------
def test_run_cell_profiles_and_blames_fig10():
    cell = run_cell("fig10", scale="tiny", seed=1)
    assert cell["figure"] == "fig10"
    assert cell["events"] > 0 and cell["events_per_s"] > 0
    assert cell["spans"] > 0 and cell["jobs"] >= 1
    assert cell["tracing_consistent"] is True
    assert cell["profiling_consistent"] is True
    assert set(cell["blame_s"]) == set(CATEGORIES)
    assert cell["event_counts"]
    assert sum(cell["event_counts"].values()) == cell["events"]
    assert cell["profile"]["events"] == cell["events"]
    assert cell["simulators"] >= 1


@pytest.mark.parametrize("figure", ["fig10", "fabric"])
def test_run_cell_matches_committed_baseline(figure):
    """The digest contract: same seed, same work, same result as the
    committed ``BENCH_headline.json`` -- exactly."""
    baseline_path = Path(__file__).resolve().parents[1] / "BENCH_headline.json"
    baseline = json.loads(baseline_path.read_text())["cells"][figure]
    cell = run_cell(figure, scale="tiny", seed=1)
    for key in ("events", "event_counts", "result_digest"):
        assert cell[key] == baseline[key], key


def test_run_bench_report_shape(tmp_path):
    report = run_bench(["fig10"], scale="tiny", seed=1)
    assert report["schema"] == "repro.bench/1"
    assert set(report["cells"]) == {"fig10"}
    totals = report["totals"]
    assert totals["events"] == report["cells"]["fig10"]["events"]
    assert totals["events_per_s"] > 0
    assert totals["peak_rss_kb"] is None or totals["peak_rss_kb"] > 0
    out = tmp_path / "bench.json"
    write_bench_json(str(out), report)
    assert json.loads(out.read_text()) == json.loads(
        json.dumps(report)
    )
    text = format_bench(report)
    assert "fig10" in text and "repro bench @ tiny" in text


def test_default_cells_cover_headline_and_chaos():
    assert "headline" in DEFAULT_CELLS and "chaos" in DEFAULT_CELLS


def test_result_digest_is_order_insensitive():
    assert result_digest({"a": 1, "b": 2}) == result_digest({"b": 2, "a": 1})
    assert result_digest({"a": 1}) != result_digest({"a": 2})


# ----------------------------------------------------------------------
# the regression gate
# ----------------------------------------------------------------------
def _fake_report(events_per_s=1000.0, digest="d0", consistent=True,
                 profiled=True):
    return {
        "cells": {
            "fig10": {
                "events": 100,
                "events_per_s": events_per_s,
                "result_digest": digest,
                "tracing_consistent": consistent,
                "profiling_consistent": profiled,
            }
        }
    }


def _with_shares(report, **self_pct):
    report["cells"]["fig10"]["profile"] = {"subsystems": {
        name: {"self_pct": pct} for name, pct in self_pct.items()
    }}
    return report


def test_compare_reports_passes_identical_runs():
    report = _fake_report()
    failures, notes = compare_reports(report, report, 0.2)
    assert failures == [] and notes == []


def test_compare_reports_fails_on_regression():
    baseline = _fake_report(events_per_s=1000.0)
    current = _fake_report(events_per_s=700.0)  # -30% < -20% tolerance
    failures, _notes = compare_reports(baseline, current, 0.2)
    assert len(failures) == 1 and "regressed" in failures[0]
    # within tolerance: -10% passes
    failures, _notes = compare_reports(
        baseline, _fake_report(events_per_s=900.0), 0.2
    )
    assert failures == []


def test_compare_reports_fails_on_tracing_perturbation():
    baseline = _fake_report()
    current = _fake_report(consistent=False)
    failures, _notes = compare_reports(baseline, current, 0.2)
    assert any("perturbed" in f for f in failures)


def test_compare_reports_fails_on_profiling_perturbation():
    failures, _notes = compare_reports(
        _fake_report(), _fake_report(profiled=False), 0.2
    )
    assert len(failures) == 1 and "profiling perturbed" in failures[0]


def test_compare_reports_notes_self_share_shift():
    baseline = _with_shares(_fake_report(), pool=40.0, net=10.0, jt=20.0)
    current = _with_shares(_fake_report(), pool=34.0, net=14.9, jt=21.0)
    failures, notes = compare_reports(baseline, current, 0.2)
    assert failures == []
    # pool moved 6pp (noted); net 4.9pp and jt 1pp stay quiet
    assert notes == [
        "fig10: pool self-time share shifted 40.0% -> 34.0% (-6.0pp)"
    ]
    # a baseline without profiles (older reports) gets no share notes
    failures, notes = compare_reports(_fake_report(), current, 0.2)
    assert failures == [] and notes == []


def test_compare_reports_notes_digest_and_cell_drift():
    baseline = _fake_report()
    current = _fake_report(digest="d1")
    current["cells"]["new"] = dict(current["cells"]["fig10"])
    failures, notes = compare_reports(baseline, current, 0.2)
    assert failures == []
    assert any("digest changed" in n for n in notes)
    assert any("new cell" in n for n in notes)
    failures, notes = compare_reports(current, baseline, 0.2)
    assert any("missing from current" in n for n in notes)


def test_compare_reports_validates_tolerance():
    with pytest.raises(ValueError):
        compare_reports(_fake_report(), _fake_report(), 1.0)
    with pytest.raises(ValueError):
        compare_reports(_fake_report(), _fake_report(), -0.1)


def test_format_compare_table_shows_deltas_and_blame_shift():
    baseline = _fake_report(events_per_s=1000.0)
    baseline["cells"]["fig10"]["blame_pct"] = {"compute": 80.0, "shuffle_wait": 20.0}
    baseline["totals"] = {"events_per_s": 1000.0}
    current = _fake_report(events_per_s=500.0)
    current["cells"]["fig10"]["events"] = 110
    current["cells"]["fig10"]["blame_pct"] = {"compute": 60.0, "shuffle_wait": 40.0}
    current["cells"]["dropped_cell"] = None  # exercise asymmetric sets
    del current["cells"]["dropped_cell"]
    current["totals"] = {"events_per_s": 500.0}
    table = format_compare_table(baseline, current)
    assert "fig10" in table
    assert "-50.0%" in table  # per-cell events/s delta
    assert "shuffle_wait +20.0pp" in table or "compute -20.0pp" in table
    assert "1,000 -> 500" in table  # totals line


def test_archive_report_appends_history(tmp_path):
    report = _fake_report()
    report["totals"] = {"events_per_s": 1000.0}
    directory = str(tmp_path / "traj")
    first = archive_report(report, directory)
    second = archive_report(
        dict(report, totals={"events_per_s": 2000.0}), directory
    )
    assert first != second
    with open(first) as fh:
        assert json.load(fh)["cells"]["fig10"]["events"] == 100
    with open(f"{directory}/index.jsonl") as fh:
        lines = [json.loads(line) for line in fh]
    assert [e["total_events_per_s"] for e in lines] == [1000.0, 2000.0]
    assert all(e["events_per_s"]["fig10"] == 1000.0 for e in lines)


# ----------------------------------------------------------------------
# CLI: repro bench --compare exits non-zero on a synthetic regression
# ----------------------------------------------------------------------
def test_cli_bench_compare_gate(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH.json"
    traj = tmp_path / "traj"
    rc = main(["bench", "fig10", "--scale", "tiny", "--seed", "1",
               "--out", str(out), "--trajectory-dir", str(traj)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["cells"]["fig10"]["events_per_s"] > 0
    # each run lands in the trajectory archive (file + index line)
    archived = list(traj.glob("bench-*.json"))
    assert len(archived) == 1
    index_lines = (traj / "index.jsonl").read_text().splitlines()
    assert len(index_lines) == 1
    assert json.loads(index_lines[0])["events_per_s"]["fig10"] > 0

    # self-compare passes the gate (generous tolerance: this pins the
    # gate mechanics, not this machine's timing stability)
    rc = main(["bench", "fig10", "--scale", "tiny", "--seed", "1",
               "--out", "", "--trajectory-dir", "none",
               "--compare", str(out), "--tolerance", "0.9"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "bench OK" in captured
    assert "bench vs baseline" in captured  # the per-cell delta table
    assert list(traj.glob("bench-*.json")) == archived  # 'none' skips

    # inject a synthetic regression: baseline claims 100x the speed
    doctored = copy.deepcopy(report)
    doctored["cells"]["fig10"]["events_per_s"] *= 100.0
    baseline = tmp_path / "BASELINE.json"
    baseline.write_text(json.dumps(doctored))
    rc = main(["bench", "fig10", "--scale", "tiny", "--seed", "1",
               "--out", "", "--trajectory-dir", "none",
               "--compare", str(baseline)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err


def test_cli_bench_rejects_bad_tolerance(monkeypatch, capsys):
    import repro.obs.bench
    from repro.cli import main

    def no_cells(*_args, **_kwargs):
        raise AssertionError("a bad --tolerance must stop before any cell")

    monkeypatch.setattr(repro.obs.bench, "run_bench", no_cells)
    for bad in ("1.5", "-0.1", "1", "fast"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "fig10", "--out", "", "--trajectory-dir", "none",
                  "--compare", "BENCH_headline.json", "--tolerance", bad])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err
