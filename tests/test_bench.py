"""repro.obs.bench + SimCapture: profiling, determinism gate, CLI; the
paired perfbench verdict."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cluster.cluster import Cluster
from repro.mapreduce.cluster import MapReduceCluster
from repro.obs.bench import (
    DEFAULT_CELLS,
    compare_reports,
    format_bench,
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
# the determinism gate
# ----------------------------------------------------------------------
def _fake_report(events_per_s=1000.0, digest="d0", consistent=True,
                 profiled=True):
    return {
        "cells": {
            "fig10": {
                "events": 100,
                "event_counts": {"repro.sim.network": 60, "repro.mapreduce": 40},
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
    failures, notes = compare_reports(report, report)
    assert failures == [] and notes == []


def test_compare_reports_ignores_speed():
    failures, notes = compare_reports(
        _fake_report(events_per_s=1000.0), _fake_report(events_per_s=10.0)
    )
    assert failures == [] and notes == []


def test_compare_reports_fails_on_digest_mismatch():
    failures, _notes = compare_reports(_fake_report(), _fake_report(digest="d1"))
    assert failures == ["fig10: result_digest d0 -> d1"]


def test_compare_reports_fails_on_event_count_mismatch():
    current = _fake_report()
    current["cells"]["fig10"]["events"] = 101
    failures, _notes = compare_reports(_fake_report(), current)
    assert failures == ["fig10: events 100 -> 101"]


@pytest.mark.parametrize("counts, failure", [
    ({"repro.sim.network": 61, "repro.mapreduce": 40},
     "fig10: event_counts[repro.sim.network] 60 -> 61"),
    ({"repro.sim.network": 60},
     "fig10: event_counts[repro.mapreduce] 40 -> None"),
    ({"repro.sim.network": 60, "repro.mapreduce": 40, "repro.hdfs": 1},
     "fig10: event_counts[repro.hdfs] None -> 1"),
])
def test_compare_reports_fails_on_one_event_counts_entry(counts, failure):
    current = _fake_report()
    current["cells"]["fig10"]["event_counts"] = counts
    failures, _notes = compare_reports(_fake_report(), current)
    assert failures == [failure]


def test_compare_reports_fails_on_tracing_perturbation():
    baseline = _fake_report()
    current = _fake_report(consistent=False)
    failures, _notes = compare_reports(baseline, current)
    assert any("perturbed" in f for f in failures)


def test_compare_reports_fails_on_profiling_perturbation():
    failures, _notes = compare_reports(
        _fake_report(), _fake_report(profiled=False)
    )
    assert len(failures) == 1 and "profiling perturbed" in failures[0]


def test_compare_reports_notes_self_share_shift():
    baseline = _with_shares(_fake_report(), pool=40.0, net=10.0, jt=20.0)
    current = _with_shares(_fake_report(), pool=34.0, net=14.9, jt=21.0)
    failures, notes = compare_reports(baseline, current)
    assert failures == []
    # pool moved 6pp (noted); net 4.9pp and jt 1pp stay quiet
    assert notes == [
        "fig10: pool self-time share shifted 40.0% -> 34.0% (-6.0pp)"
    ]
    # a baseline without profiles (older reports) gets no share notes
    failures, notes = compare_reports(_fake_report(), current)
    assert failures == [] and notes == []


def test_compare_reports_notes_digest_and_cell_drift():
    """A digest change fails the gate; cell-set drift stays a note."""
    baseline = _fake_report()
    current = _fake_report(digest="d1")
    current["cells"]["new"] = dict(current["cells"]["fig10"])
    failures, notes = compare_reports(baseline, current)
    assert failures == ["fig10: result_digest d0 -> d1"]
    assert notes == ["new: new cell, not in baseline"]
    current["cells"]["fig10"]["result_digest"] = "d0"
    failures, notes = compare_reports(baseline, current)
    assert failures == []
    assert notes == ["new: new cell, not in baseline"]
    failures, notes = compare_reports(current, baseline)
    assert failures == []
    assert notes == ["new: in baseline but missing from current run"]


# ----------------------------------------------------------------------
# CLI: repro bench --compare gates on exact determinism
# ----------------------------------------------------------------------
def test_cli_bench_compare_gate(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH.json"
    rc = main(["bench", "fig10", "--scale", "tiny", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["cells"]["fig10"]["events_per_s"] > 0

    # a second run reproduces the first exactly
    rc = main(["bench", "fig10", "--scale", "tiny", "--seed", "1",
               "--out", "", "--compare", str(out)])
    assert rc == 0
    assert "bench OK" in capsys.readouterr().out

    # one flipped event_counts entry fails, naming the cell and key
    doctored = json.loads(out.read_text())
    counts = doctored["cells"]["fig10"]["event_counts"]
    module = sorted(counts)[0]
    counts[module] += 1
    baseline = tmp_path / "BASELINE.json"
    baseline.write_text(json.dumps(doctored))
    rc = main(["bench", "fig10", "--scale", "tiny", "--seed", "1",
               "--out", "", "--compare", str(baseline)])
    assert rc == 1
    assert f"FAIL: fig10: event_counts[{module}]" in capsys.readouterr().err


def test_cli_bench_compare_keeps_the_baseline(tmp_path, monkeypatch, capsys):
    """With no --out, comparing against a baseline never overwrites it."""
    from repro.cli import main

    root = Path(__file__).resolve().parents[1]
    doctored = json.loads((root / "BENCH_headline.json").read_text())
    digest = doctored["cells"]["fig10"]["result_digest"]
    doctored["cells"]["fig10"]["result_digest"] = digest[::-1]
    baseline = tmp_path / "BENCH_headline.json"
    baseline.write_text(json.dumps(doctored, indent=2))
    before = baseline.read_bytes()
    monkeypatch.chdir(tmp_path)
    rc = main(["bench", "fig10", "--scale", "tiny", "--seed", "1",
               "--compare", baseline.name])
    assert rc == 1
    assert "FAIL: fig10: result_digest" in capsys.readouterr().err
    assert baseline.read_bytes() == before
    assert (tmp_path / "BENCH_current.json").is_file()


# ----------------------------------------------------------------------
# the paired perfbench timing gate (tools/paired_perfbench.py)
# ----------------------------------------------------------------------
def _paired_perfbench():
    path = Path(__file__).resolve().parents[1] / "tools" / "paired_perfbench.py"
    spec = importlib.util.spec_from_file_location("paired_perfbench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_verdict_passes_a_against_a():
    verdict = _paired_perfbench().verdict
    base = [1.00, 1.02, 0.97, 1.05, 0.99, 1.01, 1.03, 0.98, 1.00, 1.04]
    head = [1.01, 0.99, 1.00, 1.02, 1.03, 0.98, 1.05, 0.97, 1.02, 1.00]
    result = verdict(base, head)
    assert result["regressed"] is False
    assert result["pairs"] == 10


def test_paired_verdict_fails_a_uniform_slowdown():
    verdict = _paired_perfbench().verdict
    base = [1.00, 1.02, 0.97, 1.05, 0.99, 1.01, 1.03, 0.98, 1.00, 1.04]
    result = verdict(base, [1.2 * b for b in base])
    assert result["regressed"] is True
    assert result["slower"] == 10
    assert result["median_ratio"] == pytest.approx(1.2)


def test_paired_verdict_ignores_one_slow_outlier_pair():
    verdict = _paired_perfbench().verdict
    base = [1.0] * 10
    head = [0.99] * 9 + [3.0]
    assert verdict(base, head)["regressed"] is False
    # nine slower pairs but a median ratio under the bar still pass
    assert verdict(base, [1.05] * 9 + [0.9])["regressed"] is False


def test_paired_verdict_needs_paired_samples():
    verdict = _paired_perfbench().verdict
    with pytest.raises(ValueError):
        verdict([1.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        verdict([], [])
