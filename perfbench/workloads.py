"""The benchmark's three workloads: fixed amounts of simulated work.

Each workload is one closed job of simulated work, a pure function of
its seed.  ``run`` does the work and returns a JSON-able result whose
digest must repeat exactly; ``check`` verifies the workload's own
invariants; ``operations`` counts what was attempted and what failed.

Workloads only reach the simulator through its public API.  The
correctness probes (``probe``) observe a handful of public entry points
(job submissions, flow starts) so the checks can see every operation,
not only the aggregate the experiment returns; they cost one list
append per operation and are installed in untraced and traced passes
alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

#: fleet-wave sizing: between the ``medium`` and ``large`` scales
FLEET_PMS = 500
FLEET_WAVES = 4
#: the quarter-fleet point of the counter curve
FLEET_QUARTER_PMS = 125
FLEET_MAPS = 256
FLEET_REDUCES = 16
#: ~4x the events one wave needed on seeds 11-20 (2.0-3.1k): a wave that
#: stalls or multiplies its events fails the check instead of running on
FLEET_EVENT_BUDGET = 12_000

#: shuffle-fabric: doomed flows carry this label prefix in the cell
DOOMED_PREFIX = "doomed"


class Workload:
    """Base class: ``run`` + ``check`` + ``operations``."""

    name = ""
    why = ""
    #: fleet size of the traced run's counter-curve point (None: no curve)
    curve_pms: Optional[int] = None

    def install_probes(self, patcher, probe) -> None:
        """Hook the public entry points the checks need (default: none)."""

    def run(self, seed: int, pms: Optional[int] = None) -> dict:
        raise NotImplementedError

    def check(self, result: dict, probe) -> List[str]:
        raise NotImplementedError

    def operations(self, result: dict, probe) -> Tuple[int, int]:
        """``(attempted, failed)`` operations of one pass."""
        raise NotImplementedError

    def makespan_s(self, result: dict) -> float:
        """Simulated seconds of work one pass represents."""
        raise NotImplementedError

    def extra_report(self, result: dict) -> Dict[str, float]:
        """Workload-specific figures printed beside the metrics."""
        return {}


# ----------------------------------------------------------------------
# hybrid-mix: the paper's headline scenario (fig 9b/9c)
# ----------------------------------------------------------------------
class HybridMix(Workload):
    name = "hybrid-mix"
    why = (
        "fig 9b/9c headline: native, virtual and HybridMR designs each run "
        "the batch mix beside RUBiS; pools, VM caps, JobTracker rounds and "
        "DRM/IPS/service epochs all work"
    )

    def install_probes(self, patcher, probe) -> None:
        from repro.mapreduce.jobtracker import JobTracker

        submit = JobTracker.submit

        @functools.wraps(submit)
        def probed_submit(jt, *args, **kwargs):
            job = submit(jt, *args, **kwargs)
            probe.jobs.append((jt, job))
            return job

        patcher.set(JobTracker, "submit", probed_submit)

    def run(self, seed: int, pms: Optional[int] = None) -> dict:
        from repro.experiments.common import TINY
        from repro.experiments.fig09_cross_platform import fig9b_9c

        out = fig9b_9c(scale=TINY, seed=seed)
        reports = {r.design: asdict(r) for r in out["reports"]}
        return {
            "jct_seconds": out["jct_seconds"],
            "reports": reports,
            "measured": _headline(reports),
        }

    def _streams(self, probe) -> Dict[tuple, list]:
        """Submitted jobs per closed-loop stream, in submission order."""
        streams: Dict[tuple, list] = {}
        for jt, job in probe.jobs:
            base = job.spec.name.split("#", 1)[0]
            streams.setdefault((id(jt), base), []).append(job)
        return streams

    def _job_failures(self, probe) -> int:
        """Jobs that did not complete.

        The cell runs each design to a fixed 1,500 s horizon, and each
        benchmark stream resubmits only after its previous job finished,
        so the newest job of a stream may still be in flight when the
        horizon cuts the run.  That job is censored, not failed; every
        earlier job of the stream must have succeeded.
        """
        from repro.mapreduce.job import JobState

        failed = 0
        for jobs in self._streams(probe).values():
            for job in jobs[:-1]:
                if job.state is not JobState.SUCCEEDED:
                    failed += 1
            if jobs[-1].state is JobState.KILLED:
                failed += 1
        return failed

    def check(self, result: dict, probe) -> List[str]:
        problems = []
        failed = self._job_failures(probe)
        if failed:
            problems.append(f"{failed} submitted jobs did not complete")
        if len(self._streams(probe)) != 3 * len(result["jct_seconds"]["native"]):
            problems.append("not every design ran every benchmark stream")
        reports = result["reports"]
        hybrid, virtual, native = (
            reports["hybridmr"], reports["virtual"], reports["native"]
        )
        if not hybrid["mean_jct_s"] < virtual["mean_jct_s"]:
            problems.append("HybridMR does not beat virtual-only on mean JCT")
        if not hybrid["utilization"] > native["utilization"]:
            problems.append("HybridMR does not beat native-only on utilization")
        return problems

    def operations(self, result: dict, probe) -> Tuple[int, int]:
        return len(probe.jobs), self._job_failures(probe)

    def makespan_s(self, result: dict) -> float:
        return sum(
            sum(jcts.values()) for jcts in result["jct_seconds"].values()
        )

    def extra_report(self, result: dict) -> Dict[str, float]:
        from repro.experiments.headline import PAPER_HEADLINE

        measured = result["measured"]
        gap = sum(
            abs(measured[k] - PAPER_HEADLINE[k]) for k in PAPER_HEADLINE
        ) / len(PAPER_HEADLINE)
        return {"paper_gap_pp": gap, **measured}


def _headline(reports: Dict[str, dict]) -> Dict[str, float]:
    """The abstract's three claims, measured (as in ``headline_numbers``)."""
    native, virtual, hybrid = (
        reports["native"], reports["virtual"], reports["hybridmr"]
    )
    return {
        "jct_improvement_vs_virtual_pct": 100.0
        * (virtual["mean_jct_s"] - hybrid["mean_jct_s"])
        / virtual["mean_jct_s"],
        "utilization_gain_vs_native_pct": 100.0
        * (hybrid["utilization"] - native["utilization"])
        / native["utilization"],
        "energy_savings_vs_native_pct": 100.0
        * (native["energy_joules"] - hybrid["energy_joules"])
        / native["energy_joules"],
    }


# ----------------------------------------------------------------------
# shuffle-fabric: all-to-all shuffle waves on a bare fabric
# ----------------------------------------------------------------------
class ShuffleFabric(Workload):
    name = "shuffle-fabric"
    why = (
        "all-to-all shuffle waves on a bare 16-host fabric: max-min fill "
        "and flow advance only, so pool, JobTracker, HDFS and controller "
        "changes are bypassed"
    )

    def install_probes(self, patcher, probe) -> None:
        from repro.sim.network import NetworkFabric

        start_flow = NetworkFabric.start_flow

        @functools.wraps(start_flow)
        def probed_start_flow(fabric, src, dst, mb, *args, **kwargs):
            flow = start_flow(fabric, src, dst, mb, *args, **kwargs)
            probe.flows.append((flow, mb))
            probe.fabrics[id(fabric)] = fabric
            return flow

        patcher.set(NetworkFabric, "start_flow", probed_start_flow)

    def run(self, seed: int, pms: Optional[int] = None) -> dict:
        from repro.experiments.common import SMALL
        from repro.experiments.fabric_micro import run as fabric_cell

        return fabric_cell(SMALL, seed)

    def _split(self, probe):
        real = [(f, mb) for f, mb in probe.flows
                if not f.label.startswith(DOOMED_PREFIX)]
        doomed = [(f, mb) for f, mb in probe.flows
                  if f.label.startswith(DOOMED_PREFIX)]
        return real, doomed

    def _unfinished(self, real) -> int:
        return sum(1 for f, _ in real if not f.done or f.remaining > 1e-6)

    def check(self, result: dict, probe) -> List[str]:
        problems = []
        real, doomed = self._split(probe)
        unfinished = self._unfinished(real)
        if unfinished:
            problems.append(f"{unfinished} non-doomed flows did not complete")
        if len(result["wave_finish_s"]) != result["waves"]:
            problems.append("not every shuffle wave reached its barrier")
        if result["flows_started"] != len(real):
            problems.append("cell and probe disagree on started flows")
        requested = sum(mb for _, mb in real)
        delivered = sum(mb - f.remaining for f, mb in real)
        if not math.isclose(delivered, requested, rel_tol=1e-9):
            problems.append(
                f"delivered {delivered:.6f} MB != requested {requested:.6f} MB"
            )
        doomed_mb = sum(mb - f.remaining for f, mb in doomed)
        fabric_mb = sum(fab.bytes_transferred_mb for fab in probe.fabrics.values())
        if not math.isclose(fabric_mb, requested + doomed_mb, rel_tol=1e-9):
            problems.append(
                f"fabric moved {fabric_mb:.6f} MB, flows account for "
                f"{requested + doomed_mb:.6f} MB"
            )
        return problems

    def operations(self, result: dict, probe) -> Tuple[int, int]:
        real, _ = self._split(probe)
        return len(real), self._unfinished(real)

    def makespan_s(self, result: dict) -> float:
        return float(result["makespan_s"])


# ----------------------------------------------------------------------
# fleet-wave: one bounded wave on a 2,000-host virtual fleet
# ----------------------------------------------------------------------
class FleetWave(Workload):
    name = "fleet-wave"
    curve_pms = FLEET_QUARTER_PMS
    why = (
        "four independent 256-map Wcount waves, each on a fresh 500-PM / "
        "1,000-VM fleet: whole-fleet tracker selection and HDFS placement "
        "scans, plus fleet set-up cost"
    )

    def run(self, seed: int, pms: Optional[int] = None) -> dict:
        # one wave's event count swings ~1.5x with its seed (straggler
        # draws reshape the shuffle); four waves per pass keep a run's
        # work steady from one seed to the next
        waves = []
        for i in range(FLEET_WAVES):
            waves.append(self._wave(seed * FLEET_WAVES + i, pms or FLEET_PMS))
            if not waves[-1]["finished"]:
                break  # the pass has failed; the remaining waves would too
        return {"waves": waves}

    def _wave(self, seed: int, pms: int) -> dict:
        from repro.cluster.cluster import Cluster
        from repro.experiments.common import Scale
        from repro.mapreduce.cluster import MapReduceCluster
        from repro.sim.engine import Simulator
        from repro.workloads.specs import make_job

        scale = Scale("fleet-wave", pms=pms, vms_per_pm=2, input_fraction=0.08)
        sim = Simulator(seed=seed)
        cluster = Cluster.virtual(sim, scale.pms, scale.vms_per_pm)
        mr = MapReduceCluster(sim, cluster.fabric, list(cluster.vms))
        # one block per map: HDFS set-up stays proportional to the wave
        spec = make_job(
            "Wcount", input_gb=FLEET_MAPS * mr.fs.block_size_mb / 1024.0,
            num_maps=FLEET_MAPS, num_reducers=FLEET_REDUCES, name="fleet-wave",
        )
        done = {}

        def finished(job) -> None:
            done["job"] = job
            sim.stop()

        job = mr.submit(spec, on_complete=finished)
        over_budget = False
        try:
            sim.run(max_events=FLEET_EVENT_BUDGET)
        except RuntimeError:
            over_budget = True
        return {
            "hosts": len(cluster.vms),
            "trackers": len(mr.jt.trackers),
            "maps_done": sum(1 for t in job.map_tasks if t.completed),
            "reduces_done": sum(1 for t in job.reduce_tasks if t.completed),
            "finished": "job" in done,
            "over_budget": over_budget,
            "events": sim.events_processed,
            "makespan_s": job.jct if "job" in done else None,
        }

    def check(self, result: dict, probe) -> List[str]:
        problems = []
        if len(result["waves"]) != FLEET_WAVES:
            problems.append(
                f"only {len(result['waves'])} of {FLEET_WAVES} waves ran"
            )
        for i, wave in enumerate(result["waves"]):
            if wave["trackers"] != wave["hosts"]:
                problems.append(
                    f"wave {i}: {wave['trackers']} trackers for "
                    f"{wave['hosts']} hosts"
                )
            if wave["over_budget"]:
                problems.append(f"wave {i}: over {FLEET_EVENT_BUDGET} events")
            if not wave["finished"]:
                problems.append(f"wave {i}: the job did not finish")
            if (wave["maps_done"], wave["reduces_done"]) != (
                FLEET_MAPS, FLEET_REDUCES
            ):
                problems.append(
                    f"wave {i}: {wave['maps_done']}/{FLEET_MAPS} maps and "
                    f"{wave['reduces_done']}/{FLEET_REDUCES} reduces finished"
                )
        return problems

    def operations(self, result: dict, probe) -> Tuple[int, int]:
        unfinished = sum(1 for w in result["waves"] if not w["finished"])
        return FLEET_WAVES, unfinished + FLEET_WAVES - len(result["waves"])

    def makespan_s(self, result: dict) -> float:
        return sum(w["makespan_s"] or 0.0 for w in result["waves"])


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (HybridMix(), ShuffleFabric(), FleetWave())
}
