"""Phase II Dynamic Resource Manager (Section III-B1).

Architecture mirrors the paper (and MROrchestrator [31]):

- Each virtual node has a **Local Resource Manager** (LRM) with a
  *Resource Profiler* (samples each running attempt's CPU/disk rates,
  memory footprint and progress every epoch) and an *Estimator*
  (online regression models predicting a task's progress rate as a
  function of its CPU/IO allocation, plus completion-time estimates).
- The **Global Resource Manager** (GRM) runs a *Contention Detector*
  (classifies tasks/VMs as resource-deficit or resource-hogging from
  the LRM feedback) and a *Performance Balancer* that actuates:

  - **CPU**: work-conserving uncapping -- grant a starved VM idle host
    cycles beyond its vCPU allocation; revert toward fair caps when the
    host saturates.
  - **Memory**: ballooning -- move guest memory from VMs with headroom
    to VMs paging under pressure on the same host.
  - **I/O**: blkio weight boosts for tail tasks (a job's last wave) and
    for I/O-deficit VMs sharing a disk with streaming hogs.

Each dimension can be enabled independently, which is exactly the
CPU / Memory / I/O / CPU+Memory+I/O ablation of Figures 8(b), 8(c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.interference.models import LinearModel
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.task import TaskAttempt, TaskKind
from repro.sim.engine import Simulator
from repro.virt.vm import VirtualMachine


@dataclass
class TaskUsageSample:
    """One Resource Profiler observation of a running attempt."""

    time: float
    attempt_id: int
    task_name: str
    vm_name: str
    cpu_rate: float
    disk_rate: float
    net_rate: float
    mem_mb: float
    progress: float


@dataclass
class CompletionEstimate:
    """Estimator output for one attempt."""

    attempt_id: int
    progress: float
    progress_rate: float  # fraction per second (EWMA)
    eta_s: float


class LocalResourceManager:
    """Profiler + Estimator for one virtual node."""

    def __init__(self, vm: VirtualMachine, ewma_alpha: float = 0.4) -> None:
        if not 0 < ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.vm = vm
        self.ewma_alpha = ewma_alpha
        self.samples: List[TaskUsageSample] = []
        self._last_progress: Dict[int, tuple] = {}  # attempt -> (time, progress)
        self._rate_ewma: Dict[int, float] = {}
        #: progress-rate-vs-cpu-allocation model, refreshed from samples
        self.cpu_model = LinearModel()

    # -- Resource Profiler ------------------------------------------------
    def sample(self, now: float, attempts: List[TaskAttempt]) -> List[TaskUsageSample]:
        out = []
        for attempt in attempts:
            cpu_rate = sum(
                e.rate for e in attempt._handles
                if getattr(e, "pool", None) is self.vm.pm.cpu_pool and not e.done
            )
            # disk pressure includes page-cache traffic (memio): cached
            # streams still evict the interactive tenants' working sets
            disk_rate = sum(
                e.rate for e in attempt._handles
                if getattr(e, "pool", None)
                in (self.vm.pm.disk_pool, self.vm.pm.memio_pool)
                and not e.done
            )
            # shuffle and HDFS flows (handles with src/dst endpoints)
            net_rate = sum(
                h.rate for h in attempt._handles
                if hasattr(h, "src") and not h.done
            )
            sample = TaskUsageSample(
                time=now,
                attempt_id=attempt.attempt_id,
                task_name=attempt.task.name,
                vm_name=self.vm.name,
                cpu_rate=cpu_rate,
                disk_rate=disk_rate,
                net_rate=net_rate,
                mem_mb=attempt._mem_mb,
                progress=attempt.progress(),
            )
            self.samples.append(sample)
            out.append(sample)
            self._update_rate(now, attempt)
        if len(self.samples) > 10_000:
            del self.samples[: len(self.samples) - 10_000]
        return out

    def _update_rate(self, now: float, attempt: TaskAttempt) -> None:
        key = attempt.attempt_id
        progress = attempt.progress()
        if key in self._last_progress:
            t0, p0 = self._last_progress[key]
            dt = now - t0
            if dt > 0:
                inst = max(0.0, (progress - p0) / dt)
                prev = self._rate_ewma.get(key)
                self._rate_ewma[key] = (
                    inst
                    if prev is None
                    else self.ewma_alpha * inst + (1 - self.ewma_alpha) * prev
                )
        self._last_progress[key] = (now, progress)

    # -- Estimator ---------------------------------------------------------
    def estimate(self, attempt: TaskAttempt) -> CompletionEstimate:
        """Completion estimate from the progress-rate EWMA."""
        rate = self._rate_ewma.get(attempt.attempt_id, 0.0)
        progress = attempt.progress()
        eta = (1.0 - progress) / rate if rate > 1e-9 else float("inf")
        return CompletionEstimate(attempt.attempt_id, progress, rate, eta)

    def refresh_models(self) -> None:
        """Refit the progress-rate-vs-CPU model from recent samples."""
        xs, ys = [], []
        for sample in self.samples[-200:]:
            rate = self._rate_ewma.get(sample.attempt_id)
            if rate is not None and sample.cpu_rate > 0:
                xs.append(sample.cpu_rate)
                ys.append(rate)
        if len(xs) >= 4:
            self.cpu_model.fit(xs, ys)

    def forget(self, attempt_id: int) -> None:
        self._last_progress.pop(attempt_id, None)
        self._rate_ewma.pop(attempt_id, None)


class DynamicResourceManager:
    """The GRM + all LRMs, driving one virtual MapReduce cluster."""

    def __init__(
        self,
        sim: Simulator,
        jt: JobTracker,
        vms: List[VirtualMachine],
        manage_cpu: bool = True,
        manage_memory: bool = True,
        manage_io: bool = True,
        epoch_s: float = 5.0,
        tail_fraction: float = 0.25,
        io_boost: float = 5.0,
        balloon_step_mb: float = 128.0,
    ) -> None:
        if epoch_s <= 0:
            raise ValueError("epoch must be positive")
        self.sim = sim
        self.jt = jt
        self.vms = list(vms)
        self.manage_cpu = manage_cpu
        self.manage_memory = manage_memory
        self.manage_io = manage_io
        self.epoch_s = epoch_s
        self.tail_fraction = tail_fraction
        self.io_boost = io_boost
        self.balloon_step_mb = balloon_step_mb
        self.lrms: Dict[str, LocalResourceManager] = {
            vm.name: LocalResourceManager(vm) for vm in self.vms
        }
        self.actions: List[str] = []
        self._cancel: Optional[Callable[[], None]] = None
        self._nominal_mem: Dict[str, float] = {
            vm.name: vm.mem_capacity_mb for vm in self.vms
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._cancel is not None:
            raise RuntimeError("DRM already started")
        if self.manage_memory:
            # replace stock Hadoop's fixed per-slot heaps with
            # actual-need allocation (MROrchestrator's memory manager)
            self.jt.dynamic_memory = True
        self._cancel = self.sim.call_every(self.epoch_s, self._epoch)

    def stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    # ------------------------------------------------------------------
    # the control loop
    # ------------------------------------------------------------------
    def _epoch(self) -> None:
        obs = self.sim.obs
        obs.metrics.counter("drm.epochs").inc()
        with obs.tracer.span("drm.epoch", category="scheduler", track="drm"):
            self._run_epoch()

    def _run_epoch(self) -> None:
        # LRM phase: profile everything running
        by_vm: Dict[str, List[TaskAttempt]] = {vm.name: [] for vm in self.vms}
        for attempt in self.jt.running_attempts():
            ctx = attempt.tracker.context
            if isinstance(ctx, VirtualMachine) and ctx.name in by_vm:
                by_vm[ctx.name].append(attempt)
        for vm in self.vms:
            lrm = self.lrms[vm.name]
            lrm.sample(self.sim.now, by_vm[vm.name])
            lrm.refresh_models()
        # GRM phase: detect contention and rebalance
        if self.manage_cpu:
            self._balance_cpu(by_vm)
        if self.manage_memory:
            self._balance_memory()
        if self.manage_io:
            self._balance_io(by_vm)
        if self.manage_cpu or self.manage_io:
            self._boost_stragglers(by_vm)

    def _act(self, kind: str, message: str) -> None:
        """Record one Performance Balancer actuation everywhere at once:
        the legacy ``actions`` log, the metrics registry, and (when
        tracing) an instant event on the DRM track."""
        self.actions.append(message)
        obs = self.sim.obs
        obs.metrics.counter(f"drm.actions.{kind}").inc()
        if obs.tracer.enabled:
            obs.tracer.instant(kind, category="scheduler", track="drm",
                               detail=message)

    # -- CPU: work-conserving uncapping -----------------------------------
    def _balance_cpu(self, by_vm: Dict[str, List[TaskAttempt]]) -> None:
        # hosts in first-seen order: a set would iterate in object-address
        # order, which differs from run to run
        for pm in dict.fromkeys(vm.pm for vm in self.vms):
            batch_vms = [vm for vm in pm.vms if vm.name in self.lrms]
            if not batch_vms:
                continue
            slack = pm.spec.cpu_cores - pm.cpu_pool.total_rate
            if slack > 0.1 * pm.spec.cpu_cores:
                # contention detector: a VM whose tasks are pinned at
                # their cap is CPU-deficit; grant it idle cycles
                for vm in batch_vms:
                    if not by_vm.get(vm.name):
                        continue
                    starved = any(
                        e.rate >= e.cap - 1e-6 and e.cap > 0
                        for e in vm.cpu_entries
                    )
                    if starved and vm.cpu_fraction < 2.0:
                        vm.set_cpu_fraction(2.0)
                        self._act(
                            "cpu-uncap",
                            f"{self.sim.now:.0f}s cpu-uncap {vm.name} "
                            f"-> {vm.cpu_fraction:.2f}",
                        )
            else:
                # host saturated: converge back to fair 1.0 caps
                for vm in batch_vms:
                    if vm.cpu_fraction > 1.0:
                        vm.set_cpu_fraction(max(1.0, vm.cpu_fraction - 0.25))
                        self._act(
                            "cpu-recap",
                            f"{self.sim.now:.0f}s cpu-recap {vm.name} "
                            f"-> {vm.cpu_fraction:.2f}",
                        )

    # -- Memory: ballooning -------------------------------------------------
    def _balance_memory(self) -> None:
        for pm in dict.fromkeys(vm.pm for vm in self.vms):
            guests = [vm for vm in pm.vms if vm.name in self.lrms]
            if len(guests) < 2:
                continue
            pressured = [
                vm for vm in guests if vm.mem_used_mb > vm.mem_capacity_mb * 1.02
            ]
            donors = [
                vm for vm in guests if vm.mem_used_mb < vm.mem_capacity_mb * 0.7
            ]
            for needy in pressured:
                if not donors:
                    break
                donor = max(donors, key=lambda v: v.mem_capacity_mb - v.mem_used_mb)
                headroom = donor.mem_capacity_mb - donor.mem_used_mb
                step = min(self.balloon_step_mb, headroom * 0.5)
                if step < 16:
                    continue
                donor.balloon_to(donor.mem_capacity_mb - step)
                needy.balloon_to(needy.mem_capacity_mb + step)
                self._act(
                    "balloon",
                    f"{self.sim.now:.0f}s balloon {step:.0f}MB "
                    f"{donor.name} -> {needy.name}",
                )

    # -- I/O: blkio weights for tails and deficits ---------------------------
    def _balance_io(self, by_vm: Dict[str, List[TaskAttempt]]) -> None:
        tail_vms = set()
        for job in self.jt.active_jobs:
            for kind_tasks in (job.map_tasks, job.reduce_tasks):
                if not kind_tasks:
                    continue
                remaining = [t for t in kind_tasks if not t.completed]
                if not remaining:
                    continue
                if len(remaining) <= max(1, int(self.tail_fraction * len(kind_tasks))):
                    for task in remaining:
                        for attempt in task.running_attempts:
                            ctx = attempt.tracker.context
                            if isinstance(ctx, VirtualMachine):
                                tail_vms.add(ctx.name)
        for vm in self.vms:
            target = self.io_boost if vm.name in tail_vms else 1.0
            if abs(vm.io_weight - target) > 1e-9:
                vm.set_io_weight(target)
                self._act(
                    "io-weight",
                    f"{self.sim.now:.0f}s io-weight {vm.name} -> {target:g}",
                )
            # tail tasks also deserve spare CPU to finish the job sooner
            if self.manage_cpu and vm.name in tail_vms and vm.cpu_fraction < 2.0:
                slack = vm.pm.spec.cpu_cores - vm.pm.cpu_pool.total_rate
                if slack > 0.2:
                    vm.set_cpu_fraction(2.0)

    # -- stragglers: accelerate resource-deficit tasks in place ------------
    def _boost_stragglers(self, by_vm: Dict[str, List[TaskAttempt]]) -> None:
        """Give projected-late attempts extra CPU/IO on their own host.

        This is the Estimator-driven bottleneck mitigation of Section
        III-B1: instead of waiting for speculative re-execution, the
        deficit task's guest is uncapped (CPU) and its blkio weight
        raised (I/O), which usually resolves the straggler where it is.
        """
        for job in self.jt.active_jobs:
            for kind_tasks in (job.map_tasks, job.reduce_tasks):
                durations = [
                    t.winning_attempt.duration
                    for t in kind_tasks
                    if t.completed and t.winning_attempt is not None
                ]
                if len(durations) < 3:
                    continue
                mean = sum(durations) / len(durations)
                for task in kind_tasks:
                    for attempt in task.running_attempts:
                        ctx = attempt.tracker.context
                        if not isinstance(ctx, VirtualMachine):
                            continue
                        if ctx.name not in self.lrms:
                            continue
                        projected = attempt.duration / max(attempt.progress(), 0.05)
                        if projected <= 1.3 * mean:
                            continue
                        if self.manage_cpu and ctx.cpu_fraction < 2.0:
                            ctx.set_cpu_fraction(2.0)
                            self._act(
                                "straggler-cpu",
                                f"{self.sim.now:.0f}s straggler-cpu {ctx.name} "
                                f"({attempt.task.name})",
                            )
                        if self.manage_io and ctx.io_weight < self.io_boost:
                            ctx.set_io_weight(self.io_boost)
                            self._act(
                                "straggler-io",
                                f"{self.sim.now:.0f}s straggler-io {ctx.name} "
                                f"({attempt.task.name})",
                            )

    # ------------------------------------------------------------------
    # queries used by the IPS and experiments
    # ------------------------------------------------------------------
    def estimate_attempt(self, attempt: TaskAttempt) -> CompletionEstimate:
        ctx = attempt.tracker.context
        lrm = self.lrms.get(getattr(ctx, "name", ""))
        if lrm is None:
            return CompletionEstimate(attempt.attempt_id, attempt.progress(), 0.0, float("inf"))
        return lrm.estimate(attempt)

    def interference_score(self, attempt: TaskAttempt) -> float:
        """How much I/O+CPU pressure this attempt puts on its host.

        The Arbiter ranks collocated tasks by this score when deciding
        what to throttle, pause or migrate (Algorithm 3, step 2).
        """
        ctx = attempt.tracker.context
        lrm = self.lrms.get(getattr(ctx, "name", ""))
        if lrm is None:
            return 0.0
        recent = [
            s
            for s in lrm.samples[-50:]
            if s.attempt_id == attempt.attempt_id
        ]
        if not recent:
            return 0.0
        pm = ctx.pm
        # peak over the recent window: attempts alternate between CPU,
        # disk and network stages, so a single instantaneous sample
        # under-reports a bursty I/O hog
        disk_part = max(s.disk_rate for s in recent) / max(pm.spec.disk_mbps, 1e-9)
        cpu_part = max(s.cpu_rate for s in recent) / max(pm.spec.cpu_cores, 1e-9)
        net_part = max(s.net_rate for s in recent) / max(pm.spec.net_mbps, 1e-9)
        # disk hurts interactive latency most; network next; CPU least
        return 2.0 * disk_part + cpu_part + net_part
