"""Job-level slot schedulers: FIFO and the Hadoop FairScheduler.

The paper's testbed runs the FairScheduler [5]; the RUBiS co-hosting
experiment (Figure 8(d)) uses the default FIFO order as its baseline.

A scheduler's single responsibility is ordering: given the jobs with
runnable tasks, decide which job gets the next free slot.  The
JobTracker handles everything else (locality, speculation, slot
accounting).

Richer policies -- delay scheduling, DRF, the job-driven algorithms --
live in :mod:`repro.zoo`.  They subclass :class:`SlotScheduler` with
``policy_aware = True``, which makes the JobTracker hand them a
read-only cluster view and consult :meth:`SlotScheduler.pick_task`
before falling back to its default locality preference.  Returning
:data:`SKIP_JOB` from ``pick_task`` passes the offered slot to the next
job in the ordering (the delay-scheduling primitive).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.job import Job
    from repro.mapreduce.task import Task, TaskKind
    from repro.mapreduce.tracker import TaskTracker


class _SkipJob:
    """Sentinel: a policy declines this (job, tracker) slot offer."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SKIP_JOB"


#: returned by ``pick_task`` to pass the slot to the next job in order
SKIP_JOB = _SkipJob()


def running_task_counts(jobs: Sequence["Job"]) -> Dict[int, int]:
    """Per-job running-attempt counts, computed once per slot offer.

    Keyed by ``job_id`` so schedulers can rank on current slot usage
    without re-walking every task list per comparison (the ordering is
    called once per slot assignment, so this is the hot path).  Reads
    the counter :class:`~repro.mapreduce.task.TaskAttempt` lifecycle
    transitions maintain, so the round costs O(jobs), not O(tasks).
    """
    return {job.job_id: job.running_attempt_count for job in jobs}


class SlotScheduler:
    """Interface: rank jobs for the next slot assignment.

    ``policy_aware`` schedulers additionally receive a
    :class:`repro.zoo.policy.ClusterView` in :meth:`order` and are
    consulted per (job, tracker) offer through :meth:`pick_task`.
    """

    name = "abstract"
    #: when True, the JobTracker passes a ClusterView to ``order`` and
    #: routes task selection through ``pick_task``
    policy_aware = False

    def order(self, jobs: Sequence["Job"], view=None) -> List["Job"]:
        raise NotImplementedError

    def pick_task(
        self,
        job: "Job",
        tasks: List["Task"],
        tracker: "TaskTracker",
        kind: "TaskKind",
        view,
    ) -> Optional["Task"]:
        """Choose a task for ``tracker`` from ``job``'s runnable ``tasks``.

        Return a task to launch it, ``None`` to defer to the
        JobTracker's default locality preference, or :data:`SKIP_JOB`
        to decline the offer and let the next job in the ordering take
        the slot.  Only consulted for ``policy_aware`` schedulers.
        """
        return None


class FIFOScheduler(SlotScheduler):
    """Strict submission order: the oldest job takes every free slot."""

    name = "fifo"

    def order(self, jobs: Sequence["Job"], view=None) -> List["Job"]:
        return sorted(jobs, key=lambda j: (j.submit_time, j.job_id))


class FairScheduler(SlotScheduler):
    """Hadoop FairScheduler: favour the job furthest below fair share.

    Jobs are ranked by number of currently running tasks (fewest first),
    which equalizes slot allocation across concurrent jobs; submission
    order breaks ties, preserving FIFO behaviour for a single job.
    """

    name = "fair"

    def order(self, jobs: Sequence["Job"], view=None) -> List["Job"]:
        running = running_task_counts(jobs)
        return sorted(
            jobs, key=lambda j: (running[j.job_id], j.submit_time, j.job_id)
        )


def _job_queue(job: "Job") -> str:
    """Queue routing: ``queue:name`` prefix on the job name, else default."""
    name = job.spec.name
    if ":" in name:
        return name.split(":", 1)[0]
    return "default"


class CapacityScheduler(SlotScheduler):
    """Hadoop CapacityScheduler: per-queue guaranteed shares.

    Queues are declared with fractional capacities (summing to <= 1).
    A job joins queue ``q`` by naming itself ``q:jobname``.  The next
    slot goes to the queue whose running-task share is furthest *below*
    its configured capacity; inside a queue, FIFO order applies.

    **Spill-over (elasticity).**  Capacities are guarantees, not caps:
    a queue with demand and no competition takes the whole cluster, and
    when several queues compete, any capacity a queue leaves unused
    flows to the queues furthest over their own guarantees -- the
    deficit ordering re-ranks every round, so a queue reclaiming its
    guarantee immediately pushes borrowers back.  This matches the real
    scheduler's elastic behaviour.

    **Unknown queues.**  Jobs naming a queue with no configured
    capacity are not starved: they compete with ``default_share`` as
    their token guarantee (constructor argument, default 5%), so they
    run whenever guaranteed queues leave capacity unused but yield as
    soon as a guaranteed queue falls below its share.
    """

    name = "capacity"

    def __init__(self, capacities: dict, default_share: float = 0.05) -> None:
        if not capacities:
            raise ValueError("need at least one queue")
        total = sum(capacities.values())
        if total > 1.0 + 1e-9 or any(c <= 0 for c in capacities.values()):
            raise ValueError("capacities must be positive and sum to <= 1")
        if not 0.0 <= default_share <= 1.0:
            raise ValueError("default_share must be in [0, 1]")
        self.capacities = dict(capacities)
        #: token guarantee for queues absent from ``capacities``
        self.default_share = default_share

    def order(self, jobs: Sequence["Job"], view=None) -> List["Job"]:
        running = running_task_counts(jobs)
        total_running = sum(running.values()) or 1
        by_queue: Dict[str, List["Job"]] = {}
        for job in jobs:
            by_queue.setdefault(_job_queue(job), []).append(job)

        def queue_deficit(queue: str) -> float:
            used = (
                sum(running[j.job_id] for j in by_queue[queue]) / total_running
            )
            guaranteed = self.capacities.get(queue, self.default_share)
            return used - guaranteed  # negative = below guarantee

        ordered: List["Job"] = []
        for queue in sorted(by_queue, key=lambda q: (queue_deficit(q), q)):
            ordered.extend(
                sorted(by_queue[queue], key=lambda j: (j.submit_time, j.job_id))
            )
        return ordered
