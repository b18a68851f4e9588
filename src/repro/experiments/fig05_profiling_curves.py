"""Figure 5: how JCT depends on cluster size and data size.

These curves justify Algorithm 1's extrapolation rules:

- **5(a)**: end-to-end JCT vs cluster size (Sort, PiEst, DistGrep) --
  inverse relation;
- **5(b)**: map-phase time vs cluster size -- inverse relation;
- **5(c)**: reduce-phase time vs cluster size -- piece-wise,
  non-monotonic (shuffle/output costs do not shrink like map waves do);
- **5(d)**: JCT vs data size at fixed cluster sizes -- near-linear.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cluster.cluster import Cluster
from repro.mapreduce.cluster import MapReduceCluster
from repro.sim.engine import Simulator
from repro.workloads.specs import make_job


def _run_on_vms(
    benchmark: str, gb: float, n_vms: int, seed: int = 7
):
    """One benchmark run on an ``n_vms`` virtual cluster (2 VMs/PM)."""
    sim = Simulator(seed=seed)
    n_pms = max(1, (n_vms + 1) // 2)
    cluster = Cluster.virtual(sim, n_pms, 2)
    contexts = cluster.vms[:n_vms]
    mr = MapReduceCluster(
        sim, cluster.fabric, contexts, map_slots=None, reduce_slots=None,
        replication=min(2, n_vms),
    )
    return mr.run_job(make_job(benchmark, input_gb=gb, num_reducers=max(1, n_vms // 2)))


def fig5a(
    cluster_sizes: Sequence[int] = (4, 8, 16, 24, 32, 40),
    benchmarks: Sequence[str] = ("Sort", "PiEst", "DistGrep"),
    data_gb: float = 4.0,
    seed: int = 7,
) -> Dict[str, Dict[int, float]]:
    """Normalized end-to-end JCT vs cluster size per benchmark."""
    out: Dict[str, Dict[int, float]] = {}
    for bench in benchmarks:
        jcts = {
            size: _run_on_vms(bench, data_gb, size, seed).jct
            for size in cluster_sizes
        }
        peak = max(jcts.values())
        out[bench] = {size: jct / peak for size, jct in jcts.items()}
    return out


def fig5bc(
    cluster_sizes: Sequence[int] = (2, 4, 6, 8, 10, 12),
    data_sizes_gb: Sequence[float] = (2.0, 3.0, 4.0, 5.0),
    seed: int = 7,
) -> Dict[str, Dict[float, Dict[int, float]]]:
    """Sort map- and reduce-phase times vs cluster size per data size.

    Returns ``{"map": {gb: {n: t}}, "reduce": ..., "total": ...}``.
    """
    out = {"map": {}, "reduce": {}, "total": {}}
    for gb in data_sizes_gb:
        out["map"][gb] = {}
        out["reduce"][gb] = {}
        out["total"][gb] = {}
        for size in cluster_sizes:
            job = _run_on_vms("Sort", gb, size, seed)
            out["map"][gb][size] = job.map_phase_time
            out["reduce"][gb][size] = job.reduce_phase_time
            out["total"][gb][size] = job.jct
    return out


def fig5d(
    data_sizes_gb: Sequence[float] = (2.0, 5.0, 8.0, 11.0, 15.0),
    cluster_sizes: Sequence[int] = (1, 2, 4, 8, 16),
    seed: int = 7,
) -> Dict[int, Dict[float, float]]:
    """Sort JCT vs data size for clusters C1..C16 (near-linear)."""
    out: Dict[int, Dict[float, float]] = {}
    for size in cluster_sizes:
        out[size] = {
            gb: _run_on_vms("Sort", gb, size, seed).jct for gb in data_sizes_gb
        }
    return out


def run(
    scale=None,
    seed: int = 7,
    data_sizes_gb: Sequence[float] = (2.0, 5.0, 8.0, 11.0, 15.0),
    cluster_sizes: Sequence[int] = (1, 2, 4, 8, 16),
) -> Dict[str, Dict]:
    """Sweep cell: Figure 5(d) curves + linearity fit.

    The profiling curves are defined over explicit data/cluster sizes
    rather than a deployment scale, so ``scale`` is accepted (sweep
    cells all share one signature) but unused.
    """
    from repro.experiments.common import as_tuple

    del scale
    sizes = as_tuple(data_sizes_gb)
    clusters = as_tuple(cluster_sizes)
    curves = fig5d(data_sizes_gb=sizes, cluster_sizes=clusters, seed=seed)
    return {
        "fig5d": curves,
        "r2": {size: linearity_r2(series) for size, series in curves.items()},
    }


def linearity_r2(series: Dict[float, float]) -> float:
    """R-squared of a linear fit through one fig5d series."""
    from repro.interference.regression import fit_line, r_squared

    xs = sorted(series)
    ys = [series[x] for x in xs]
    slope, icpt = fit_line(xs, ys)
    return r_squared(ys, [slope * x + icpt for x in xs])
