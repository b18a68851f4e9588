"""Paired perfbench timing gate: a base tree against this checkout.

Run from anywhere, naming a workload of ``perfbench/`` and the root of
a second checkout (typically a ``git worktree`` of the merge base)::

    python3 tools/paired_perfbench.py hybrid-mix ../base

Each of ``PAIRS`` pairs runs ``perfbench/run.py --workload W --seed 1
--seconds 10 --trace 0`` once in the base tree and once in this
checkout (the head), alternating which of the two runs first.
perfbench puts its own tree's ``src/`` first on ``sys.path``, so each
tree measures its own code on the same machine, minutes apart.

The gate fails (exit 1) when

* any head run does not report ``correct`` true with ``failed`` 0, or
* the head's ``run_s`` is slower in at least ``SLOWER_PAIRS`` of the
  pairs **and** the median head/base pair ratio exceeds
  ``MAX_MEDIAN_RATIO``.

The sign count keeps a noisy pair or two from failing a run; the ratio
bar keeps a consistent slowdown under 10 % from failing it.  The pair
count, the seconds and both bars are constants, not options.  Only the
standard library is used.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HEAD = Path(__file__).resolve().parents[1]

PAIRS = 10
#: perfbench ``--seconds`` per run: 5-8 passes, so each run's median
#: rides out a few seconds of contention on a shared machine (2-second
#: runs, three passes each, failed one of nine A/A checks on a 2-core VM)
SECONDS = 10
#: slower head pairs (of ``PAIRS``) needed to call a regression
SLOWER_PAIRS = 9
#: median head/base ``run_s`` ratio a regression must exceed
MAX_MEDIAN_RATIO = 1.10
#: a run that takes longer than this is hung
RUN_TIMEOUT_S = 900


def verdict(base: Sequence[float], head: Sequence[float]) -> Dict[str, object]:
    """Judge paired ``run_s`` samples (``base[i]`` pairs with ``head[i]``)."""
    if len(base) != len(head) or not base:
        raise ValueError("need equally many base and head samples")
    ratios = [h / b for b, h in zip(base, head)]
    slower = sum(h > b for b, h in zip(base, head))
    median_ratio = statistics.median(ratios)
    return {
        "pairs": len(ratios),
        "slower": slower,
        "median_ratio": median_ratio,
        "regressed": slower >= SLOWER_PAIRS and median_ratio > MAX_MEDIAN_RATIO,
    }


def run_perfbench(tree: Path, workload: str) -> dict:
    """One untraced perfbench run in ``tree``; its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(tree), capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{tree}: perfbench exited {proc.returncode} "
                         "without a result line")
    result["exit"] = proc.returncode
    result["stderr"] = proc.stderr
    return result


def _iqr_over_median(samples: Sequence[float]) -> float:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: paired_perfbench.py <workload> <base-tree>",
              file=sys.stderr)
        return 2
    workload, base_tree = argv[0], Path(argv[1]).resolve()
    for tree in (base_tree, HEAD):
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"no perfbench/run.py under {tree}", file=sys.stderr)
            return 2

    print(f"paired perfbench {workload}: {PAIRS} pairs x {SECONDS} s, "
          f"base {base_tree}, head {HEAD}")
    base_s: List[float] = []
    head_s: List[float] = []
    broken: List[str] = []
    for i in range(PAIRS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        runs = {side: run_perfbench(base_tree if side == "base" else HEAD,
                                    workload)
                for side in order}
        head = runs["head"]
        if not head["correct"] or head["failed"] or head["exit"]:
            broken.append(
                f"pair {i + 1} head: correct={head['correct']} "
                f"failed={head['failed']} exit={head['exit']}\n"
                f"{head['stderr'].strip()}"
            )
        base_s.append(runs["base"]["metrics"]["run_s"]["value"])
        head_s.append(head["metrics"]["run_s"]["value"])
        print(f"  pair {i + 1:2d} ({order[0]} first): "
              f"base {base_s[-1]:.4f} s  head {head_s[-1]:.4f} s  "
              f"head/base {head_s[-1] / base_s[-1]:.3f}", flush=True)

    result = verdict(base_s, head_s)
    print(f"median run_s: base {statistics.median(base_s):.4f} s, "
          f"head {statistics.median(head_s):.4f} s; "
          f"base IQR/median {_iqr_over_median(base_s):.3f}")
    print(f"head slower in {result['slower']} of {result['pairs']} pairs; "
          f"median head/base ratio {result['median_ratio']:.3f} "
          f"(fails at >= {SLOWER_PAIRS} slower and > {MAX_MEDIAN_RATIO:.2f})")
    for problem in broken:
        print(f"FAIL: {problem}", file=sys.stderr)
    if result["regressed"]:
        print(f"FAIL: {workload} run_s regressed", file=sys.stderr)
    if result["regressed"] or broken:
        return 1
    print(f"paired perfbench OK: {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
