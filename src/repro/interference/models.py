"""Regression model families for interference prediction.

The paper (following MROrchestrator [31] and TRACON [13]) models task
slowdown as:

- **CPU**: linear in collocated CPU utilization (Figure 6(b));
- **Memory**: piece-wise linear -- flat until allocations exceed
  capacity, then a steeper paging slope;
- **I/O**: exponential in collocated I/O rate (Figure 6(c)).

Each model exposes ``fit(x, y)`` / ``predict(x)``; fits are closed-form
least squares (:mod:`repro.interference.regression`), cheap enough for
the Phase II scheduler to refresh models online every epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.interference.regression import fit_line, r_squared


class LinearModel:
    """``y = slope * x + intercept``."""

    def __init__(self) -> None:
        self.slope = 0.0
        self.intercept = 0.0
        self.fitted = False

    def fit(self, x: Sequence[float], y: Sequence[float]) -> "LinearModel":
        self.slope, self.intercept = fit_line(x, y)
        self.fitted = True
        return self

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept

    def score(self, x: Sequence[float], y: Sequence[float]) -> float:
        return r_squared(y, [self.predict(v) for v in x])


class PiecewiseLinearModel:
    """Two linear segments joined at a learned breakpoint.

    The breakpoint is chosen by scanning candidate split points and
    keeping the one with the lowest total squared error.  Captures the
    memory interference shape: negligible slowdown below the knee
    (memory fits), a steep paging slope above it.
    """

    def __init__(self, min_segment: int = 3) -> None:
        if min_segment < 2:
            raise ValueError("segments need at least 2 points")
        self.min_segment = min_segment
        self.breakpoint = 0.0
        self.left = LinearModel()
        self.right = LinearModel()
        self.fitted = False

    def fit(self, x: Sequence[float], y: Sequence[float]) -> "PiecewiseLinearModel":
        xs = list(map(float, x))
        ys = list(map(float, y))
        if len(xs) != len(ys):
            raise ValueError("x and y must have equal length")
        if len(xs) < 2 * self.min_segment:
            # not enough data for two segments: degenerate single line
            self.left.fit(xs, ys)
            self.right = self.left
            self.breakpoint = max(xs) if xs else 0.0
            self.fitted = True
            return self
        order = sorted(range(len(xs)), key=xs.__getitem__)
        xs = [xs[i] for i in order]
        ys = [ys[i] for i in order]
        best_err = math.inf
        best = None
        for split in range(self.min_segment, len(xs) - self.min_segment + 1):
            lx, ly = xs[:split], ys[:split]
            rx, ry = xs[split:], ys[split:]
            ls, li = fit_line(lx, ly)
            rs, ri = fit_line(rx, ry)
            err = math.fsum(
                (ly[i] - (ls * lx[i] + li)) ** 2 for i in range(len(lx))
            ) + math.fsum(
                (ry[i] - (rs * rx[i] + ri)) ** 2 for i in range(len(rx))
            )
            if err < best_err:
                best_err = err
                best = (xs[split - 1], ls, li, rs, ri)
        assert best is not None
        self.breakpoint, ls, li, rs, ri = best
        self.left.slope, self.left.intercept = ls, li
        self.left.fitted = True
        self.right = LinearModel()
        self.right.slope, self.right.intercept = rs, ri
        self.right.fitted = True
        self.fitted = True
        return self

    def predict(self, x: float) -> float:
        model = self.left if x <= self.breakpoint else self.right
        return model.predict(x)

    def score(self, x: Sequence[float], y: Sequence[float]) -> float:
        return r_squared(y, [self.predict(v) for v in x])


class ExponentialModel:
    """``y = a * exp(b * x) + c`` fitted by log-linearization.

    ``c`` (the interference-free floor) is estimated as slightly below
    the minimum observation, after which ``log(y - c)`` is linear in
    ``x`` and ordinary least squares applies.
    """

    def __init__(self) -> None:
        self.a = 0.0
        self.b = 0.0
        self.c = 0.0
        self.fitted = False

    def fit(self, x: Sequence[float], y: Sequence[float]) -> "ExponentialModel":
        xs = list(map(float, x))
        ys = list(map(float, y))
        if len(xs) != len(ys):
            raise ValueError("x and y must have equal length")
        if not xs:
            raise ValueError("cannot fit an empty dataset")
        self.c = min(ys) * 0.95
        log_shifted = [math.log(max(v - self.c, 1e-9)) for v in ys]
        slope, intercept = fit_line(xs, log_shifted)
        self.b = slope
        self.a = math.exp(intercept)
        self.fitted = True
        return self

    def predict(self, x: float) -> float:
        return self.a * math.exp(self.b * x) + self.c

    def score(self, x: Sequence[float], y: Sequence[float]) -> float:
        return r_squared(y, [self.predict(v) for v in x])


@dataclass
class InterferenceModelSet:
    """The per-workload triple the Estimator maintains."""

    cpu: LinearModel = field(default_factory=LinearModel)
    memory: PiecewiseLinearModel = field(default_factory=PiecewiseLinearModel)
    io: ExponentialModel = field(default_factory=ExponentialModel)

    def slowdown(
        self,
        cpu_util: Optional[float] = None,
        mem_ratio: Optional[float] = None,
        io_rate: Optional[float] = None,
    ) -> float:
        """Combined predicted slowdown factor (>= 1.0 when fitted).

        Unfitted dimensions and omitted inputs contribute nothing.
        """
        factor = 1.0
        if cpu_util is not None and self.cpu.fitted:
            factor *= max(1.0, self.cpu.predict(cpu_util))
        if mem_ratio is not None and self.memory.fitted:
            factor *= max(1.0, self.memory.predict(mem_ratio))
        if io_rate is not None and self.io.fitted:
            factor *= max(1.0, self.io.predict(io_rate))
        return factor
