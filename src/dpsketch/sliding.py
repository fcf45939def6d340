"""Smooth-histogram adapter: turns a continual-release estimator of a smooth
function into a sliding-window continual-release estimator.

A fresh inner instance starts at every timestamp; an instance is dropped when
its two retained neighbours are already within a (1-beta) factor of each
other, so at most O(log(T)/beta) instances stay live.  The window estimate is
the output of the oldest instance started inside the window; the newest
expired instance (the straddler) is retained for bracketing.  Additive inner
error is first shifted into a purely relative guarantee via g + Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .streams import StreamEvent
from .summing import StateError


@dataclass(frozen=True)
class SmoothnessParams:
    """(zeta, beta) smoothness constants, 0 < beta <= zeta < 1."""

    zeta: float
    beta: float

    def __post_init__(self) -> None:
        if not 0 < self.beta <= self.zeta < 1:
            raise ValueError(
                f"need 0 < beta <= zeta < 1, got beta={self.beta} zeta={self.zeta}"
            )

    @classmethod
    def for_moment(cls, p: float, eta: float) -> "SmoothnessParams":
        """Smoothness of ||S||_p^p: (eta, (eta/p)^p) for p > 1, else (eta, eta)."""
        if p > 1:
            return cls(zeta=eta, beta=(eta / p) ** p)
        return cls(zeta=eta, beta=eta)


def relative_shift(alpha: float, gamma: float) -> float:
    """Smallest shift making an (alpha, gamma) guarantee purely relative."""
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1 for a finite shift, got {alpha}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return alpha * gamma / (alpha - 1.0)


@dataclass
class HistogramEntry:
    """One suffix-started inner instance."""

    start_t: int
    estimator: object
    last_output: float = 0.0


@dataclass(frozen=True)
class SlidingBudget:
    """Per-instance share of the window estimator's privacy budget.

    Any single input is consumed by at most ``max_live`` live instances, so
    per-instance epsilon' = epsilon/max_live composes back to epsilon exactly.
    """

    target_epsilon: float
    max_live: int
    per_instance_fraction: Fraction = field(init=False)
    # converted once: the window factory reads it for every new instance
    per_instance_epsilon: float = field(init=False)

    def __post_init__(self) -> None:
        fraction = Fraction(1, self.max_live)
        object.__setattr__(self, "per_instance_fraction", fraction)
        object.__setattr__(self, "per_instance_epsilon", self.target_epsilon * float(fraction))

    @property
    def composed_epsilon(self) -> float:
        """Exactly the target: epsilon * (1/max_live) * max_live."""
        return self.target_epsilon * float(self.per_instance_fraction * self.max_live)


class SmoothHistogram:
    """Sliding-window wrapper around a factory of inner continual estimators.

    ``inner_factory(start_t)`` must return a fresh estimator with
    ``feed(event) -> float``.  ``shift`` is added to inner outputs before all
    smoothness comparisons and subtracted from the reported window estimate.
    """

    def __init__(
        self,
        inner_factory: Callable[[int], object],
        params: SmoothnessParams,
        W: int,
        T: int,
        shift: float = 0.0,
        max_live: int | None = None,
    ) -> None:
        if W < 1:
            raise ValueError(f"W must be >= 1, got {W}")
        cap = float(T) ** 3
        if not 0 <= shift <= cap:
            raise ValueError(f"shift must lie in [0, {cap}], got {shift}")
        self.inner_factory = inner_factory
        self.params = params
        self.W = int(W)
        self.T = int(T)
        self.shift = float(shift)
        self.max_live = max_live
        self.t = 0
        self.entries: list[HistogramEntry] = []
        self.peak_live = 0

    def feed(self, e: StreamEvent) -> float:
        if self.t >= self.T:
            raise StateError(f"stream horizon T={self.T} exhausted")
        self.t += 1
        self.entries.append(HistogramEntry(self.t, self.inner_factory(self.t)))
        fed = len(self.entries)
        self.peak_live = max(self.peak_live, fed)
        if self.max_live is not None and fed > self.max_live:
            raise StateError(
                f"live instances {fed} exceed the budgeted bound {self.max_live}"
            )
        for entry in self.entries:
            entry.last_output = entry.estimator.feed(e) + self.shift
        self._prune()
        self._expire()
        return self.current()

    def _prune(self) -> None:
        # drop the middle of any run where the outer pair is already close
        one_minus_beta = 1.0 - self.params.beta
        entries = self.entries
        i = 0
        while i + 2 < len(entries):
            if one_minus_beta * entries[i].last_output <= entries[i + 2].last_output:
                del entries[i + 1]
            else:
                i += 1

    def _expire(self) -> None:
        window_start = self.t - self.W + 1
        keep: list[HistogramEntry] = []
        straddler: HistogramEntry | None = None
        for entry in self.entries:
            if entry.start_t < window_start:
                straddler = entry  # newest expired start wins
            else:
                keep.append(entry)
        self.entries = ([straddler] if straddler is not None else []) + keep

    def current(self) -> float:
        window_start = self.t - self.W + 1
        for entry in self.entries:
            if entry.start_t >= window_start:
                return entry.last_output - self.shift
        # unreachable while W >= 1 (this tick's entry is in-window); the
        # straddler is the defensive fallback
        return self.entries[0].last_output - self.shift

    @property
    def live_instances(self) -> int:
        return len(self.entries)


def default_max_live(T: int, beta: float) -> int:
    """Frozen instance-count bound 4 * log2(T) / beta."""
    return max(2, math.ceil(4.0 * math.log2(max(T, 2)) / beta))


def window_estimator(
    inner_factory: Callable[[int, float], object],
    params: SmoothnessParams,
    W: int,
    T: int,
    epsilon: float,
    inner_alpha: float = 1.0,
    inner_gamma: float = 0.0,
) -> tuple[SmoothHistogram, SlidingBudget]:
    """Wire a DP sliding estimator: per-instance budget and additive shift.

    ``inner_factory(start_t, epsilon_instance)`` builds one suffix estimator.
    The shift Z = alpha*gamma/(alpha-1) converts the inner additive error for
    the smoothness comparisons (Z = 0 when gamma = 0).
    """
    budget = SlidingBudget(epsilon, default_max_live(T, params.beta))
    shift = 0.0
    if inner_gamma > 0:
        shift = relative_shift(inner_alpha, inner_gamma)
    histogram = SmoothHistogram(
        lambda start_t: inner_factory(start_t, budget.per_instance_epsilon),
        params,
        W,
        T,
        shift=shift,
        max_live=budget.max_live,
    )
    return histogram, budget
