"""Counting elements of each exact frequency 1..k.

Small universes difference-encode frequency transitions into k signed count
streams (an arrival whose new frequency is j adds +1 to stream j and -1 to
stream j-1), each summed by a tree counter.  General universes subsample into
geometric levels, run the small-universe counter per level on hashed ids, and
rescale the deepest level justified by a distinct-count estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .budget import check_accuracy, copy_count, equal_shares
from .distinct import GROUP, BoostedEstimator, DistinctConfig, distinct_estimator
from .randomness import (
    HASH_RANGE_CAP,
    LevelRouter,
    NoiseContext,
    even_independence,
    median_boost,
    subsample_depth,
)
from .streams import EMPTY_EVENT, StreamEvent, element
from .summing import BinaryTreeMechanism

# one universe change perturbs each counter stream in at most 8 unit steps
COUNTER_SENSITIVITY_PER_K = 8

# universes up to this size are counted directly, without subsampling
SMALL_UNIVERSE_LIMIT = 1 << 14


class LowFreqSmall:
    """Exact-frequency counts over a small universe via k signed counters.

    With noise off, counter i's total equals |{a : f_a = i}| at every
    timestamp.  Counters hold +-1 inputs, so they are tree-backed: one bank
    of k lanes, counter i keyed ``("lfs", i)``.
    """

    def __init__(
        self,
        m: int,
        k: int,
        T: int,
        epsilon_counter: float,
        ctx: NoiseContext,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.m = int(m)
        self.k = int(k)
        lanes = [(ctx.master_seed, ("tree", "lfs"), range(1, k + 1))]
        self.counters = BinaryTreeMechanism(T, epsilon_counter, ctx, lanes=lanes)
        self.freq: dict[int, int] = {}

    def ingest(self, e: StreamEvent) -> None:
        """Advance one timestamp without computing the counter outputs."""
        self.counters.tick()
        if e.is_element():
            if e.value >= self.m:
                raise ValueError(f"element id {e.value} outside universe [0, {self.m})")
            j = self.freq.get(e.value, 0) + 1
            self.freq[e.value] = j
            if j <= self.k:
                self.counters.add(1, j - 1)
            if 2 <= j <= self.k + 1:
                self.counters.add(-1, j - 2)
        elif e.is_integer():
            raise ValueError("low-frequency counting requires an elements-mode stream")

    def current(self) -> list[float]:
        return self.counters.current().tolist()


@dataclass(frozen=True)
class SubsampleLowFreqParams:
    L: int
    lam: int
    m: int
    gamma1: float
    selection_floor: float  # 64*lam/eta^2


def subsample_lowfreq_params(
    n: int, T: int, k: int, eta: float, gamma1: float
) -> SubsampleLowFreqParams:
    lam = even_independence(2 * math.log2(1000 * k))
    m = min(math.ceil(100 * (25600 * lam / eta**2) ** 2), HASH_RANGE_CAP)
    return SubsampleLowFreqParams(
        L=subsample_depth(n, T), lam=lam, m=m, gamma1=gamma1, selection_floor=64 * lam / eta**2
    )


class LowFreqGeneral:
    """Per-frequency counts for a general universe via level subsampling.

    The distinct estimate picks the deepest level whose expected sample count
    still clears the selection floor; level counts are rescaled by 2^i*.
    Outputs all zeros while the distinct estimate is below
    max(3*gamma1, floor).
    """

    def __init__(
        self,
        params: SubsampleLowFreqParams,
        k: int,
        ctx: NoiseContext,
        level_factory: Callable[[int], LowFreqSmall],
        distinct_backend,
    ) -> None:
        self.params = params
        self.k = int(k)
        self._route = LevelRouter(params.L, params.lam, params.m, ctx, "lfg")
        self.levels = [level_factory(i) for i in range(1, params.L + 1)]
        self.d_hat = distinct_backend

    def ingest(self, e: StreamEvent) -> None:
        level, hashed = (None, 0)
        if e.is_element():
            level, hashed = self._route(e.value)
        elif e.is_integer():
            raise ValueError("low-frequency counting requires an elements-mode stream")
        for i, counter in enumerate(self.levels, start=1):
            counter.ingest(element(hashed) if level == i else EMPTY_EVENT)
        self.d_hat.ingest(e)

    def current(self) -> list[float]:
        d_val = self.d_hat.current()
        floor = self.params.selection_floor
        if d_val <= max(3 * self.params.gamma1, floor):
            return [0.0] * self.k
        for i in range(self.params.L, 0, -1):
            if 2**i * floor <= d_val:
                scale = 2.0**i
                return [s * scale for s in self.levels[i - 1].current()]
        return [0.0] * self.k


@dataclass(frozen=True)
class LowFreqConfig:
    epsilon: float
    eta: float
    xi: float
    k: int
    n: int
    T: int
    copies: int | None = None  # None: ceil(50 ln(3T/xi))

    def __post_init__(self) -> None:
        check_accuracy(self.eta, self.epsilon, self.xi)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def _median_vectors(vectors: Sequence[Sequence[float]]) -> list[float]:
    return [median_boost([v[j] for v in vectors]) for j in range(len(vectors[0]))]


def low_freq_block(
    n: int, k: int, T: int, eta: float, epsilon: float, xi: float, ctx: NoiseContext
) -> LowFreqSmall | LowFreqGeneral:
    """One epsilon-DP block of per-frequency counters for frequencies 1..k.

    A small universe is counted directly.  Otherwise the budget splits three
    ways: the level tuple is touched twice per universe change and the
    distinct estimate once, so each level's counter block and the distinct
    backend run at epsilon/3 (counters then divide by the 8k stream
    sensitivity).  The backend runs at failure probability ``xi`` and its
    additive bound enters the level selection.
    """
    if n <= SMALL_UNIVERSE_LIMIT:
        return LowFreqSmall(n, k, T, epsilon / (COUNTER_SENSITIVITY_PER_K * k), ctx)
    eps_block = epsilon / 3
    d_cfg = DistinctConfig(
        epsilon=eps_block, eta=0.1, xi=min(0.49, xi), n=n, T=T, variant=GROUP, copies=3
    )
    d_hat = distinct_estimator(d_cfg, ctx.child("dhat"))
    params = subsample_lowfreq_params(n, T, k, eta, d_hat.copies[0].params.gamma)
    eps_counter = eps_block / (COUNTER_SENSITIVITY_PER_K * k)

    def level_factory(i: int) -> LowFreqSmall:
        return LowFreqSmall(params.m, k, T, eps_counter, ctx.child("level", i))

    return LowFreqGeneral(params, k, ctx, level_factory, d_hat)


def lowfreq_estimator(cfg: LowFreqConfig, ctx: NoiseContext) -> BoostedEstimator:
    """Boosted per-frequency count estimator with budget ledger: one
    :func:`low_freq_block` per copy at epsilon/copies."""
    copies = copy_count(cfg.copies, cfg.T, cfg.xi, c=3)
    eps_copy = cfg.epsilon / copies
    xi_dhat = cfg.xi / (3 * copies)
    instances = [
        low_freq_block(
            cfg.n, cfg.k, cfg.T, cfg.eta, eps_copy, xi_dhat, ctx.child("lowfreq-copy", c)
        )
        for c in range(copies)
    ]
    return BoostedEstimator(instances, _median_vectors, equal_shares(cfg.epsilon, cfg.xi, copies))
