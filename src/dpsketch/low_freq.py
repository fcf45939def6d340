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
from typing import Sequence

import numpy as np

from .budget import BoostedConfig
from .distinct import BoostedEstimator, DistinctConfig, distinct_estimator
from .randomness import (
    HASH_RANGE_CAP,
    LevelRouter,
    NoiseContext,
    even_independence,
    fold_key,
    median_boost,
    subsample_depth,
)
from .streams import StreamEvent, element
from .summing import GROUP, BinaryTreeMechanism

# one universe change perturbs each counter stream in at most 8 unit steps
COUNTER_SENSITIVITY_PER_K = 8

# universes up to this size are counted directly, without subsampling
SMALL_UNIVERSE_LIMIT = 1 << 14


class LowFreqSmall:
    """Exact-frequency counts over a small universe via k signed counters.

    With noise off, counter i's total equals |{a : f_a = i}| at every
    timestamp.  Counters hold +-1 inputs, so they are tree-backed: a window
    of k lanes, counter i keyed ``("lfs", i)``, that the block joins at
    ``epsilon_counter`` in ``bank``, whose clock's owner ticks it.
    """

    def __init__(
        self,
        m: int,
        k: int,
        epsilon_counter: float,
        ctx: NoiseContext,
        bank: BinaryTreeMechanism,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.m = int(m)
        self.k = int(k)
        self.counters = bank
        self._lo = self.counters.join(
            fold_key(ctx.master_seed, ("tree", "lfs")), range(1, k + 1), epsilon_counter
        )
        self.freq: dict[int, int] = {}

    def ingest(self, e: StreamEvent) -> None:
        """Take the current timestamp's event without computing the counter outputs."""
        if e.is_element():
            if e.value >= self.m:
                raise ValueError(f"element id {e.value} outside universe [0, {self.m})")
            j = self.freq.get(e.value, 0) + 1
            self.freq[e.value] = j
            if j <= self.k:
                self.counters.add(1, self._lo + j - 1)
            if 2 <= j <= self.k + 1:
                self.counters.add(-1, self._lo + j - 2)
        elif e.is_integer():
            raise ValueError("low-frequency counting requires an elements-mode stream")

    def outputs(self) -> np.ndarray:
        """Every counter's output, read-only, from the bank's memoised full read."""
        return self.counters.current()[self._lo : self._lo + self.k]

    def current(self) -> list[float]:
        return self.outputs().tolist()


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
    max(3*gamma1, floor).  The L level blocks are windows of ``bank``, whose
    clock's owner ticks it; a read slices the selected level from the bank's
    memoised full read.
    """

    def __init__(
        self,
        params: SubsampleLowFreqParams,
        k: int,
        epsilon_counter: float,
        ctx: NoiseContext,
        distinct_backend,
        bank: BinaryTreeMechanism,
    ) -> None:
        self.params = params
        self.k = int(k)
        self._route = LevelRouter(params.L, params.lam, params.m, ctx, "lfg")
        self.levels = [
            LowFreqSmall(params.m, k, epsilon_counter, ctx.child("level", i), bank)
            for i in range(1, params.L + 1)
        ]
        self.d_hat = distinct_backend

    def ingest(self, e: StreamEvent) -> None:
        if e.is_element():
            level, hashed = self._route(e.value)
            if level is not None:
                self.levels[level - 1].ingest(element(hashed))
        elif e.is_integer():
            raise ValueError("low-frequency counting requires an elements-mode stream")
        self.d_hat.ingest(e)

    def outputs(self) -> np.ndarray:
        d_val = self.d_hat.current()
        floor = self.params.selection_floor
        if d_val > max(3 * self.params.gamma1, floor):
            for i in range(self.params.L, 0, -1):
                if 2**i * floor <= d_val:
                    return self.levels[i - 1].outputs() * 2.0**i
        return np.zeros(self.k)

    def current(self) -> list[float]:
        return self.outputs().tolist()


@dataclass(frozen=True, kw_only=True)
class LowFreqConfig(BoostedConfig):
    EVENTS_PER_TICK = 3
    k: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def _median_vectors(vectors: Sequence[Sequence[float]]) -> list[float]:
    return [median_boost([v[j] for v in vectors]) for j in range(len(vectors[0]))]


def dhat_xi(xi: float, copies: int) -> float:
    """The xi of d_hat in each of ``copies`` boosted blocks: a third of its share."""
    return xi / (3 * copies)


def low_freq_block(
    n: int,
    k: int,
    T: int,
    eta: float,
    epsilon: float,
    xi: float,
    ctx: NoiseContext,
    bank: BinaryTreeMechanism,
) -> LowFreqSmall | LowFreqGeneral:
    """One epsilon-DP block of per-frequency counters for frequencies 1..k,
    whose counters are windows of ``bank``, ticked by its owner.

    A small universe is counted directly.  Otherwise the budget splits three
    ways: the level tuple is touched twice per universe change and the
    distinct estimate once, so each level's counter block and the distinct
    backend run at epsilon/3 (counters then divide by the 8k stream
    sensitivity).  The backend runs at failure probability ``xi`` and its
    additive bound enters the level selection.  It runs at the block's eta:
    selection compares d_hat with 2^i * floor and d_hat <= (1+eta) d + gamma,
    so up to gamma the chosen level's expected sample count d/2^i is at least
    floor/(1+eta).
    """
    if n <= SMALL_UNIVERSE_LIMIT:
        return LowFreqSmall(n, k, epsilon / (COUNTER_SENSITIVITY_PER_K * k), ctx, bank)
    eps_block = epsilon / 3
    d_cfg = DistinctConfig(
        epsilon=eps_block, eta=eta, xi=min(0.49, xi), n=n, T=T, variant=GROUP, copies=3
    )
    d_hat = distinct_estimator(d_cfg, ctx.child("dhat"))
    params = subsample_lowfreq_params(n, T, k, eta, d_hat.copies[0].params.gamma)
    eps_counter = eps_block / (COUNTER_SENSITIVITY_PER_K * k)
    return LowFreqGeneral(params, k, eps_counter, ctx, d_hat, bank)


def lowfreq_estimator(cfg: LowFreqConfig, ctx: NoiseContext) -> BoostedEstimator:
    """Boosted per-frequency count estimator with budget ledger: one
    :func:`low_freq_block` per copy at epsilon/copies, all of their counters
    windows of one bank on the estimator's clock."""
    xi_dhat = dhat_xi(cfg.xi, cfg.n_copies())

    def build(c: int, copy_ctx: NoiseContext, eps: float, bank: BinaryTreeMechanism):
        return low_freq_block(cfg.n, cfg.k, cfg.T, cfg.eta, eps, xi_dhat, copy_ctx, bank)

    return BoostedEstimator(cfg, ctx, "lowfreq-copy", build, _median_vectors)
