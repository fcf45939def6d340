"""Continual-release distinct-element counting.

Small universes reduce to summing a 0/1 first-appearance indicator stream;
general universes subsample elements into geometric levels, sum the
indicator of each level's first hashed values, and rescale the deepest level
that still holds enough mass.  Boosting takes the per-timestamp
lower median over independent copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .budget import BoostedConfig, equal_shares
from .randomness import (
    HASH_RANGE_CAP,
    LevelRouter,
    NoiseContext,
    even_independence,
    fold_key,
    median_boost,
    subsample_depth,
)
from .streams import StreamEvent
from .summing import GROUP, TREE, BinaryTreeMechanism, Clock, GroupingMechanism, summing_guarantee

# one universe change flips at most 5 entries of the indicator stream
INDICATOR_SENSITIVITY = 5


class SmallUniverseDistinct:
    """Distinct count over a universe of size at most m via indicator summing.

    Feeds 1 to the inner summing mechanism exactly when a fresh non-empty
    element arrives, else 0; with noise off the output equals the exact
    distinct count at every timestamp.
    """

    def __init__(self, m: int, inner) -> None:
        self.m = int(m)
        self.inner = inner
        self.seen: set[int] = set()

    def feed(self, e: StreamEvent) -> float:
        x = 0
        if e.is_element():
            if e.value >= self.m:
                raise ValueError(f"element id {e.value} outside universe [0, {self.m})")
            if e.value not in self.seen:
                self.seen.add(e.value)
                x = 1
        elif e.is_integer():
            raise ValueError("distinct counting requires an elements-mode stream")
        self.inner.feed(x)
        return self.inner.current()

    def current(self) -> float:
        return self.inner.current()


@dataclass(frozen=True)
class SubsampleParams:
    """Derived shape of the subsampled estimator (evaluated copies -> xi share
    -> gamma -> m, see the estimator factory)."""

    L: int
    lam: int
    m: int
    alpha: float
    gamma: float
    threshold: float


def subsample_params(
    n: int, T: int, eta: float, alpha: float, gamma: float
) -> SubsampleParams:
    L = subsample_depth(n, T)
    lam = even_independence(2 * math.log2(1000 * L))
    threshold = max(gamma / eta, 32 * alpha * lam / eta**2)
    m = min(math.ceil(100 * L * (16 * alpha * threshold) ** 2), HASH_RANGE_CAP)
    return SubsampleParams(L=L, lam=lam, m=m, alpha=alpha, gamma=gamma, threshold=threshold)


class SubsampledDistinct:
    """Distinct count for a general universe via geometric subsampling.

    Each element lands on one level (or none) under the level hash; its first
    (level, pairwise-hashed id) pair credits 1 to level i's counter, keyed as
    a single tree counter under ``ctx.child("level", i)``: a lane of ``bank``,
    or with ``grouping`` = (eta, xi) a grouping mechanism fed every tick.  The
    output rescales the deepest level whose estimate clears the threshold.
    """

    def __init__(
        self, params: SubsampleParams, ctx: NoiseContext, bank: BinaryTreeMechanism,
        epsilon: float, grouping: tuple[float, float] | None = None,
    ) -> None:
        self.params = params
        self._route = LevelRouter(params.L, params.lam, params.m, ctx, "subsample")
        self._seen: set[tuple[int, int]] = set()
        self._bank, self._lo = bank, bank.k  # tree level i is lane _lo + i - 1
        self.groups = []  # the grouping mechanisms, level 1 first
        for level in (ctx.child("level", i) for i in range(1, params.L + 1)):
            if grouping:
                self.groups.append(GroupingMechanism(bank.T, epsilon, *grouping, level))
            else:
                bank.join(fold_key(level.master_seed, ("tree",)), None, epsilon)

    def ingest(self, e: StreamEvent) -> None:
        """Advance one timestamp without computing the estimate."""
        if e.is_integer():
            raise ValueError("distinct counting requires an elements-mode stream")
        level, hashed = self._route(e.value) if e.is_element() else (None, 0)
        first = level is not None and (level, hashed) not in self._seen
        if first:
            self._seen.add((level, hashed))
        for i, counter in enumerate(self.groups, start=1):
            counter.feed(int(first and i == level))
        if first and not self.groups:
            self._bank.add(1, self._lo + level - 1)

    def level_outputs(self):
        """Every level's noisy distinct count, level 1 first."""
        if self.groups:
            return [level.current() for level in self.groups]
        return self._bank.current()[self._lo : self._lo + self.params.L]

    def current(self) -> float:
        s = self.level_outputs()
        for i in range(self.params.L, 0, -1):
            if s[i - 1] >= self.params.threshold:
                return float(s[i - 1]) * 2.0**i
        return 0.0


class BoostedEstimator:
    """The median trick: ``cfg.n_copies()`` independent copies, each driven by
    ``ingest(e)`` and read by ``current()``, combined per timestamp by
    ``combiner``, with an equal-share ledger ``budget``.  Copy c is
    ``build(c, ctx.child(name, c), cfg.epsilon / copies, bank)``: its context,
    its epsilon, and one ``bank`` on the clock the estimator ticks once per
    event, which a copy may join or read the clock of."""

    def __init__(
        self, cfg: BoostedConfig, ctx: NoiseContext, name: str, build: Callable, combiner: Callable
    ) -> None:
        self.cfg = cfg
        self.ctx = ctx
        copies = cfg.n_copies()
        self.bank = BinaryTreeMechanism.bank(cfg.T, ctx, Clock(cfg.T))
        self.copies = [
            build(c, ctx.child(name, c), cfg.epsilon / copies, self.bank) for c in range(copies)
        ]
        self.combiner = combiner
        self.budget = equal_shares(cfg.epsilon, cfg.xi, copies)
        self._clock = self.bank.clock

    @property
    def t(self) -> int:
        return self._clock.t

    def feed(self, e: StreamEvent) -> float:
        self.ingest(e)
        return self.current()

    def ingest(self, e: StreamEvent) -> None:
        self._clock.tick()
        for c in self.copies:
            c.ingest(e)

    def current(self) -> float:
        return self.combiner([c.current() for c in self.copies])


@dataclass(frozen=True, kw_only=True)
class DistinctConfig(BoostedConfig):
    variant: str = GROUP

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.variant not in (TREE, GROUP):
            raise ValueError(f"variant must be tree or group, got {self.variant!r}")


def distinct_estimator(cfg: DistinctConfig, ctx: NoiseContext) -> BoostedEstimator:
    """Boosted general-universe distinct estimator with budget ledger.

    Per copy: the level tuple is released once (partition-style sensitivity),
    each level's indicator summing runs at eps_copy/5 since one universe
    change flips at most 5 indicator entries.  Parameter evaluation order:
    copies -> xi share -> (alpha, gamma) -> m, the level backend's
    ``summing_guarantee``, read without building one.  Tree-variant levels
    are lanes of the estimator's bank, so a tick draws each stale level once
    for every copy's levels; grouping-variant levels are grouping mechanisms.
    """
    copies = cfg.n_copies()
    eps_sum = cfg.epsilon / copies / INDICATOR_SENSITIVITY
    xi_inner = (cfg.xi / 2) / (subsample_depth(cfg.n, cfg.T) * copies)
    guarantee = summing_guarantee(cfg.variant, cfg.T, eps_sum, cfg.eta, xi_inner, ctx.noise_off)
    params = subsample_params(cfg.n, cfg.T, cfg.eta, *guarantee)

    grouping = None if cfg.variant == TREE else (cfg.eta, xi_inner)

    def build(c: int, copy_ctx: NoiseContext, eps: float, bank: BinaryTreeMechanism):
        return SubsampledDistinct(params, copy_ctx, bank, eps / INDICATOR_SENSITIVITY, grouping)

    return BoostedEstimator(cfg, ctx, "distinct-copy", build, median_boost)
