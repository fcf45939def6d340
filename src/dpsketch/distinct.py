"""Continual-release distinct-element counting.

Small universes reduce to summing a 0/1 first-appearance indicator stream;
general universes subsample elements into geometric levels, count distinct
hashed values per level with the small-universe counter, and rescale the
deepest level that still holds enough mass.  Boosting takes the per-timestamp
lower median over independent copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .budget import BoostedConfig, MechanismBudget, equal_shares
from .randomness import (
    HASH_RANGE_CAP,
    LevelRouter,
    NoiseContext,
    even_independence,
    median_boost,
    subsample_depth,
)
from .streams import EMPTY_EVENT, StreamEvent, element
from .summing import BinaryTreeMechanism, Clock, GroupingMechanism

TREE = "tree"
GROUP = "group"

# one universe change flips at most 5 entries of the indicator stream
INDICATOR_SENSITIVITY = 5


def make_summing_backend(
    variant: str,
    T: int,
    epsilon: float,
    eta: float,
    xi: float,
    ctx: NoiseContext,
):
    """A summing backend; either kind guarantees (alpha, error_bound(xi))."""
    if variant == TREE:
        return BinaryTreeMechanism(T, epsilon, ctx)
    if variant == GROUP:
        return GroupingMechanism(T, epsilon, eta, xi, ctx)
    raise ValueError(f"unknown summing variant {variant!r}")


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

    Each element lands on one level (or none) under the level hash; the level
    stream stores the pairwise-hashed id.  The output rescales the deepest
    level whose estimate clears the selection threshold.
    """

    def __init__(
        self,
        params: SubsampleParams,
        ctx: NoiseContext,
        summing_factory: Callable[[tuple], object],
    ) -> None:
        self.params = params
        self._route = LevelRouter(params.L, params.lam, params.m, ctx, "subsample")
        self.levels = [
            SmallUniverseDistinct(params.m, summing_factory(("level", i)))
            for i in range(1, params.L + 1)
        ]

    def ingest(self, e: StreamEvent) -> None:
        """Advance one timestamp without computing the estimate."""
        level, hashed = (None, 0)
        if e.is_element():
            level, hashed = self._route(e.value)
        elif e.is_integer():
            raise ValueError("distinct counting requires an elements-mode stream")
        for i, counter in enumerate(self.levels, start=1):
            counter.feed(element(hashed) if level == i else EMPTY_EVENT)

    def current(self) -> float:
        for i in range(self.params.L, 0, -1):
            s_i = self.levels[i - 1].current()
            if s_i >= self.params.threshold:
                return s_i * 2.0**i
        return 0.0


class BoostedEstimator:
    """Independent copies, each driven by ``ingest(e)`` and read by ``current()``,
    combined per timestamp (lower median by default).  Copies built on one
    shared ``clock`` leave it to the estimator, which ticks it once per event."""

    def __init__(
        self,
        copies: Sequence,
        combiner: Callable[[Sequence[float]], float] = median_boost,
        budget: MechanismBudget | None = None,
        clock: Clock | None = None,
    ) -> None:
        if not copies:
            raise ValueError("boosted estimator needs at least one copy")
        self.copies = list(copies)
        self.combiner = combiner
        self.budget = budget
        self._clock = clock

    def feed(self, e: StreamEvent) -> float:
        self.ingest(e)
        return self.current()

    def ingest(self, e: StreamEvent) -> None:
        if self._clock is not None:
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
    copies -> xi share -> (alpha, gamma) -> m.
    """
    copies = cfg.n_copies()
    eps_copy = cfg.epsilon / copies
    eps_sum = eps_copy / INDICATOR_SENSITIVITY
    xi_inner = (cfg.xi / 2) / (subsample_depth(cfg.n, cfg.T) * copies)
    probe = make_summing_backend(
        cfg.variant, cfg.T, eps_sum, cfg.eta, xi_inner, ctx.child("distinct-probe")
    )
    params = subsample_params(cfg.n, cfg.T, cfg.eta, probe.alpha, probe.error_bound(xi_inner))

    instances = []
    for c in range(copies):
        copy_ctx = ctx.child("distinct-copy", c)

        def factory(key: tuple, _ctx=copy_ctx) -> object:
            return make_summing_backend(
                cfg.variant, cfg.T, eps_sum, cfg.eta, xi_inner, _ctx.child(*key)
            )

        instances.append(SubsampledDistinct(params, copy_ctx, factory))
    return BoostedEstimator(instances, median_boost, equal_shares(cfg.epsilon, cfg.xi, copies))
