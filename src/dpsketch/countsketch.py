"""Continual-release CountSketch with DP point queries and F2 estimation.

Buckets are lanes of a tree-counter bank (see
:class:`~dpsketch.summing.BinaryTreeMechanism`), which is observationally
identical to one tree mechanism per bucket but keeps O(k log T) noise and
draws a level for all buckets of all boosted copies at once.  Buckets take
signed contributions, so the tree mechanism (not the grouping one) backs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import BoostedConfig
from .distinct import BoostedEstimator
from .randomness import NoiseContext, PolyHashFamily, SignHash, fold_key, fold_on, median_boost
from .randomness import node_laplace  # noqa: F401  (traced by perfbench/run.py)
from .streams import StreamEvent
from .summing import BinaryTreeMechanism

# one universe change moves +-1 between two buckets of one sketch
BUCKET_SENSITIVITY = 2


@dataclass(frozen=True)
class F2Estimate:
    """Sum of squared bucket outputs."""

    value: float


class CountSketchState:
    """One CountSketch: k signed buckets, a window of ``bank``.

    Each non-empty event adds its sign to exactly one bucket; every bucket's
    output is its running sum plus the noise of the dyadic nodes tiling
    [1, t], each node carrying an independent Laplace draw of scale
    (ceil(log2 T)+1)/epsilon_bucket.  The owner of the bank's clock ticks it
    and then calls ``ingest``.  A sketch keyed ``key`` under ``ctx`` takes
    ``folded = key_folds(ctx, key)``: bucket i is the lane keyed ("cs",) + key
    + ("bucket", i), and the hash seeds are the children ("cs",) + key + ("h",)
    and (..., "g") of ``ctx``.  An owner of many sketches whose keys share a
    prefix folds the prefix once and continues its folds by ``fold_on`` over
    the rest of each key.
    """

    # heavy-hitter levels build one sketch per substream, thousands per stream
    __slots__ = ("k", "epsilon_bucket", "_bank", "_lo", "_hi", "h", "g", "_route_cache")

    def __init__(
        self,
        k: int,
        epsilon_bucket: float,
        bank: BinaryTreeMechanism,
        folded: tuple[int, int],
    ) -> None:
        if k < 1:
            raise ValueError(f"bucket count must be >= 1, got {k}")
        self.k = int(k)
        self.epsilon_bucket = float(epsilon_bucket)
        child, own = folded
        self._bank = bank
        self._lo = bank.join(fold_on(own, ("bucket",)), range(self.k), epsilon_bucket)
        self._hi = self._lo + self.k
        self.h = PolyHashFamily(4, self.k, fold_on(child, ("h",)))
        self.g = SignHash(fold_on(child, ("g",)))
        self._route_cache: dict[int, tuple[int, int]] = {}

    @staticmethod
    def key_folds(ctx: NoiseContext, key: tuple) -> tuple[int, int]:
        """The folds of ("cs",) + key under ``ctx.master_seed``, as a child
        (the hash seeds' prefix) and as itself (the buckets' prefix)."""
        key = ("cs",) + tuple(key)
        return ctx.child_seed(*key), fold_key(ctx.master_seed, key)

    @property
    def t(self) -> int:
        return self._bank.t

    @property
    def running(self) -> np.ndarray:
        """Exact bucket counts (private state, not a release)."""
        return self._bank.running[self._lo : self._hi]

    def _route(self, ident: int) -> tuple[int, int]:
        hit = self._route_cache.get(ident)
        if hit is None:
            hit = (self.h(ident), self.g(ident))
            self._route_cache[ident] = hit
        return hit

    def ingest(self, e: StreamEvent) -> None:
        """Ingest the current timestamp's event without advancing the clock."""
        if e.is_element():
            bucket, sign = self._route(e.value)
            self._bank.add(sign, self._lo + bucket)
        elif e.is_integer():
            raise ValueError("CountSketch requires an elements-mode stream")

    def bucket_output(self, i: int) -> float:
        return self._bank.lane_current(self._lo + i)

    def outputs(self) -> np.ndarray:
        """Every bucket's output, read-only."""
        return self._bank.current()[self._lo : self._hi]

    def point_query(self, ident: int) -> float:
        """Frequency estimate g(a) * z_{h(a)} for one element."""
        bucket, sign = self._route(ident)
        return sign * self.bucket_output(bucket)

    def f2(self) -> F2Estimate:
        """Sum of squared bucket outputs, from the bank's memoised full read."""
        out = self._bank.current()[self._lo : self._hi]
        return F2Estimate(float(out @ out))

    def error_bound(self, xi: float) -> float:
        """Per-bucket additive noise bound, all t and buckets jointly w.p. 1-xi:
        the bank's bound at xi/k, a union bound over the k buckets."""
        if not 0 < xi < 1:
            raise ValueError(f"xi must be in (0, 1), got {xi}")
        return self._bank.error_bound(xi / self.k, self._lo)


@dataclass(frozen=True, kw_only=True)
class L2Config(BoostedConfig):
    PER_ELEMENT = True  # a point query of every id at every tick
    buckets: int | None = None  # None: ceil(400 / eta^2)


def default_l2_buckets(eta: float) -> int:
    return math.ceil(400 / eta**2)


class L2Estimator(BoostedEstimator):
    """Boosted frequency and F2 estimator: per-timestamp medians over copies.
    The copies are windows of the bank, each keyed as a standalone sketch
    under its copy context: a tick draws a stale level once for all copies,
    and one memoised full read serves every copy's f2, which is the release.
    ``feed`` only ingests, so that a tick may read both ``f2`` and point
    queries.  Its state is ``cfg``, ``ctx``, ``t`` and ``running``: hashes and
    noise are keyed draws under ``ctx``, so a new estimator ``restore``d to
    them reads the same."""

    def __init__(self, cfg: L2Config, ctx: NoiseContext) -> None:
        k = cfg.buckets if cfg.buckets is not None else default_l2_buckets(cfg.eta)

        def build(c: int, copy_ctx: NoiseContext, eps: float, bank: BinaryTreeMechanism):
            folded = CountSketchState.key_folds(copy_ctx, (c,))
            return CountSketchState(k, eps / BUCKET_SENSITIVITY, bank, folded)

        super().__init__(cfg, ctx, "l2-copy", build, median_boost)

    feed = BoostedEstimator.ingest

    @property
    def running(self) -> np.ndarray:
        """Exact bucket counts, copy after copy (private state, not a release)."""
        return self.bank.running

    def restore(self, t: int, running) -> None:
        """Set the clock and the bucket counts, as ``t`` and ``running`` read them."""
        if not 0 <= t <= self.cfg.T or len(running) != len(self.running):
            raise ValueError(f"t={t} and {len(running)} counts: want t in [0, {self.cfg.T}] "
                             f"and {len(self.running)} counts")
        self._clock.t = int(t)
        self.bank.restore(running)

    def point_query(self, ident: int) -> float:
        return median_boost([s.point_query(ident) for s in self.copies])

    def f2(self) -> float:
        return median_boost([s.f2().value for s in self.copies])

    def current(self) -> float:
        return self.f2()
