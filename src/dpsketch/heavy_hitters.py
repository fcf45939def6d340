"""Continual-release lp heavy hitters over hashed substreams.

Elements are routed into m = 10k^2 substreams; each substream carries one
CountSketch that serves both the substream F2 estimate and per-element point
queries.  A candidate is kept when its squared estimate clears a fraction of
its substream's F2 plus a noise floor.  An :func:`hh_estimator` copy reports
its top ((1+eta)/(1-eta))^p * k candidates, a moment level its count per bin.

The per-timestamp universe scan of the written algorithm is replaced by
incremental candidacy: an element is admitted only at its own arrival (its
frequency only grows then, so entry is delayed at most until its next
arrival); :class:`HHSketch` says which candidates each role retests.
"""

from __future__ import annotations

import heapq
import math
import statistics
from dataclasses import dataclass
from typing import Callable, Hashable

from .budget import BoostedConfig, check_p
from .distinct import BoostedEstimator
from .randomness import HASH_RANGE_CAP, NoiseContext, PolyHashFamily, fold_on
from .streams import StreamEvent
from .summing import BinaryTreeMechanism, Clock, tree_levels
from .countsketch import BUCKET_SENSITIVITY, CountSketchState

# accuracy parameter of a substream's F2 estimate, whose additive error is
# gamma1 = 4 * buckets * gamma2^2 / ETA_F2
ETA_F2 = 0.1

# the power C of the log in the recall threshold tau
TAU_LOG_POWER = 3

# buckets of each substream's CountSketch
INNER_BUCKETS = 8

# one universe change moves one arrival between at most 2 substreams
SUBSTREAM_SENSITIVITY = 2


@dataclass(frozen=True, kw_only=True)
class HHConfig(BoostedConfig):
    """Heavy-hitter shape and error knobs.

    ``gamma2_factor`` scales the bucket noise scale into the additive error
    gamma2 entered in the candidacy threshold; the theory's union-bound value
    drowns every signal at realistic stream lengths, so the factor is a
    calibration knob (gamma2 is 0 with noise off).  ``report_cap`` bounds an
    :func:`hh_estimator` copy's report; a moment level's k puts it above T,
    and the level counts all of its candidates.
    """

    PER_ELEMENT = True  # every id's report at every tick
    p: float
    k: int
    gamma2_factor: float = 0.1
    m_override: int | None = None

    def __post_init__(self) -> None:
        check_p(self.p)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        super().__post_init__()

    @property
    def phi(self) -> float:
        if self.p <= 2:
            return 1.0
        return max(1.0, self.n ** (1.0 - 2.0 / self.p))

    @property
    def m(self) -> int:
        if self.m_override is not None:
            return self.m_override
        return min(10 * self.k * self.k, HASH_RANGE_CAP)

    @property
    def report_cap(self) -> int:
        return math.floor(((1 + self.eta) / (1 - self.eta)) ** self.p * self.k)


def tree_epsilon(epsilon: float) -> float:
    """The trees' epsilon in a heavy-hitter sketch at ``epsilon``."""
    return epsilon / (SUBSTREAM_SENSITIVITY * BUCKET_SENSITIVITY)


def noise_floor(T: int, epsilon_tree: float, eta: float, factor: float, noise_off: bool):
    """(gamma2, floor): a substream bucket's additive error factor * levels/epsilon_tree
    (0 with noise off) and the candidacy floor 512 gamma2^2/eta^2."""
    gamma2 = 0.0 if noise_off else factor * (tree_levels(T) / epsilon_tree)
    return gamma2, 512 * gamma2**2 / eta**2


class HHSketch:
    """One copy of the substream heavy-hitter sketch, on its owner's ``clock``:
    the owner advances it once per event, before ``ingest``.

    Without ``bins`` (an :func:`hh_estimator` copy) it retests every
    candidate each tick and reports the top ``report_cap`` by estimate.
    With ``bins`` (a moment level) it retests the arriving substream's
    candidates only, so a candidate keeps the estimate read at the last
    arrival into its substream, and reports how many candidates each bin
    ``bins(f_hat)`` holds (None: no bin): the count of its top ``report_cap``,
    as ``bins`` requires ``report_cap >= T``, above any candidate count.

    Substream idx carries the sketch keyed ``key + ("sub", idx)``; the sketch
    keys share all but their last parts, so the first substream folds that
    prefix once for all of them, and each sketch is built from its folds alone.
    """

    def __init__(
        self,
        cfg: HHConfig,
        ctx: NoiseContext,
        epsilon_tree: float,
        clock: Clock,
        key: tuple = (),
        bins: Callable[[float], Hashable | None] | None = None,
    ) -> None:
        self.cfg = cfg
        self._ctx = ctx
        self._key = ("hh",) + tuple(key)
        self.epsilon_tree = float(epsilon_tree)
        self.gamma2, self._floor = noise_floor(
            cfg.T, self.epsilon_tree, cfg.eta, cfg.gamma2_factor, ctx.noise_off
        )
        self.gamma1 = 4 * INNER_BUCKETS * self.gamma2**2 / ETA_F2
        self.report_cap = cfg.report_cap
        self._bar_divisor = 25 * cfg.phi * cfg.k
        self._h = PolyHashFamily(2, cfg.m, ctx.child_seed(*self._key, "route"))
        self._clock = clock
        self._sketches: dict[int, CountSketchState] = {}
        self._prefixes: tuple[int, int] | None = None
        self._route_cache: dict[int, int] = {}
        self.candidates: dict[int, float] = {}
        if bins is not None and self.report_cap < cfg.T:
            raise ValueError(f"bins need report_cap >= T={cfg.T}, got {self.report_cap}")
        self._bins = bins
        self._by_substream: dict[int, set[int]] = {}
        self._bin_counts: dict = {}

    @property
    def t(self) -> int:
        return self._clock.t

    def _substream(self, idx: int) -> CountSketchState:
        sketch = self._sketches.get(idx)
        if sketch is None:
            if self._prefixes is None:  # folded here, so setup folds nothing
                self._prefixes = CountSketchState.key_folds(self._ctx, self._key + ("sub",))
            child, own = self._prefixes
            sketch = CountSketchState(
                INNER_BUCKETS,
                self.epsilon_tree,
                BinaryTreeMechanism.bank(self.cfg.T, self._ctx, self._clock),
                (fold_on(child, (idx,)), fold_on(own, (idx,))),
            )
            self._sketches[idx] = sketch
        return sketch

    def _route(self, ident: int) -> int:
        idx = self._route_cache.get(ident)
        if idx is None:
            idx = self._h(ident)
            self._route_cache[ident] = idx
        return idx

    def _passes(self, sketch: CountSketchState, ident: int) -> float | None:
        """ident's estimate in its substream's ``sketch`` if it is a candidate."""
        f_hat = sketch.point_query(ident)
        floor = self._floor
        if f_hat * f_hat < floor:
            return None  # the F2 term can only raise the bar
        # the sketch's bank memoises its full read for the timestamp
        bar = (sketch.f2().value + self.gamma1) / self._bar_divisor + floor
        if f_hat * f_hat >= bar:
            return f_hat
        return None

    def ingest(self, e: StreamEvent) -> None:
        """Take the current timestamp's event and refresh candidacy, skipping
        the report."""
        if e.is_element():
            arrived = e.value
            idx = self._route(arrived)
            sketch = self._substream(idx)
            sketch.ingest(e)
        elif e.is_integer():
            raise ValueError("heavy-hitter detection requires an elements-mode stream")
        else:
            arrived = None
        if self._bins is not None:
            if arrived is not None:
                held = self._by_substream.get(idx)
                for b in (held | {arrived}) if held else (arrived,):
                    self._rebin(b, idx, self._passes(sketch, b))
            return
        retest = set(self.candidates)
        if arrived is not None:
            retest.add(arrived)
        for b in retest:
            f_hat = self._passes(self._substream(self._route(b)), b)
            if f_hat is None:
                self.candidates.pop(b, None)
            else:
                self.candidates[b] = f_hat

    def _rebin(self, b: int, idx: int, f_new: float | None) -> None:
        """Set b's estimate (None: not a candidate), moving it between bins."""
        f_old = self.candidates.get(b)
        if f_new == f_old:
            return
        held = self._by_substream.setdefault(idx, set())
        if f_old is not None:
            self._tally(f_old, -1)
        if f_new is None:
            del self.candidates[b]
            held.discard(b)
        else:
            self.candidates[b] = f_new
            held.add(b)
            self._tally(f_new, 1)

    def _tally(self, f_hat: float, step: int) -> None:
        slot = self._bins(f_hat)
        if slot is not None:
            count = self._bin_counts.get(slot, 0) + step
            if count:
                self._bin_counts[slot] = count
            else:
                del self._bin_counts[slot]

    def report(self) -> dict:
        """Top candidates by estimate, ties favouring the smaller element id;
        with ``bins``, how many candidates each bin holds (the live count,
        not to be changed by the caller)."""
        if self._bins is not None:
            return self._bin_counts
        top = heapq.nsmallest(
            self.report_cap, self.candidates.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return dict(top)

    def current(self) -> dict[int, float]:
        return self.report()


def union_median(reports: list[dict[int, float]]) -> dict[int, float]:
    """Every element some copy reports, at the interpolated median of its copies'
    estimates: the lower median would bias it low whenever an even number of
    copies report it."""
    union: dict[int, list[float]] = {}
    for rep in reports:
        for ident, f_hat in rep.items():
            union.setdefault(ident, []).append(f_hat)
    return {ident: statistics.median(vals) for ident, vals in union.items()}


def hh_estimator(cfg: HHConfig, ctx: NoiseContext) -> BoostedEstimator:
    """Boosted heavy hitters: :class:`HHSketch` copies on the bank's clock,
    combined by :func:`union_median`.  A copy's trees run at epsilon/copies
    over the substream and bucket sensitivities; each substream sketch builds
    its own bank, so a copy takes no lanes of the shared one."""

    def build(c: int, copy_ctx: NoiseContext, eps: float, bank: BinaryTreeMechanism):
        return HHSketch(cfg, copy_ctx, tree_epsilon(eps), bank.clock, key=(c,))

    return BoostedEstimator(cfg, ctx, "hh-copy", build, union_median)


def recall_threshold(cfg: HHConfig, sketch: HHSketch) -> float:
    """Recall threshold of heavy hitters boosted from copies like ``sketch``:
    frequencies above it are reported w.h.p.

    The larger of the theory form (1/(eps*eta)) * ln^C(Tkn/(xi*eta)),
    C = ``TAU_LOG_POWER``, and 4*sqrt(gamma1/(phi k) + floor), with the
    sketch's :func:`noise_floor`.
    """
    theory = (
        1.0
        / (cfg.epsilon * cfg.eta)
        * math.log(cfg.T * cfg.k * cfg.n / (cfg.xi * cfg.eta)) ** TAU_LOG_POWER
    )
    floor = 4.0 * math.sqrt(sketch.gamma1 / (cfg.phi * cfg.k) + sketch._floor)
    return max(theory, floor)
