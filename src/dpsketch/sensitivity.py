"""The brute-force sensitivity checker.

A sensitivity check maps a stream to the derived streams a mechanism's
counters or sub-estimators receive, runs that mapping through the brute-force
oracle over every neighboring pair and a fixed set of hash seeds, and compares
the worst total distance with the claimed bound.  The derived streams come
from the mechanism's own code, not from a copy kept for the check:

- counter streams (``distinct-indicator``, ``lowfreq-counters``,
  ``countsketch-buckets``) run the real mechanism with noise off, where every
  counter output is its exact running sum, and take each tick's first
  difference;
- routed element streams (``hh-substreams``, ``subsample-levels``) send each
  element to the stream the estimator's own ``_route`` picks.

Each mapping is a function ``(events, n, T, seed, params) -> streams``;
``params`` holds the shape parameters a mapping reads (``k``, ``m``, ``L``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import countsketch, distinct, heavy_hitters, low_freq
from .countsketch import CountSketchState
from .distinct import SmallUniverseDistinct, SubsampleParams, SubsampledDistinct
from .heavy_hitters import HHConfig, HHSketch
from .low_freq import LowFreqSmall
from .randomness import NoiseContext
from .streams import EMPTY_EVENT, StreamEvent, element, integer, mapping_sensitivity
from .summing import BinaryTreeMechanism, Clock

DEFAULT_SENSITIVITY_SEEDS = tuple(range(101, 109))


@dataclass(frozen=True)
class SensitivityReport:
    mapping: str
    claimed: int
    observed: int
    aggregate: str
    seeds: tuple[int, ...]
    passed: bool

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{self.mapping}: observed={self.observed} claimed<={self.claimed} "
            f"({self.aggregate} over seeds {list(self.seeds)}) {verdict}"
        )


def _counter_streams(feed, read, events: Sequence[StreamEvent], clock=None) -> tuple:
    """The integer streams a bank of counters sums, one per counter.

    With noise off every counter output is its exact running sum, so the
    stream at each tick is the first difference of ``read()`` after
    ``feed(e)``, which follows a tick of the bank's ``clock`` when given.
    """
    rows, prev = [], 0.0
    for e in events:
        if clock is not None:
            clock.tick()
        feed(e)
        out = np.atleast_1d(read())
        rows.append(out - prev)
        prev = out
    return tuple([integer(int(x)) for x in col] for col in zip(*rows))


def _routed_streams(route, targets, events: Sequence[StreamEvent]) -> tuple:
    """One element stream per target: ``route(id)`` names the target and the
    event it receives; every other target receives the empty symbol."""
    streams = {i: [] for i in targets}
    for e in events:
        target, sent = route(e.value) if e.is_element() else (None, None)
        for i, stream in streams.items():
            stream.append(sent if i == target else EMPTY_EVENT)
    return tuple(streams.values())


def _identity_mapping(events, n, T, seed, params):
    return (list(events),)


def _indicator_mapping(events, n, T, seed, params):
    ctx = NoiseContext(seed, noise_off=True)
    d = SmallUniverseDistinct(n, BinaryTreeMechanism(T, 1.0, ctx))
    return _counter_streams(d.feed, d.current, events)


def _counter_mapping(events, n, T, seed, params):
    ctx, clock = NoiseContext(seed, noise_off=True), Clock(T)
    lfs = LowFreqSmall(n, params["k"], 1.0, ctx, BinaryTreeMechanism.bank(T, ctx, clock))
    return _counter_streams(lfs.ingest, lfs.current, events, clock)


def _bucket_mapping(events, n, T, seed, params):
    ctx, clock = NoiseContext(seed, noise_off=True), Clock(T)
    bank = BinaryTreeMechanism.bank(T, ctx, clock)
    cs = CountSketchState(params["k"], 1.0, bank, CountSketchState.key_folds(ctx, ()))
    return _counter_streams(cs.ingest, cs.outputs, events, clock)


def _substream_mapping(events, n, T, seed, params):
    k, m = params["k"], params["m"]
    cfg = HHConfig(p=2.0, k=k, eta=0.2, epsilon=1.0, xi=0.1, T=T, n=n, copies=1, m_override=m)
    sketch = HHSketch(cfg, NoiseContext(seed, noise_off=True), 1.0, Clock(T))
    return _routed_streams(lambda a: (sketch._route(a), element(a)), range(m), events)


def _level_mapping(events, n, T, seed, params):
    L = params["L"]
    ctx = NoiseContext(seed, noise_off=True)
    shape = SubsampleParams(L=L, lam=4, m=64, alpha=1.0, gamma=0.0, threshold=1.0)
    sub = SubsampledDistinct(shape, ctx, BinaryTreeMechanism.bank(T, ctx, Clock(T)), 1.0)

    def route(ident: int):
        level, hashed = sub._route(ident)
        return level, element(hashed)

    return _routed_streams(route, range(1, L + 1), events)


# name -> (mapping, claimed bound given the params, aggregate); each claim is
# the constant its mechanism divides epsilon by, read at check time
_MAPPINGS = {
    "identity": (_identity_mapping, lambda p: 1, "sum"),
    "distinct-indicator": (_indicator_mapping, lambda p: distinct.INDICATOR_SENSITIVITY, "sum"),
    "lowfreq-counters": (
        _counter_mapping,
        lambda p: low_freq.COUNTER_SENSITIVITY_PER_K * p["k"],
        "sum",
    ),
    "countsketch-buckets": (_bucket_mapping, lambda p: countsketch.BUCKET_SENSITIVITY, "sum"),
    "hh-substreams": (_substream_mapping, lambda p: heavy_hitters.SUBSTREAM_SENSITIVITY, "sum"),
    "subsample-levels": (_level_mapping, lambda p: 1, "joint"),
}


def sensitivity_mappings() -> list[str]:
    return sorted(_MAPPINGS)


def sensitivity_check(
    mapping_id: str,
    n: int,
    T: int,
    budget: int = 10_000_000,
    seeds: Sequence[int] = DEFAULT_SENSITIVITY_SEEDS,
    **params: int,
) -> SensitivityReport:
    """Exhaustively measure one mapping's sensitivity against its claim."""
    if mapping_id not in _MAPPINGS:
        raise ValueError(f"unknown mapping {mapping_id!r}; known: {sensitivity_mappings()}")
    if not seeds:
        raise ValueError("a sensitivity check needs at least one hash seed")
    if n < 1 or T < 1:  # no neighbouring pair to compare: a PASS would say nothing
        raise ValueError(f"n and T must be >= 1, got n={n}, T={T}")
    mapping, claim, aggregate = _MAPPINGS[mapping_id]
    mapped = [partial(mapping, n=n, T=T, seed=s, params=params) for s in seeds]
    observed = max(mapping_sensitivity(m, n, T, budget, aggregate) for m in mapped)
    claimed = claim(params)
    return SensitivityReport(
        mapping=mapping_id,
        claimed=claimed,
        observed=observed,
        aggregate=aggregate,
        seeds=tuple(seeds),
        passed=observed <= claimed,
    )
