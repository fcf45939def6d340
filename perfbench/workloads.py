"""The four benchmark workloads: stream shape, estimator, tick and exact check.

Each workload is a closed loop with one client: the next event is fed only
after the previous tick's release has been read.  A tick returns False when a
release it read is not finite.  ``check(events, T)`` replays the stream on a
noise-off twin of the estimator and compares it with exact oracles at every
read where the relation holds exactly; it returns (ticks checked, ticks
failed).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable

from dpsketch import (
    GroupingMechanism,
    L2Config,
    L2Estimator,
    MomentConfig,
    NoiseContext,
    SmallUniverseDistinct,
    SmoothnessParams,
    moment_estimator,
    window_estimator,
)
from dpsketch.sliding import default_max_live

NOISE_SEED = 7
ZIPF_S = 1.2
BULK_READ_EVERY = 512


def _untraced(key: str, fn):
    return fn


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    T: int
    tiny_T: int
    # build(T, ctx, instrument) -> estimator; instrument(key, fn) may wrap the
    # benchmark's own callables for the traced run
    build: Callable
    tick: Callable
    check: Callable


# --------------------------------------------------------------------------
# moment-tick / moment-bulk
# --------------------------------------------------------------------------


def _moment_config(T: int) -> MomentConfig:
    return MomentConfig(p=2, epsilon=1.0, eta=0.25, xi=0.1, T=T, n=1024, copies=3)


def _build_moment(T: int, ctx: NoiseContext, instrument=_untraced):
    return moment_estimator(_moment_config(T), ctx)


def _moment_tick(est, t, e, out) -> bool:
    est.ingest(e)
    value = est.current()
    out.append(value)
    return math.isfinite(value)


def _moment_bulk_tick(est, t, e, out) -> bool:
    est.ingest(e)
    if t % BULK_READ_EVERY:
        return True
    value = est.current()
    out.append(value)
    return math.isfinite(value)


def _moment_check(read_every: int):
    def check(events, T: int) -> tuple[int, int]:
        # the noise-off twin keeps the noisy run's low-frequency cutoff, so
        # the checked counter block has the timed run's width
        noisy = _build_moment(T, NoiseContext(NOISE_SEED)).copies[0]
        cfg = replace(noisy.cfg, tau=noisy.shape.tau)
        est = moment_estimator(cfg, NoiseContext(NOISE_SEED, noise_off=True))
        freq: dict[int, int] = {}
        by_freq = [0] * (len(events) + 2)  # by_freq[j] = #elements of frequency j
        failed = 0
        for t, e in enumerate(events, start=1):
            if e.is_element():
                j = freq.get(e.value, 0) + 1
                freq[e.value] = j
                by_freq[j - 1] -= 1
                by_freq[j] += 1
            try:
                est.ingest(e)
                if t % read_every == 0 and any(
                    state.low_freq.current() != by_freq[1 : state.low_freq.k + 1]
                    for state in est.copies
                ):
                    failed += 1
            except Exception:  # a raising tick is a failed tick
                failed += 1
        return len(events), failed

    return check


# --------------------------------------------------------------------------
# f2-wide
# --------------------------------------------------------------------------


def _build_f2(T: int, ctx: NoiseContext, instrument=_untraced):
    cfg = L2Config(epsilon=1.0, eta=0.2, xi=0.1, n=4096, T=T, copies=3, buckets=512)
    return L2Estimator(cfg, ctx)


def _f2_tick(est, t, e, out) -> bool:
    est.feed(e)
    f2 = est.f2()
    point = est.point_query(0)
    out.append(f2)
    out.append(point)
    return math.isfinite(f2) and math.isfinite(point)


def _f2_check(events, T: int) -> tuple[int, int]:
    est = _build_f2(T, NoiseContext(NOISE_SEED, noise_off=True))
    sketches = est.copies
    sums = [[0] * s.k for s in sketches]
    squares = [0] * len(sketches)
    failed = 0
    for e in events:
        if e.is_element():
            for c, s in enumerate(sketches):
                b = s.h(e.value)
                old = sums[c][b]
                new = old + s.g(e.value)
                sums[c][b] = new
                squares[c] += new * new - old * old
        try:
            est.feed(e)
            if any(
                s.f2().value != squares[c] or s.point_query(0) != s.g(0) * sums[c][s.h(0)]
                for c, s in enumerate(sketches)
            ):
                failed += 1
        except Exception:  # a raising tick is a failed tick
            failed += 1
    return len(events), failed


# --------------------------------------------------------------------------
# window-distinct
# --------------------------------------------------------------------------

WINDOW = 64
WINDOW_EPSILON = 8.0
WINDOW_ETA = WINDOW_XI = 0.1
WINDOW_UNIVERSE = 256


def _build_window(T: int, ctx: NoiseContext, instrument=_untraced):
    params = SmoothnessParams.for_moment(0.0, WINDOW_ETA)
    eps_instance = WINDOW_EPSILON / default_max_live(T, params.beta)

    def grouping(horizon: int, eps: float, child: NoiseContext) -> GroupingMechanism:
        # distinct counting feeds an indicator stream of sensitivity 5
        return GroupingMechanism(horizon, eps / 5, WINDOW_ETA, WINDOW_XI, child)

    # the shift comes from the inner mechanism actually used, at its
    # per-instance epsilon
    gamma = grouping(T, eps_instance, ctx.child("probe")).error_bound()

    def inner(start_t: int, eps: float) -> SmallUniverseDistinct:
        child = ctx.child("sliding", start_t)
        return SmallUniverseDistinct(WINDOW_UNIVERSE, grouping(T - start_t + 1, eps, child))

    hist, budget = window_estimator(
        instrument("sliding.construct", inner),
        params,
        WINDOW,
        T,
        WINDOW_EPSILON,
        inner_alpha=1.0 + WINDOW_ETA,
        inner_gamma=gamma,
    )
    if not math.isclose(budget.per_instance_epsilon, eps_instance):
        raise RuntimeError("window budget disagrees with the per-instance epsilon")
    return hist


def _window_tick(hist, t, e, out) -> bool:
    value = hist.feed(e)
    out.append(value)
    return math.isfinite(value)


def _window_check(events, T: int) -> tuple[int, int]:
    hist = _build_window(T, NoiseContext(NOISE_SEED, noise_off=True))
    recent: deque = deque()
    counts: dict[int, int] = {}
    failed = 0
    for e in events:
        recent.append(e)
        if e.is_element():
            counts[e.value] = counts.get(e.value, 0) + 1
        if len(recent) > WINDOW:
            old = recent.popleft()
            if old.is_element():
                left = counts[old.value] - 1
                if left:
                    counts[old.value] = left
                else:
                    del counts[old.value]
        try:
            if not 0.0 <= hist.feed(e) <= len(counts):
                failed += 1
        except Exception:  # a raising tick is a failed tick
            failed += 1
    return len(events), failed


# Each workload makes a different layer dominate; BENCHMARK.json gives the
# one-line reason for each.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("moment-tick", 1024, 4096, 256, _build_moment, _moment_tick, _moment_check(1)),
        Workload(
            "moment-bulk", 1024, 8192, 1024, _build_moment, _moment_bulk_tick,
            _moment_check(BULK_READ_EVERY),
        ),
        Workload("f2-wide", 4096, 1024, 64, _build_f2, _f2_tick, _f2_check),
        Workload(
            "window-distinct", WINDOW_UNIVERSE, 1 << 17, 2048, _build_window,
            _window_tick, _window_check,
        ),
    )
}
