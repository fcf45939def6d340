import math

import pytest

from dpsketch.countsketch import CountSketchState
from dpsketch.heavy_hitters import (
    INNER_BUCKETS,
    TAU_LOG_POWER,
    HHConfig,
    HHSketch,
    hh_estimator,
    recall_threshold,
)
from dpsketch.moment import MomentConfig, MomentState
from dpsketch.randomness import NoiseContext, PolyHashFamily
from dpsketch.summing import BinaryTreeMechanism, Clock
from dpsketch.streams import (
    StreamConfig,
    element,
    exact_frequencies,
    exact_heavy_hitters,
    generate_stream,
)

from standalone import bank_on_clock


def hh_config(**over):
    base = dict(p=2.0, k=4, eta=0.2, epsilon=1.0, xi=0.1, T=256, n=1 << 16, copies=1)
    base.update(over)
    return HHConfig(**base)


def exact_substream_values(sketch: HHSketch, frequencies: dict[int, int]) -> dict[int, float]:
    """Oracle: noiseless CountSketch value g(a)*z_{h(a)} for each element.

    It separates DP noise from hash-collision error.
    """
    totals: dict[tuple[int, int], float] = {}
    for ident, freq in frequencies.items():
        idx = sketch._route(ident)
        inner = sketch._substream(idx)
        bucket, sign = inner._route(ident)
        totals[(idx, bucket)] = totals.get((idx, bucket), 0.0) + sign * freq
    values = {}
    for ident in frequencies:
        idx = sketch._route(ident)
        inner = sketch._substream(idx)
        bucket, sign = inner._route(ident)
        values[ident] = sign * totals[(idx, bucket)]
    return values


class TestConfig:
    def test_phi(self):
        assert hh_config(p=0.0).phi == 1.0
        assert hh_config(p=2.0).phi == 1.0
        assert hh_config(p=4.0, n=1 << 16).phi == pytest.approx((1 << 16) ** 0.5)

    def test_m_and_cap(self):
        cfg = hh_config(k=4, eta=0.2, p=2.0)
        assert cfg.m == 160
        assert cfg.report_cap == math.floor((1.2 / 0.8) ** 2 * 4)

    def test_copies_formula(self):
        cfg = hh_config(copies=None, T=1024, xi=0.1, n=1 << 16)
        assert cfg.n_copies() == math.ceil(50 * (math.log(2 * 1024 / 0.1) + 16 * math.log(2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            hh_config(eta=0.6)
        with pytest.raises(ValueError):
            hh_config(k=0)


class TestNoiseOffSketch:
    def test_equal_heavies_recovered_exactly(self):
        # four elements at equal mass are all (1/4)-l2 heavy hitters; with
        # exact backends the report equals the exact heavy-hitter set
        cfg = hh_config(k=4, T=64, copies=1)
        clock = Clock(cfg.T)
        sketch = HHSketch(cfg, NoiseContext(2, noise_off=True), epsilon_tree=1.0, clock=clock)
        stream = [element(x % 4) for x in range(64)]
        report = {}
        for e in stream:
            clock.tick()
            sketch.ingest(e)
            report = sketch.current()
        table = exact_frequencies(stream)
        assert set(report) == exact_heavy_hitters(table, 2, 4) == {0, 1, 2, 3}
        assert all(report[a] == 16.0 for a in report)

    def test_planted_exact_estimate(self):
        cfg = hh_config(k=4, T=100)
        clock = Clock(cfg.T)
        sketch = HHSketch(cfg, NoiseContext(3, noise_off=True), epsilon_tree=1.0, clock=clock)
        stream = generate_stream(
            "planted_heavy", StreamConfig(T=100, n=64), seed=7, frac=0.6
        )
        for e in stream:
            clock.tick()
            sketch.ingest(e)
            report = sketch.current()
        table = exact_frequencies(stream)
        assert 0 in report
        # estimate differs from the truth only by inner-bucket collisions
        oracle = exact_substream_values(sketch, table.counts)
        assert report[0] == oracle[0]

    def test_report_respects_cap_and_presence(self):
        cfg = hh_config(k=2, T=128, eta=0.25)
        clock = Clock(cfg.T)
        sketch = HHSketch(cfg, NoiseContext(5, noise_off=True), epsilon_tree=1.0, clock=clock)
        stream = generate_stream("zipf", StreamConfig(T=128, n=64), seed=3, s=1.5)
        present = set()
        for e in stream:
            present.add(e.value)
            clock.tick()
            sketch.ingest(e)
            report = sketch.current()
            assert len(report) <= cfg.report_cap
            assert set(report) <= present

    def test_p0_reports_all_when_distinct_below_k(self):
        cfg = hh_config(p=0.0, k=4, T=30)
        clock = Clock(cfg.T)
        sketch = HHSketch(cfg, NoiseContext(8, noise_off=True), epsilon_tree=1.0, clock=clock)
        stream = [element(x % 3) for x in range(30)]
        for e in stream:
            clock.tick()
            sketch.ingest(e)
            report = sketch.current()
        assert set(report) == {0, 1, 2}
        assert all(report[a] == 10.0 for a in report)

    def test_ties_prefer_smaller_id(self):
        cfg = hh_config(p=0.0, k=1, T=8)  # cap = 1
        clock = Clock(cfg.T)
        sketch = HHSketch(cfg, NoiseContext(1, noise_off=True), epsilon_tree=1.0, clock=clock)
        clock.tick()
        sketch.ingest(element(7))
        clock.tick()
        sketch.ingest(element(2))
        report = sketch.current()
        assert list(report) == [2]


class TestNoisySketch:
    def test_uniform_light_stream_reports_nothing(self):
        # every frequency far below the candidacy floor: H stays empty
        cfg = hh_config(k=4, T=256, n=256)
        for seed in range(10):
            clock = Clock(cfg.T)
            sketch = HHSketch(cfg, NoiseContext(700 + seed), epsilon_tree=0.25, clock=clock)
            stream = generate_stream("uniform", StreamConfig(T=256, n=256), seed=seed)
            for e in stream:
                clock.tick()
                sketch.ingest(e)
                report = sketch.current()
            assert report == {}

    def test_planted_recovery_boosted(self):
        # scaled-down recall check: planted 60% of T=2^10, 3 copies; at this
        # short horizon the candidacy noise floor forces a larger epsilon
        # (the full-scale check runs in the acceptance suite at eps=1)
        T, trials = 2**10, 20
        cfg = hh_config(k=4, T=T, n=1 << 14, copies=3, epsilon=4.0)
        hits = 0
        for seed in range(trials):
            est = hh_estimator(cfg, NoiseContext(4000 + seed))
            stream = generate_stream(
                "planted_heavy", StreamConfig(T=T, n=1 << 14), seed=seed, frac=0.6
            )
            report = {}
            for e in stream:
                report = est.feed(e)
            f = exact_frequencies(stream)[0]
            if 0 in report and abs(report[0] - f) <= cfg.eta * f:
                hits += 1
        assert hits >= 0.9 * trials

    def test_union_cap(self):
        cfg = hh_config(k=2, T=64, copies=3)
        est = hh_estimator(cfg, NoiseContext(9))
        stream = generate_stream("zipf", StreamConfig(T=64, n=32), seed=4, s=1.4)
        for e in stream:
            report = est.feed(e)
            assert len(report) <= len(est.copies) * cfg.report_cap

    def test_determinism(self):
        cfg = hh_config(k=2, T=64, copies=2)
        stream = generate_stream("zipf", StreamConfig(T=64, n=32), seed=6, s=1.2)
        runs = []
        for _ in range(2):
            est = hh_estimator(cfg, NoiseContext(123))
            outs = [sorted(est.feed(e).items()) for e in stream]
            runs.append(outs)
        assert runs[0] == runs[1]

    def test_tau_invariant(self):
        cfg = hh_config(T=1024, n=1 << 10, copies=2)
        est = hh_estimator(cfg, NoiseContext(0))
        theory = (1 / (cfg.epsilon * cfg.eta)) * math.log(
            cfg.T * cfg.k * cfg.n / (cfg.xi * cfg.eta)
        ) ** TAU_LOG_POWER
        assert recall_threshold(cfg, est.copies[0]) >= theory


def bin_counts(candidates: dict[int, float], bins) -> dict:
    counts = {}
    for f_hat in candidates.values():
        slot = bins(f_hat)
        if slot is not None:
            counts[slot] = counts.get(slot, 0) + 1
    return counts


def bins_of_8(f_hat):
    return None if f_hat < 8 else int(f_hat) // 8


class TestLevelRole:
    """A sketch given bins (a moment level) retests the arriving substream's
    candidates only and reports how many candidates each bin holds."""

    def test_binned_candidates_equal_the_plain_ones_noise_off(self):
        # with noise off an estimate moves only with its substream's
        # arrivals, so retesting that substream alone keeps every candidate
        # a full retest keeps; few substreams make admits and evictions mix
        cfg = hh_config(k=256, T=512, n=32, m_override=2)
        clock = Clock(cfg.T)
        ctx = NoiseContext(77, noise_off=True)
        binned = HHSketch(cfg, ctx, epsilon_tree=1.0, clock=clock, bins=bins_of_8)
        plain = HHSketch(cfg, ctx, epsilon_tree=1.0, clock=clock)
        evictions = 0
        for e in generate_stream("zipf", StreamConfig(T=512, n=32), seed=9, s=1.1):
            before = set(plain.candidates)
            clock.tick()
            binned.ingest(e)
            plain.ingest(e)
            assert binned.candidates == plain.candidates
            assert binned.report() == bin_counts(plain.candidates, bins_of_8)
            evictions += len(before - set(plain.candidates))
        assert evictions > 10

    def test_binned_candidates_and_bins_equal_a_substream_rescan(self):
        # the reference rescans every candidate for the arriving substream,
        # as ingest did before candidates were indexed by substream
        cfg = hh_config(k=256, T=512, n=32, epsilon=64.0, m_override=3)
        clock = Clock(cfg.T)
        sketch = HHSketch(cfg, NoiseContext(5), epsilon_tree=16.0, clock=clock, bins=bins_of_8)
        held, moved = {}, 0
        for e in generate_stream("zipf", StreamConfig(T=512, n=32), seed=3, s=1.1):
            clock.tick()
            sketch.ingest(e)
            idx = sketch._route(e.value)
            before = dict(held)
            for b in {b for b in held if sketch._route(b) == idx} | {e.value}:
                f_hat = sketch._passes(sketch._substream(idx), b)
                if f_hat is None:
                    held.pop(b, None)
                else:
                    held[b] = f_hat
            assert sketch.candidates == held
            assert sketch.report() == bin_counts(held, bins_of_8)
            moved += bin_counts(before, bins_of_8) != bin_counts(held, bins_of_8)
        assert moved > 100

    def test_bins_need_a_report_cap_of_at_least_T(self):
        cfg = hh_config(k=4, T=256)
        assert cfg.report_cap < cfg.T
        with pytest.raises(ValueError, match="report_cap"):
            HHSketch(cfg, NoiseContext(1), epsilon_tree=1.0, clock=Clock(cfg.T), bins=bins_of_8)
        HHSketch(cfg, NoiseContext(1), epsilon_tree=1.0, clock=Clock(cfg.T))  # plain: any cap
        for p in (0.0, 0.5, 1.0, 2.0, 3.0):
            for eta in (0.05, 0.25, 0.49):
                for T in (64, 4096, 10**7):
                    cfg = MomentConfig(p=p, epsilon=1.0, eta=eta, xi=0.1, T=T, n=T, copies=1)
                    ctx = NoiseContext(1)
                    state = MomentState(cfg, ctx, 0.25, bank_on_clock(T, ctx))
                    assert all(level.report_cap > T for level in state.hh)


class TestSubstreamKeys:
    """A sketch's substreams take their keys from prefixes it folds once; each
    substream sketch must equal the one built from its full key."""

    def check(self, levels, advance, receivers, T, n):
        # references on a clock of their own, each built from the full key
        # and fed the arrivals routed to its substream
        clock = Clock(T)
        refs = [{} for _ in levels]
        members = [{} for _ in levels]
        for e in generate_stream("zipf", StreamConfig(T=T, n=n), seed=2, s=1.2):
            clock.tick()
            advance(e)
            for i in receivers(e) if e.is_element() else ():
                level = levels[i]
                idx = level._route(e.value)
                ref = refs[i].get(idx)
                if ref is None:
                    key = level._key + ("sub", idx)
                    ref = refs[i][idx] = CountSketchState(
                        INNER_BUCKETS,
                        level.epsilon_tree,
                        BinaryTreeMechanism.bank(T, level._ctx, clock),
                        CountSketchState.key_folds(level._ctx, key),
                    )
                    seeds = [level._ctx.child_seed("cs", *key, part) for part in ("h", "g")]
                    assert ref.h.coefficients == PolyHashFamily(4, INNER_BUCKETS, seeds[0]).coefficients
                    assert ref.g._base.coefficients == PolyHashFamily(4, 2, seeds[1]).coefficients
                ref.ingest(e)
                members[i].setdefault(idx, set()).add(e.value)
            for level, ref_of, member_of in zip(levels, refs, members):
                assert level._sketches.keys() == ref_of.keys()
                for idx, sketch in level._sketches.items():
                    ref, ids = ref_of[idx], sorted(member_of[idx])
                    assert sketch.h.coefficients == ref.h.coefficients
                    assert sketch.g._base.coefficients == ref.g._base.coefficients
                    assert [sketch.point_query(b) for b in ids] == [ref.point_query(b) for b in ids]
        return sum(len(ref_of) for ref_of in refs)

    def test_moment_level_sketches_equal_full_key_sketches(self):
        T, n = 256, 64
        cfg = MomentConfig(p=2.0, epsilon=64.0, eta=0.25, xi=0.1, T=T, n=n, copies=1, tau=4.0)
        ctx = NoiseContext(3).child("moment-copy", 0)
        bank = bank_on_clock(T, ctx)
        state = MomentState(cfg, ctx, 16.0, bank)

        def advance(e):
            bank.clock.tick()
            state.ingest(e)

        def receivers(e):
            level = state._route(e.value)[0]
            return (0,) if level is None else (0, level)

        assert self.check(state.hh, advance, receivers, T, n) > 60

    def test_hh_estimator_copy_sketches_equal_full_key_sketches(self):
        T, n = 256, 64
        cfg = hh_config(k=4, T=T, n=n, copies=2, epsilon=4.0)
        est = hh_estimator(cfg, NoiseContext(8))
        built = self.check(est.copies, est.ingest, lambda e: range(len(est.copies)), T, n)
        assert built > 40
