import math

import pytest

from dpsketch.heavy_hitters import (
    REEVAL_SUBSTREAM,
    TAU_LOG_POWER,
    HHConfig,
    HHSketch,
    hh_estimator,
    recall_threshold,
)
from dpsketch.randomness import NoiseContext
from dpsketch.summing import Clock
from dpsketch.streams import (
    StreamConfig,
    element,
    exact_frequencies,
    exact_heavy_hitters,
    generate_stream,
)


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


class TestReevalPolicies:
    def test_substream_policy_tracks_all_policy_noise_off(self):
        # with exact backends the sticky policy converges to the same final
        # report on arrival-dense streams
        stream = generate_stream("zipf", StreamConfig(T=256, n=16), seed=9, s=1.3)
        reports = {}
        for policy in ("all", REEVAL_SUBSTREAM):
            cfg = hh_config(k=4, T=256, n=16, reeval=policy)
            clock = Clock(cfg.T)
            sketch = HHSketch(cfg, NoiseContext(77, noise_off=True), epsilon_tree=1.0, clock=clock)
            for e in stream:
                clock.tick()
                sketch.ingest(e)
                report = sketch.current()
            reports[policy] = report
        assert reports["all"] == reports[REEVAL_SUBSTREAM]

    def test_substream_ranking_and_bins_equal_a_scan_at_every_tick(self):
        # a report cap of 2 under many candidates and few substreams, so
        # entries cross the cap on admits, evictions and re-estimates; the
        # reference rescans every candidate and sorts them, as ingest and
        # report did before candidates were indexed by substream
        cfg = hh_config(k=1, T=512, n=32, epsilon=64.0, reeval=REEVAL_SUBSTREAM, m_override=3)
        clock = Clock(cfg.T)

        def bins(f_hat):
            return None if f_hat < 8 else int(f_hat) // 8

        # the same sketch without bins reports its top candidates themselves
        sketch = HHSketch(cfg, NoiseContext(5), epsilon_tree=16.0, clock=clock, bins=bins)
        plain = HHSketch(cfg, NoiseContext(5), epsilon_tree=16.0, clock=clock)
        assert sketch.report_cap == 2
        held, crowded = {}, 0
        for e in generate_stream("zipf", StreamConfig(T=512, n=32), seed=3, s=1.1):
            clock.tick()
            sketch.ingest(e)
            plain.ingest(e)
            idx = sketch._route(e.value)
            for b in {b for b in held if sketch._route(b) == idx} | {e.value}:
                f_hat = sketch._passes(b)
                if f_hat is None:
                    held.pop(b, None)
                else:
                    held[b] = f_hat
            assert sketch.candidates == held == plain.candidates
            ranked = sorted(held.items(), key=lambda kv: (-kv[1], kv[0]))
            want = dict(ranked[: sketch.report_cap])
            assert plain.report() == want
            counts = {}
            for f_hat in want.values():
                if bins(f_hat) is not None:
                    counts[bins(f_hat)] = counts.get(bins(f_hat), 0) + 1
            assert sketch.report() == counts
            crowded += len(held) > sketch.report_cap
        assert crowded > 100
