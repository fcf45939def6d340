import pytest

from dpsketch.budget import copy_count
from dpsketch.low_freq import (
    LowFreqConfig,
    LowFreqGeneral,
    SubsampleLowFreqParams,
    low_freq_block,
    lowfreq_estimator,
    subsample_lowfreq_params,
)
from dpsketch.sensitivity import _counter_mapping
from dpsketch.moment import MomentConfig, moment_estimator
from dpsketch.randomness import NoiseContext
from dpsketch.streams import (
    EMPTY_EVENT,
    StreamConfig,
    element,
    exact_frequencies,
    generate_stream,
)

from standalone import bank_on_clock, standalone_lowfreq

def lfs(m, k, T, seed=0, noise_off=True, epsilon=1.0):
    return standalone_lowfreq(m, k, T, epsilon, NoiseContext(seed, noise_off=noise_off))


def exact_freq_counts(stream, k):
    table = exact_frequencies(stream)
    return [sum(1 for c in table.counts.values() if c == j) for j in range(1, k + 1)]


class TestLowFreqSmall:
    def test_mixed_frequencies(self):
        d = lfs(8, 2, 3)
        d.ingest(element(0))
        d.ingest(element(1))
        d.ingest(element(0))
        assert d.current() == [1.0, 1.0]

    def test_frequency_exits_tracked_range(self):
        d = lfs(8, 2, 3)
        d.ingest(element(0))
        d.ingest(element(0))
        d.ingest(element(0))
        assert d.current() == [0.0, 0.0]

    def test_empty_events_ignored(self):
        d = lfs(4, 2, 4)
        d.ingest(EMPTY_EVENT)
        d.ingest(element(1))
        assert d.current() == [1.0, 0.0]

    def test_matches_oracle_on_random_stream(self):
        T, n, k = 256, 16, 3
        stream = generate_stream("uniform", StreamConfig(T=T, n=n), seed=5)
        d = lfs(n, k, T)
        for t, e in enumerate(stream, start=1):
            d.ingest(e)
            values = d.current()
            assert values == [float(x) for x in exact_freq_counts(stream[:t], k)]

    def test_sum_bounded_by_distinct(self):
        T, n, k = 200, 12, 4
        stream = generate_stream("zipf", StreamConfig(T=T, n=n), seed=2, s=1.1)
        d = lfs(n, k, T)
        distinct = set()
        for e in stream:
            if e.is_element():
                distinct.add(e.value)
            d.ingest(e)
            values = d.current()
            assert sum(values) <= len(distinct)

    def test_noisy_counters_within_tree_bound(self):
        # eps=1 split over 8k counters, T=2^10, n=32, k=4
        T, n, k, eps = 2**10, 32, 4, 1.0
        trials, ok = 40, 0
        for seed in range(trials):
            stream = generate_stream("uniform", StreamConfig(T=T, n=n), seed=seed)
            d = standalone_lowfreq(n, k, T, eps / (8 * k), NoiseContext(3000 + seed))
            bound = d.counters.error_bound(0.1 / k)
            good = True
            for t, e in enumerate(stream, start=1):
                d.ingest(e)
                values = d.current()
                exact = exact_freq_counts(stream[:t], k)
                if any(abs(v - x) > bound for v, x in zip(values, exact)):
                    good = False
                    break
            ok += good
        assert ok >= 0.9 * trials

    def test_negative_estimates_are_reported(self):
        # no clamping: with noise the counters can dip below zero
        d = standalone_lowfreq(8, 2, 64, 0.01, NoiseContext(12))
        saw_negative = False
        for x in range(64):
            d.ingest(element(x % 8))
            values = d.current()
            saw_negative = saw_negative or any(v < 0 for v in values)
        assert saw_negative

    def test_derived_streams(self):
        # the sensitivity checker's counter streams for one element arriving
        # three times: +1 into its new frequency, -1 out of its old one
        streams = _counter_mapping([element(0)] * 3, n=4, T=3, seed=0, params={"k": 2})
        assert [x.value for x in streams[0]] == [1, -1, 0]
        assert [x.value for x in streams[1]] == [0, 1, -1]


class _ExactDistinct:
    """Stub distinct backend with an exact count."""

    def __init__(self):
        self.seen = set()

    def ingest(self, e):
        if e.is_element():
            self.seen.add(e.value)

    def current(self):
        return float(len(self.seen))


class TestLowFreqGeneral:
    def _build(self, k, T, floor, seed=0, L=3):
        params = SubsampleLowFreqParams(
            L=L, lam=4, m=1 << 30, gamma1=0.0, selection_floor=floor
        )
        ctx = NoiseContext(seed, noise_off=True)
        # the L level blocks are windows of a bank at epsilon 1, ticked here
        bank = bank_on_clock(T, ctx)
        return LowFreqGeneral(params, k, 1.0, ctx, _ExactDistinct(), bank), bank

    def test_zero_output_below_floor(self):
        gen, bank = self._build(k=2, T=16, floor=100.0)
        for x in range(10):
            bank.clock.tick()
            gen.ingest(element(x))
            assert gen.current() == [0.0, 0.0]

    def test_level_scaling_on_all_distinct(self):
        gen, bank = self._build(k=2, T=64, floor=2.0, seed=11)
        out = None
        for x in range(64):
            bank.clock.tick()
            gen.ingest(element(x))
            out = gen.current()
        d = gen.d_hat.current()
        i_star = max(i for i in range(1, gen.params.L + 1) if 2**i * 2.0 <= d)
        expected = [v * 2.0**i_star for v in gen.levels[i_star - 1].current()]
        assert out == expected

    def test_ingest_leaves_the_distinct_estimate_uncombined(self):
        # ingest advances the distinct estimate's copies; only current()
        # takes their median
        bank = bank_on_clock(64, NoiseContext(4))
        gen = low_freq_block(1 << 15, 2, 64, 0.25, 1.0, 0.1, NoiseContext(4), bank)
        combine, calls = gen.d_hat.combiner, []
        gen.d_hat.combiner = lambda values: calls.append(values) or combine(values)
        for x in range(16):
            bank.clock.tick()
            gen.ingest(element(x))
        assert calls == []
        gen.current()
        assert len(calls) == 1

    def test_pairs_stream(self):
        # every element appears exactly twice: only s_2 grows
        gen, bank = self._build(k=2, T=64, floor=1.0, seed=3)
        out = None
        for x in range(32):
            bank.clock.tick()
            gen.ingest(element(x))
            bank.clock.tick()
            gen.ingest(element(x))
            out = gen.current()
        assert out[0] == 0.0 or out[0] < out[1] or out[1] >= 0.0
        # the scaled level-2 count tracks the pair count within sampling error
        d = gen.d_hat.current()
        assert d == 32.0

    def test_spec_parameter_shapes(self):
        p = subsample_lowfreq_params(n=1 << 20, T=1 << 13, k=2, eta=0.25, gamma1=50.0)
        assert p.L == 13
        assert p.lam == 22
        assert p.selection_floor == pytest.approx(64 * 22 / 0.0625)


class TestLowFreqEstimator:
    def test_default_copies(self):
        # ceil(50 ln(3*1024/0.1)) = 517
        assert copy_count(None, 1024, 0.1, c=3) == 517

    def test_ledger_total(self):
        cfg = LowFreqConfig(epsilon=1.0, eta=0.25, xi=0.1, k=2, n=64, T=32, copies=4)
        est = lowfreq_estimator(cfg, NoiseContext(0))
        assert est.budget.epsilon_allocated == 1.0

    def test_small_universe_noise_off_exact(self):
        cfg = LowFreqConfig(epsilon=1.0, eta=0.25, xi=0.1, k=3, n=32, T=128, copies=3)
        est = lowfreq_estimator(cfg, NoiseContext(1, noise_off=True))
        stream = generate_stream("uniform", StreamConfig(T=128, n=32), seed=9)
        for t, e in enumerate(stream, start=1):
            values = est.feed(e)
            assert values == [float(x) for x in exact_freq_counts(stream[:t], 3)]

    def test_general_universe_zero_at_small_scale(self):
        # with the spec selection floor, desk-scale distinct counts stay below
        # the cutoff and the general estimator reports zeros
        cfg = LowFreqConfig(
            epsilon=1.0, eta=0.25, xi=0.1, k=2, n=1 << 20, T=32, copies=2
        )
        est = lowfreq_estimator(cfg, NoiseContext(2, noise_off=True))
        for x in range(32):
            values = est.feed(element(x))
        assert values == [0.0, 0.0]

    @pytest.mark.parametrize("noise_off", [True, False])
    def test_general_universe_release_within_eta_of_exact(self, noise_off):
        # 20,731 distinct elements: d_hat at the block's eta clears its
        # selection threshold, so the last release is the subsampling estimate
        n = T = 1 << 15
        cfg = LowFreqConfig(epsilon=64.0, eta=0.45, xi=0.1, k=4, n=n, T=T, copies=3)
        est = lowfreq_estimator(cfg, NoiseContext(1, noise_off=noise_off))
        stream = generate_stream("uniform", StreamConfig(T=T, n=n), seed=1)
        for e in stream:
            est.ingest(e)
        for s_hat, exact in zip(est.current(), exact_freq_counts(stream, 4)):
            assert (1 - cfg.eta) * exact <= s_hat <= (1 + cfg.eta) * exact

    def test_determinism(self):
        cfg = LowFreqConfig(epsilon=1.0, eta=0.25, xi=0.1, k=2, n=64, T=64, copies=2)
        stream = generate_stream("zipf", StreamConfig(T=64, n=64), seed=3, s=1.2)
        a = lowfreq_estimator(cfg, NoiseContext(21))
        b = lowfreq_estimator(cfg, NoiseContext(21))
        assert [a.feed(e) for e in stream] == [b.feed(e) for e in stream]


def _general_block(factory, n, k, T, ctx):
    """A one-copy low-frequency or moment estimator and its LowFreqGeneral block."""
    if factory == "lowfreq":
        cfg = LowFreqConfig(epsilon=1.0, eta=0.25, xi=0.1, k=k, n=n, T=T, copies=1)
        est = lowfreq_estimator(cfg, ctx)
        return est, est.copies[0]
    cfg = MomentConfig(p=2.0, epsilon=1.0, eta=0.25, xi=0.1, T=T, n=n, copies=1, tau=k)
    est = moment_estimator(cfg, ctx)
    return est, est.copies[0].low_freq


class TestGeneralUniverseLevels:
    @pytest.mark.parametrize("factory", ["lowfreq", "moment"])
    def test_level_blocks_count_the_ids_routed_to_them(self, factory):
        # noise off, n = 2^15 > the small-universe limit: every level's counter
        # block holds the exact by-frequency counts of the ids hashed to it
        n, k, T = 1 << 15, 3, 400
        est, gen = _general_block(factory, n, k, T, NoiseContext(17, noise_off=True))
        assert isinstance(gen, LowFreqGeneral)
        stream = generate_stream("zipf", StreamConfig(T=T, n=n), seed=17, s=1.05)
        freq = {}
        for t, e in enumerate(stream, start=1):
            est.ingest(e)  # ticks the clock of the block's bank
            if e.is_element():
                freq[e.value] = freq.get(e.value, 0) + 1
            if t % 50:
                continue
            for i, block in enumerate(gen.levels, start=1):
                routed = [f for ident, f in freq.items() if gen._route(ident)[0] == i]
                assert block.current() == [routed.count(j) for j in range(1, block.k + 1)]
        assert sum(block.current()[0] > 0 for block in gen.levels) >= 2
        assert gen.levels[0].counters.t == T
