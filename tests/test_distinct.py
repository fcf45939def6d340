import math

import pytest

from dpsketch.budget import copy_count
from dpsketch.countsketch import L2Config, L2Estimator
from dpsketch.distinct import (
    GROUP,
    TREE,
    BoostedEstimator,
    DistinctConfig,
    SmallUniverseDistinct,
    SubsampleParams,
    SubsampledDistinct,
    distinct_estimator,
    subsample_params,
)
from dpsketch.heavy_hitters import HHConfig, hh_estimator
from dpsketch.low_freq import LowFreqConfig, lowfreq_estimator
from dpsketch.moment import MomentConfig, moment_estimator
from dpsketch.sensitivity import _indicator_mapping, _level_mapping
from dpsketch.randomness import GeometricLevelHash, NoiseContext, PolyHashFamily, median_boost
from dpsketch.streams import EMPTY_EVENT, StreamConfig, element, generate_stream, integer
from dpsketch.summing import GroupingMechanism, StateError, make_summing_backend

from standalone import Standalone, bank_on_clock


def su(m, T, seed=0, noise_off=True, variant=TREE, epsilon=1.0):
    ctx = NoiseContext(seed, noise_off=noise_off)
    inner = make_summing_backend(variant, T, epsilon, 0.25, 0.1, ctx)
    return SmallUniverseDistinct(m, inner)


class TestSmallUniverse:
    def test_noise_off_counts(self):
        d = su(8, 5)
        events = [element(0), element(1), element(0), EMPTY_EVENT, element(2)]
        assert [d.feed(e) for e in events] == [1, 2, 2, 2, 3]

    def test_all_empty(self):
        d = su(8, 4)
        assert [d.feed(EMPTY_EVENT) for _ in range(4)] == [0, 0, 0, 0]

    def test_out_of_universe(self):
        d = su(4, 4)
        with pytest.raises(ValueError):
            d.feed(element(4))

    def test_integer_rejected(self):
        d = su(4, 4)
        with pytest.raises(ValueError):
            d.feed(integer(1))

    def test_noisy_error_within_grouping_bound(self):
        # eps=1, T=2^10, n=64 random streams: additive error within the
        # grouping envelope in >= 90% of runs
        T, n, eps = 2**10, 64, 1.0
        cfg = StreamConfig(T=T, n=n)
        trials, ok = 50, 0
        for seed in range(trials):
            stream = generate_stream("uniform", cfg, seed=seed)
            ctx = NoiseContext(7000 + seed)
            inner = GroupingMechanism(T, eps / 5, 0.25, 0.1, ctx)
            d = SmallUniverseDistinct(n, inner)
            gamma = inner.error_bound()
            seen: set[int] = set()
            good = True
            for e in stream:
                if e.is_element():
                    seen.add(e.value)
                est = d.feed(e)
                exact = len(seen)
                if not ((1 - 0.25) * exact - gamma <= est <= (1 + 0.25) * exact + gamma):
                    good = False
                    break
            ok += good
        assert ok >= 0.9 * trials

    def test_indicator_stream_recorded(self):
        # the sensitivity checker's indicator stream: 1 on a fresh element
        events = [element(1), element(1), EMPTY_EVENT, element(2)]
        (stream,) = _indicator_mapping(events, n=4, T=4, seed=0, params={})
        assert [x.value for x in stream] == [1, 0, 0, 1]


def forced_level_seed(n_elems, level, L, lam, base_seed=0):
    """Smallest context seed whose level hash sends ids 0..n_elems-1 to `level`."""
    for seed in range(base_seed, base_seed + 20_000):
        g = GeometricLevelHash(L, lam, NoiseContext(seed).child_seed("subsample-g"))
        if all(g.level(x) == level for x in range(n_elems)):
            return seed
    raise AssertionError("no forcing seed found")


def subsampled(params, ctx, T):
    """A subsampled estimator at epsilon 1 on tree lanes of a bank of its
    own, whose clock ``ingest`` ticks."""
    bank = bank_on_clock(T, ctx)
    return Standalone(SubsampledDistinct(params, ctx, bank, 1.0), bank)


class TestSubsampled:
    def test_zero_when_below_threshold(self):
        # all elements forced to level 1, distinct count below the selection
        # threshold: the estimator must output 0
        params = SubsampleParams(L=3, lam=4, m=1 << 20, alpha=1.0, gamma=0.0, threshold=50.0)
        seed = forced_level_seed(5, 1, params.L, params.lam)
        sub = subsampled(params, NoiseContext(seed, noise_off=True), 32)
        for x in range(5):
            sub.ingest(element(x))
            assert sub.current() == 0.0

    def test_selection_scales_level_count(self):
        # forced level, low threshold: output is the exact level count * 2^i
        params = SubsampleParams(L=3, lam=4, m=1 << 20, alpha=1.0, gamma=0.0, threshold=2.0)
        seed = forced_level_seed(6, 2, params.L, params.lam)
        sub = subsampled(params, NoiseContext(seed, noise_off=True), 32)
        out = 0.0
        for x in range(6):
            sub.ingest(element(x))
            out = sub.current()
        # collision check through the same public hash
        h = PolyHashFamily(2, params.m, NoiseContext(seed).child_seed("subsample-h"))
        assert len({h(x) for x in range(6)}) == 6
        assert out == 6 * 2**2

    def test_empty_and_dropped_elements_touch_no_level(self):
        # the sensitivity checker's level streams, under the level hash of
        # the subsampled estimator it builds (L=2, lam=4, seed 1)
        g = GeometricLevelHash(2, 4, NoiseContext(1).child_seed("subsample-g"))
        dropped = next(x for x in range(64) if g.level(x) is None)
        kept = next(x for x in range(64) if g.level(x) is not None)
        streams = _level_mapping(
            [EMPTY_EVENT, element(dropped), element(kept)], n=64, T=8, seed=1, params={"L": 2}
        )
        assert all(s[:2] == [EMPTY_EVENT, EMPTY_EVENT] for s in streams)
        assert [s[2] != EMPTY_EVENT for s in streams] == [g.level(kept) == i for i in (1, 2)]

    def test_determinism(self):
        params = subsample_params(n=1 << 16, T=256, eta=0.2, alpha=1.0, gamma=10.0)
        cfg = StreamConfig(T=256, n=1 << 16)
        stream = generate_stream("uniform", cfg, seed=5)
        outs = []
        for _ in range(2):
            sub = subsampled(params, NoiseContext(99), 256)
            run = []
            for e in stream:
                sub.ingest(e)
                run.append(sub.current())
            outs.append(run)
        assert outs[0] == outs[1]

    def test_output_form(self):
        # output is always s_hat * 2^i or 0 (noise off: integer level counts)
        params = SubsampleParams(L=4, lam=4, m=1 << 20, alpha=1.0, gamma=0.0, threshold=2.0)
        sub = subsampled(params, NoiseContext(3, noise_off=True), 128)
        for x in range(128):
            sub.ingest(element(x))
            out = sub.current()
            assert out >= 0
            if out:
                assert any(
                    out == s * 2**i
                    for i, s in enumerate(sub.level_outputs(), start=1)
                )


class TestSubsampleParams:
    def test_shape_formulas(self):
        p = subsample_params(n=2**20, T=2**13, eta=0.2, alpha=1.0, gamma=0.0)
        assert p.L == 13
        assert p.lam >= 4 and p.lam % 2 == 0
        assert p.threshold == pytest.approx(32 * 1.0 * p.lam / 0.04)
        assert p.m == math.ceil(100 * p.L * (16 * p.threshold) ** 2)

    def test_gamma_drives_threshold(self):
        p = subsample_params(n=1 << 16, T=1 << 10, eta=0.2, alpha=1.0, gamma=1e6)
        assert p.threshold == 1e6 / 0.2


class TestBoostedSubsampledEnvelope:
    @pytest.mark.parametrize("kind,n", [("all_distinct", 1 << 12), ("uniform", 16)])
    def test_boosted_output_within_lemma_envelope(self, kind, n):
        # the correctness lemma's second-case additive bound,
        # 32 alpha^2 max(gamma/eta, 32 alpha lam/eta^2), instantiated at a
        # reduced scale; at these stream lengths the selection threshold
        # exceeds the distinct count so the bound absorbs the full value
        T, eta = 2**10, 0.2
        cfg = DistinctConfig(
            epsilon=1.0, eta=eta, xi=0.1, n=max(n, T), T=T, variant=GROUP, copies=3
        )
        est = distinct_estimator(cfg, NoiseContext(5))
        params = est.copies[0].params
        envelope = 32 * params.alpha**2 * max(
            params.gamma / eta, 32 * params.alpha * params.lam / eta**2
        )
        stream = generate_stream(
            kind, StreamConfig(T=T, n=max(n, T) if kind == "all_distinct" else n),
            seed=2,
        )
        out = 0.0
        seen: set[int] = set()
        for e in stream:
            if e.is_element():
                seen.add(e.value)
            out = est.feed(e)
        exact = len(seen)
        alpha = (1 + 4 * eta) * params.alpha
        assert exact / alpha - envelope <= out <= alpha * exact + envelope


class TestDistinctEstimator:
    def test_default_copy_count(self):
        # ceil(50 ln(2*1024/0.05)) = 532
        assert copy_count(None, 1024, 0.05) == 532

    def test_budget_ledger_sums_exactly(self):
        cfg = DistinctConfig(
            epsilon=2.0, eta=0.2, xi=0.1, n=1 << 16, T=64, variant=TREE, copies=5
        )
        est = distinct_estimator(cfg, NoiseContext(0))
        assert est.budget.epsilon_allocated == 2.0
        assert est.budget.epsilon_fraction_allocated == 1

    def test_boosted_feed_median(self):
        cfg = DistinctConfig(
            epsilon=1.0, eta=0.2, xi=0.1, n=1 << 16, T=32, variant=TREE, copies=3
        )
        est = distinct_estimator(cfg, NoiseContext(4, noise_off=True))
        outs = [est.feed(element(x)) for x in range(32)]
        assert all(o >= 0 for o in outs)

    def test_identical_seed_identical_trajectory(self):
        cfg = DistinctConfig(
            epsilon=1.0, eta=0.2, xi=0.1, n=1 << 12, T=64, variant=GROUP, copies=3
        )
        stream = generate_stream("uniform", StreamConfig(T=64, n=1 << 12), seed=8)
        a = distinct_estimator(cfg, NoiseContext(11))
        b = distinct_estimator(cfg, NoiseContext(11))
        assert [a.feed(e) for e in stream] == [b.feed(e) for e in stream]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DistinctConfig(epsilon=1.0, eta=0.7, xi=0.1, n=4, T=4)
        with pytest.raises(ValueError):
            DistinctConfig(epsilon=1.0, eta=0.2, xi=0.6, n=4, T=4)
        with pytest.raises(ValueError):
            DistinctConfig(epsilon=0.0, eta=0.2, xi=0.1, n=4, T=4)


class TestBoostedEstimator:
    def test_needs_copies(self):
        cfg = DistinctConfig(epsilon=1.0, eta=0.2, xi=0.1, n=16, T=4, copies=0)
        with pytest.raises(ValueError, match="copies must be >= 1, got 0"):
            BoostedEstimator(cfg, NoiseContext(1), "copy", None, median_boost)
        cfg = L2Config(epsilon=1.0, eta=0.2, xi=0.1, n=16, T=4, copies=0, buckets=2)
        with pytest.raises(ValueError, match="copies must be >= 1, got 0"):
            L2Estimator(cfg, NoiseContext(1))

    @pytest.mark.parametrize("copies", [1, 3, 7])
    def test_ledger_splits_epsilon_and_xi_equally(self, copies):
        # one entry per copy, whose exact shares sum to the whole budget
        epsilon, xi, n, T = 0.7, 0.1, 16, 8
        estimators = [
            distinct_estimator(
                DistinctConfig(epsilon=epsilon, eta=0.2, xi=xi, n=n, T=T, copies=copies),
                NoiseContext(1),
            ),
            hh_estimator(
                HHConfig(p=2.0, k=2, eta=0.2, epsilon=epsilon, xi=xi, T=T, n=n, copies=copies),
                NoiseContext(1),
            ),
            lowfreq_estimator(
                LowFreqConfig(k=2, epsilon=epsilon, eta=0.25, xi=xi, n=n, T=T, copies=copies),
                NoiseContext(1),
            ),
            L2Estimator(
                L2Config(epsilon=epsilon, eta=0.2, xi=xi, n=n, T=T, copies=copies, buckets=2),
                NoiseContext(1),
            ),
            moment_estimator(
                MomentConfig(p=2.0, epsilon=epsilon, eta=0.25, xi=xi, T=T, n=n, copies=copies,
                             tau=4.0),
                NoiseContext(1),
            ),
        ]
        for est in estimators:
            assert isinstance(est, BoostedEstimator)
            entries = est.budget.entries
            assert len(est.copies) == len(entries) == copies
            assert [e.name for e in entries] == [f"copy-{c}" for c in range(copies)]
            assert sum(e.epsilon_fraction for e in entries) == 1
            assert sum(e.xi_fraction for e in entries) == 1
            assert (est.budget.total_epsilon, est.budget.total_xi) == (epsilon, xi)
            assert est.budget.epsilon_allocated == epsilon

    @pytest.mark.parametrize("variant", [TREE, GROUP, "f2"])
    def test_horizon_is_the_shared_clock(self, variant):
        T = 4
        if variant == "f2":
            cfg = L2Config(epsilon=1.0, eta=0.2, xi=0.1, n=16, T=T, copies=2, buckets=2)
            est = L2Estimator(cfg, NoiseContext(1))
        else:
            cfg = DistinctConfig(epsilon=1.0, eta=0.2, xi=0.1, n=16, T=T, variant=variant,
                                 copies=2)
            est = distinct_estimator(cfg, NoiseContext(1))
        for i in range(T):
            est.feed(element(i))
            assert est.t == i + 1
        with pytest.raises(StateError, match=f"stream horizon T={T} exhausted"):
            est.feed(element(0))

    def test_f2_release_is_current(self):
        # the L2 estimator's release, as for every other boosted estimator
        T = 64
        cfg = L2Config(epsilon=1.0, eta=0.2, xi=0.1, n=32, T=T, copies=3, buckets=16)
        est = L2Estimator(cfg, NoiseContext(3))
        for e in generate_stream("zipf", StreamConfig(T=T, n=32), seed=3, s=1.2):
            est.feed(e)
            assert est.current() == est.f2()


class TestGeneralUniverseAccuracy:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_noisy_tree_release_within_eta(self, seed):
        # once the deepest level clears the selection threshold (from about
        # t = 10,000 here) every release lies within (1 ± eta) of the exact
        # distinct count
        n, T, eta = 1 << 15, 1 << 14, 0.45
        cfg = DistinctConfig(epsilon=64.0, eta=eta, xi=0.1, n=n, T=T, variant=TREE, copies=3)
        est = distinct_estimator(cfg, NoiseContext(seed))
        seen: set[int] = set()
        first, worst = None, 0.0
        stream = generate_stream("uniform", StreamConfig(T=T, n=n), seed=seed)
        for t, e in enumerate(stream, start=1):
            if e.is_element():
                seen.add(e.value)
            out = est.feed(e)
            if out:
                first = first or t
                worst = max(worst, abs(out - len(seen)) / len(seen))
        assert first is not None and first < 12_000
        assert worst <= eta
