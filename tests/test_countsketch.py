import numpy as np
import pytest

from dpsketch.budget import copy_count
from dpsketch.countsketch import (
    L2Config,
    L2Estimator,
    default_l2_buckets,
)
from dpsketch.sensitivity import _bucket_mapping
from dpsketch.randomness import NoiseContext
from dpsketch.streams import (
    EMPTY_EVENT,
    StreamConfig,
    element,
    exact_frequencies,
    exact_lp_moment,
    generate_stream,
)

from standalone import standalone_sketch


def noiseless_sketch(k, T, seed=0):
    return standalone_sketch(k, T, 1.0, NoiseContext(seed, noise_off=True))


def seed_with_distinct_buckets(k, T, ids):
    for seed in range(5000):
        s = noiseless_sketch(k, T, seed)
        if len({s._route(i)[0] for i in ids}) == len(ids):
            return seed
    raise AssertionError("no non-colliding seed found")


class TestCountSketchState:
    def test_repeated_element(self):
        s = noiseless_sketch(8, 8)
        for _ in range(7):
            s.feed(element(3))
        bucket, sign = s._route(3)
        outs = s.outputs()
        assert outs[bucket] == 7 * sign
        assert sum(abs(outs)) == 7

    def test_two_elements_two_buckets(self):
        seed = seed_with_distinct_buckets(8, 4, [0, 1])
        s = noiseless_sketch(8, 4, seed)
        s.feed(element(0))
        s.feed(element(1))
        b0, g0 = s._route(0)
        b1, g1 = s._route(1)
        assert s.outputs()[b0] == g0
        assert s.outputs()[b1] == g1

    def test_empty_events_only_advance(self):
        s = noiseless_sketch(4, 4)
        for _ in range(4):
            s.feed(EMPTY_EVENT)
        assert list(s.outputs()) == [0, 0, 0, 0]
        assert s.t == 4

    def test_point_query_exact_when_isolated(self):
        s = noiseless_sketch(16, 16)
        for _ in range(9):
            s.feed(element(5))
        assert s.point_query(5) == 9.0

    def test_point_query_empty_sketch(self):
        s = noiseless_sketch(16, 16)
        assert s.point_query(11) == 0.0

    def test_f2_empty(self):
        s = noiseless_sketch(8, 4)
        assert s.f2().value == 0.0

    def test_f2_exact_no_collision(self):
        seed = seed_with_distinct_buckets(16, 4, [0, 1])
        s = noiseless_sketch(16, 4, seed)
        for e in (element(0), element(0), element(1)):
            s.feed(e)
        assert s.f2().value == 5.0

    def test_signed_sum_identity(self):
        # noise off: sum of z_i equals sum of g(a) f_a
        cfg = StreamConfig(T=256, n=32)
        stream = generate_stream("zipf", cfg, seed=2, s=1.1)
        s = noiseless_sketch(32, 256, seed=6)
        for e in stream:
            s.feed(e)
        table = exact_frequencies(stream)
        expected = sum(s._route(a)[1] * c for a, c in table.counts.items())
        assert float(s.outputs().sum()) == pytest.approx(expected)

    def test_noisy_bucket_error_within_tree_bound(self):
        T, k = 2**10, 8
        cfg = StreamConfig(T=T, n=64)
        trials, ok = 30, 0
        for seed in range(trials):
            stream = generate_stream("uniform", cfg, seed=seed)
            ctx = NoiseContext(60_000 + seed)
            s = standalone_sketch(k, T, 1.0, ctx)
            bound = s.error_bound(0.1)
            exact = np.zeros(k)
            good = True
            for e in stream:
                s.feed(e)
                if e.is_element():
                    b, sign = s._route(e.value)
                    exact[b] += sign
                if max(abs(s.outputs() - exact)) > bound:
                    good = False
                    break
            ok += good
        assert ok >= 0.9 * trials

    def test_f2_nonnegative_with_noise(self):
        s = standalone_sketch(8, 64, 0.5, NoiseContext(1))
        for x in range(64):
            s.feed(element(x % 5))
        assert s.f2().value >= 0.0

    def test_derived_bucket_streams(self):
        # the sensitivity checker's bucket streams: the arrival's sign in its
        # own bucket, zero everywhere else
        streams = _bucket_mapping([element(2), EMPTY_EVENT], n=3, T=4, seed=0, params={"k": 4})
        b, sign = standalone_sketch(4, 4, 1.0, NoiseContext(0, noise_off=True))._route(2)
        assert [[x.value for x in s] for s in streams] == [
            [sign if i == b else 0, 0] for i in range(4)
        ]

    def test_noise_replay(self):
        outs = []
        for _ in range(2):
            s = standalone_sketch(4, 32, 1.0, NoiseContext(44))
            vals = []
            for x in range(32):
                s.feed(element(x % 3))
                vals.append(s.point_query(0))
            outs.append(vals)
        assert outs[0] == outs[1]

    def test_point_query_noise_scales_with_gamma(self):
        # doubling the per-bucket noise scale at most doubles the empirical
        # additive error envelope
        T = 64
        stream = generate_stream("uniform", StreamConfig(T=T, n=16), seed=0)
        q90 = {}
        for eps in (1.0, 0.5):
            errors = []
            for seed in range(300):
                s = standalone_sketch(8, T, eps, NoiseContext(90_000 + seed))
                exact = {}
                for e in stream:
                    s.feed(e)
                    if e.is_element():
                        b, g = s._route(e.value)
                        exact[b] = exact.get(b, 0) + g
                b, g = s._route(3)
                errors.append(abs(s.point_query(3) - g * exact.get(b, 0)))
            q90[eps] = float(np.quantile(errors, 0.9))
        assert q90[0.5] <= 2.2 * q90[1.0]
        assert q90[0.5] >= q90[1.0]


class TestL2Estimator:
    def test_default_copies_formula(self):
        # ceil(50 (ln(2*1024/0.1) + 16 ln 2)) = 1051
        assert copy_count(None, 1024, 0.1, 1 << 16) == 1051

    def test_default_buckets(self):
        assert default_l2_buckets(0.2) == 10_000

    def test_ledger_total(self):
        cfg = L2Config(epsilon=1.5, eta=0.2, xi=0.1, n=64, T=32, copies=7, buckets=16)
        est = L2Estimator(cfg, NoiseContext(0))
        assert est.budget.epsilon_allocated == 1.5

    def test_noise_off_f2_within_eta(self):
        # 50 random streams: noise-off boosted F2 within eta*F2 of the oracle
        eta = 0.2
        cfg = L2Config(
            epsilon=1.0, eta=eta, xi=0.1, n=256, T=512, copies=3, buckets=10_000
        )
        ok = 0
        for seed in range(50):
            stream = generate_stream("zipf", StreamConfig(T=512, n=256), seed=seed, s=1.2)
            est = L2Estimator(cfg, NoiseContext(100 + seed, noise_off=True))
            for e in stream:
                est.feed(e)
            f2 = exact_lp_moment(exact_frequencies(stream), 2)
            ok += abs(est.f2() - f2) <= eta * f2
        assert ok >= 47

    def test_point_query_median(self):
        cfg = L2Config(epsilon=1.0, eta=0.2, xi=0.1, n=64, T=16, copies=3, buckets=64)
        est = L2Estimator(cfg, NoiseContext(5, noise_off=True))
        for _ in range(10):
            est.feed(element(7))
        assert est.point_query(7) == 10.0
