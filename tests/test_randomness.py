import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpsketch import randomness
from dpsketch.randomness import (
    MERSENNE_PRIME,
    GeometricLevelHash,
    NoiseContext,
    PolyHashFamily,
    SignHash,
    even_independence,
    fold_key,
    fold_lanes,
    fold_on,
    median_boost,
    node_laplace,
)

from standalone import standalone_sketch

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _ks_laplace(draws, scale):
    """Kolmogorov-Smirnov distance of the draws from Laplace(0, scale)."""
    x = np.sort(np.asarray(draws, dtype=np.float64))
    n = x.size
    cdf = np.where(x < 0, 0.5 * np.exp(x / scale), 1.0 - 0.5 * np.exp(-x / scale))
    ranks = np.arange(1, n + 1) / n
    return max(float(np.max(ranks - cdf)), float(np.max(cdf - (ranks - 1 / n))))


def _ks_bound(n):
    # the 1% critical value of the one-sample KS statistic
    return 1.63 / math.sqrt(n)


class TestLaplace:
    def test_noise_off_is_zero(self):
        ctx = NoiseContext(123, noise_off=True)
        assert all(ctx.laplace(b) == 0.0 for b in (0.1, 1.0, 50.0))

    def test_replay_identical(self):
        a = NoiseContext(99)
        b = NoiseContext(99)
        assert [a.laplace(2.0) for _ in range(64)] == [b.laplace(2.0) for _ in range(64)]

    def test_mean_near_zero(self):
        ctx = NoiseContext(7)
        draws = np.array([ctx.laplace(1.0) for _ in range(1_000_000)])
        assert abs(draws.mean()) < 0.01

    def test_variance_matches(self):
        # Var(Lap(b)) = 2 b^2
        ctx = NoiseContext(8)
        draws = np.array([ctx.laplace(2.0) for _ in range(1_000_000)])
        assert abs(draws.var() - 8.0) <= 0.05 * 8.0

    def test_bad_scale(self):
        ctx = NoiseContext(0)
        with pytest.raises(ValueError):
            ctx.laplace(0.0)
        with pytest.raises(ValueError):
            ctx.laplace(-1.0)

    def test_draw_counter_advances(self):
        ctx = NoiseContext(1)
        ctx.laplace(1.0)
        assert ctx.draw_counter == 1


class TestPolyHash:
    def test_deterministic(self):
        h1 = PolyHashFamily(4, 97, seed=11)
        h2 = PolyHashFamily(4, 97, seed=11)
        assert [h1(x) for x in range(100)] == [h2(x) for x in range(100)]

    def test_pairwise_collision_rate(self):
        m = 64
        rng = np.random.default_rng(0)
        trials = 20_000
        collisions = 0
        h = PolyHashFamily(2, m, seed=3)
        pairs = rng.integers(0, 1 << 40, size=(trials, 2))
        for x, y in pairs:
            if x != y and h(int(x)) == h(int(y)):
                collisions += 1
        rate = collisions / trials
        sigma = math.sqrt((1 / m) * (1 - 1 / m) / trials)
        assert abs(rate - 1 / m) <= 3 * sigma + 1e-6

    def test_range(self):
        h = PolyHashFamily(3, 10, seed=2)
        assert all(0 <= h(x) < 10 for x in range(1000))


class TestSignHash:
    def test_values(self):
        g = SignHash(seed=4)
        assert set(g(x) for x in range(200)) <= {-1, 1}

    def test_mean_product_near_zero(self):
        g = SignHash(seed=5)
        rng = np.random.default_rng(1)
        pairs = rng.integers(0, 1 << 40, size=(100_000, 2))
        vals = [g(int(x)) * g(int(y)) for x, y in pairs if x != y]
        mean = float(np.mean(vals))
        assert abs(mean) <= 3 / math.sqrt(len(vals))


class TestGeometricLevelHash:
    def test_deterministic(self):
        g = GeometricLevelHash(8, 6, seed=7)
        assert [g.level(x) for x in range(50)] == [g.level(x) for x in range(50)]

    def test_level_one_fraction(self):
        g = GeometricLevelHash(8, 6, seed=13)
        hits = sum(1 for x in range(100_000) if g.level(x) == 1)
        assert abs(hits / 100_000 - 0.5) <= 0.015

    def test_bottom_fraction(self):
        g = GeometricLevelHash(8, 6, seed=17)
        drops = sum(1 for x in range(100_000) if g.level(x) is None)
        assert abs(drops / 100_000 - 2**-8) <= 0.002

    def test_all_level_marginals(self):
        g = GeometricLevelHash(6, 6, seed=23)
        counts = {}
        N = 200_000
        for x in range(N):
            counts[g.level(x)] = counts.get(g.level(x), 0) + 1
        for i in range(1, 7):
            p = 2.0**-i
            sigma = math.sqrt(p * (1 - p) / N)
            assert abs(counts.get(i, 0) / N - p) <= 4 * sigma + 1e-4


class TestMedianBoost:
    def test_odd(self):
        assert median_boost([3, 1, 2]) == 2

    def test_even_lower_median(self):
        assert median_boost([1, 2, 3, 4]) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_boost([])

    def test_chernoff_boost(self):
        # 51 copies each good w.p. 2/3: the median is good in >= 1-e^(-51/48)
        # of trials (Chernoff); verified by Monte-Carlo with margin
        rng = np.random.default_rng(42)
        trials = 4000
        bad = 0
        for _ in range(trials):
            # "good" draws in [0,1], "bad" far away at 10
            good_mask = rng.random(51) < 2 / 3
            vals = np.where(good_mask, rng.random(51), 10.0)
            if median_boost(list(vals)) > 1.0:
                bad += 1
        bound = math.exp(-51 / 48)
        assert bad / trials <= bound


class TestEvenIndependence:
    def test_rounds_up_to_even(self):
        assert even_independence(3.2) == 4
        assert even_independence(4.0) == 4
        assert even_independence(4.1) == 6
        assert even_independence(1.0) == 4


class TestNoiseContextChildren:
    def test_children_are_independent_and_stable(self):
        ctx = NoiseContext(77)
        a1 = ctx.child("copy", 0).laplace(1.0)
        a2 = ctx.child("copy", 0).laplace(1.0)
        b = ctx.child("copy", 1).laplace(1.0)
        assert a1 == a2
        assert a1 != b

    def test_noise_off_propagates(self):
        ctx = NoiseContext(77, noise_off=True)
        assert ctx.child("x").laplace(1.0) == 0.0


class TestLaplaceDistribution:
    def test_scalar_draws_ks(self):
        ctx = NoiseContext(2024)
        draws = [ctx.laplace(1.5) for _ in range(20_000)]
        assert _ks_laplace(draws, 1.5) <= _ks_bound(len(draws))

    def test_node_draws_ks(self):
        # one node under many lane bases, as a tree-counter bank draws a level
        bases = fold_lanes(fold_key(11, ("tree", "ks")), np.arange(100_000, dtype=np.uint64))
        draws = node_laplace(bases, 3, 5, 2.5)
        assert _ks_laplace(draws, 2.5) <= _ks_bound(draws.size)

    def test_noise_off_still_advances_the_counter(self):
        ctx = NoiseContext(4, noise_off=True)
        assert ctx.laplace(1.0) == 0.0
        assert ctx.draw_counter == 1

    def test_uniform_shares_the_stream(self):
        a, b = NoiseContext(12), NoiseContext(12)
        a.laplace(1.0)
        b.uniform()
        assert a.uniform() == b.uniform() != a.uniform()
        assert a.draw_counter == b.draw_counter + 1 == 3

    def test_zero_word_gives_a_finite_draw(self):
        # a mixed word of 0 would put the inverse CDF at u = 0; the splitmix64
        # finalizer maps 0 to 0, so base == offset reaches it
        for a, b in ((0, 0), (3, 5)):
            offset = (a * randomness._NODE_A + b * randomness._NODE_B) & _MASK64
            value = node_laplace(offset, a, b, 1.0)
            assert math.isfinite(value)
            assert node_laplace(np.array([offset], dtype=np.uint64), a, b, 1.0)[0] == value
        ctx = NoiseContext(1)
        ctx._stream = -_GOLDEN & _MASK64  # the first draw's word is 0
        assert math.isfinite(ctx.laplace(1.0))

    def test_children_of_consecutive_keys_are_uncorrelated(self):
        ctx = NoiseContext(9)
        n = 4_000
        first = np.array([ctx.child("sliding", t).laplace(1.0) for t in range(1, n + 1)])
        r = np.corrcoef(first[:-1], first[1:])[0, 1]
        assert abs(r) < 4 / math.sqrt(n)
        assert _ks_laplace(first, 1.0) <= _ks_bound(n)


class TestKeyedDerivation:
    def test_hash_coefficients_are_splitmix64_outputs(self):
        # the first five outputs of splitmix64 seeded with 1234567, as the
        # reference implementation prints them; coefficients keep the top 61 bits
        outputs = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                   4593380528125082431, 16408922859458223821]
        h = PolyHashFamily(5, 97, seed=1234567)
        assert h.coefficients == tuple(v >> 3 for v in outputs)
        assert all(0 <= c < MERSENNE_PRIME for c in h.coefficients)

    @staticmethod
    def _unmix64(z):
        # the inverse of the splitmix64 finalizer, a bijection of 64-bit words:
        # undo each xorshift by iterating it, each multiply by its inverse
        def unshift(y, s):
            x = y
            for _ in range(64 // s + 1):
                x = y ^ (x >> s)
            return x

        z = unshift(z, 31)
        z = unshift((z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK64, 27)
        return unshift((z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK64, 30)

    def test_out_of_field_value_is_rejected(self):
        # top 61 bits all ones is 2^61 - 1, outside GF(2^61 - 1): skipped.  The
        # seed whose first splitmix64 output is all ones, found by inversion
        mix = randomness._mix64
        assert all(mix(self._unmix64(z)) == z for z in (0, 1, _MASK64, 0x0123456789ABCDEF))
        seed = (self._unmix64(_MASK64) - _GOLDEN) & _MASK64
        states = [(seed + i * _GOLDEN) & _MASK64 for i in (1, 2, 3)]
        assert mix(states[0]) >> 3 == MERSENNE_PRIME
        h = PolyHashFamily(2, 97, seed=seed)
        assert h.coefficients == (mix(states[1]) >> 3, mix(states[2]) >> 3)
        assert all(c < MERSENNE_PRIME for c in h.coefficients)

    def test_fold_key_encodes_strings_as_before(self):
        def reference(seed, key):
            h = randomness._mix64(seed ^ _GOLDEN)
            for part in key:
                if isinstance(part, str):
                    part = int.from_bytes(part.encode()[:8].ljust(8, b"\0"), "little")
                h = randomness._mix64(h ^ ((int(part) * _GOLDEN) & _MASK64))
            return h

        for key in (("child", "sliding", 17), ("cs", 0, "bucket"), ("moment-copy", 2),
                    ("", "é", "lfs", 1 << 40)):
            for _ in range(2):  # the second pass reads the memoised words
                assert fold_key(77, key) == reference(77, key)

    _parts = st.lists(st.one_of(st.text(max_size=12), st.integers(0, _MASK64)), max_size=6)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, _MASK64), prefix=_parts, suffix=_parts)
    @example(seed=3, prefix=[], suffix=["child", "cs", 7])
    @example(seed=3, prefix=["cs", "hh", 0, "sub"], suffix=[])
    @example(seed=3, prefix=[], suffix=[])
    def test_fold_continues_over_a_suffix(self, seed, prefix, suffix):
        prefix, suffix = tuple(prefix), tuple(suffix)
        assert fold_on(fold_key(seed, prefix), suffix) == fold_key(seed, prefix + suffix)

    def test_no_numpy_generator_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy generator built")

        for name in ("PCG64", "Generator", "default_rng"):
            monkeypatch.setattr(np.random, name, refuse)
        ctx = NoiseContext(5)
        child = ctx.child("sliding", 3)
        draws = [child.laplace(1.0), child.uniform()]
        assert all(math.isfinite(x) for x in draws)
        assert 0 <= PolyHashFamily(4, 10, 3)(12345) < 10
        assert SignHash(8)(1) in (-1, 1)
        GeometricLevelHash(8, 6, 9).level(4)
        sketch = standalone_sketch(8, 64, 1.0, ctx, key=("hh", 0, "sub", 5))
        sketch.point_query(3)
