import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpsketch.budget import BoostedConfig, BudgetEntry, MechanismBudget, copy_count, equal_shares
from dpsketch.countsketch import L2Config
from dpsketch.distinct import DistinctConfig
from dpsketch.heavy_hitters import HHConfig
from dpsketch.low_freq import LowFreqConfig
from dpsketch.moment import MomentConfig, build_shape
from dpsketch.randomness import NoiseContext, fold_key, node_laplace, node_offset, word_laplace
from dpsketch.summing import (
    GROUP,
    TREE,
    BinaryTreeMechanism,
    Clock,
    GroupingMechanism,
    StateError,
    make_summing_backend,
)

# 99th percentile of max-over-t |error| over the 500 fixed seeds below
# (eps=1, T=2^12), frozen from a calibration run
TREE_EMPIRICAL_BOUND = 266.0
TREE_CALIBRATION_SEEDS = range(1000, 1500)


class TestBinaryTree:
    def test_noise_off_prefix_sums(self):
        ctx = NoiseContext(0, noise_off=True)
        m = BinaryTreeMechanism(8, 1.0, ctx)
        assert [m.feed(x) for x in (1, 2, 3)] == [1, 3, 6]

    def test_negative_inputs(self):
        ctx = NoiseContext(0, noise_off=True)
        m = BinaryTreeMechanism(4, 1.0, ctx)
        assert [m.feed(x) for x in (-1, 1)] == [-1, 0]

    def test_feed_beyond_horizon(self):
        m = BinaryTreeMechanism(2, 1.0, NoiseContext(0, noise_off=True))
        m.feed(1)
        m.feed(1)
        with pytest.raises(StateError):
            m.feed(1)

    def test_replay_determinism(self):
        outs = []
        for _ in range(2):
            m = BinaryTreeMechanism(64, 0.5, NoiseContext(5))
            outs.append([m.feed(1) for _ in range(64)])
        assert outs[0] == outs[1]

    def test_noise_is_zero_mean_at_scale(self):
        # average final-output error over many seeds shrinks
        errs = []
        for seed in range(400):
            m = BinaryTreeMechanism(16, 1.0, NoiseContext(seed))
            for _ in range(16):
                m.feed(1)
            errs.append(m.current() - 16)
        assert abs(np.mean(errs)) < 3 * np.std(errs) / math.sqrt(len(errs))

    def test_empirical_max_error_bound(self):
        # eps=1, T=2^12: 99th percentile of max |error| over the calibration
        # seeds stays at the frozen bound
        T = 2**12
        max_errors = []
        for seed in TREE_CALIBRATION_SEEDS:
            m = BinaryTreeMechanism(T, 1.0, NoiseContext(seed))
            exact = 0
            worst = 0.0
            for _ in range(T):
                exact += 1
                worst = max(worst, abs(m.feed(1) - exact))
            max_errors.append(worst)
        assert float(np.quantile(max_errors, 0.99)) <= TREE_EMPIRICAL_BOUND

    def test_analytic_bound_dominates_empirical(self):
        m = BinaryTreeMechanism(2**12, 1.0, NoiseContext(0))
        assert m.error_bound(0.05) >= TREE_EMPIRICAL_BOUND


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _all_nodes(T):
    """Every (level, node, offset) a read at some t in [1, T] sums, from the clock."""
    clock, seen = Clock(T), {}
    for _ in range(T):
        clock.tick()
        for level, node, offset in clock.keyed_nodes():
            seen[level, node] = offset
    return [(level, node, offset) for (level, node), offset in seen.items()]


class TestLaneDraws:
    """A lane read draws a stale level as ``word_laplace(base ^ offset)``, the
    offset from its clock; it must equal ``node_laplace`` bit for bit, in
    scalar and in array form, and so a full read's entry."""

    @pytest.mark.parametrize("T", [1, 2, 3, 1000, 8192])
    def test_every_node_of_the_tree(self, T):
        nodes = _all_nodes(T)
        # one new node per tick, each with its own offset
        assert len(nodes) == T and len({offset for *_, offset in nodes}) == T
        levels = np.array([level for level, _, _ in nodes], dtype=np.uint64)
        indices = np.array([node for _, node, _ in nodes], dtype=np.uint64)
        for base in (0, 1, fold_key(7, ("tree", T)), (1 << 64) - 1):
            for scale in (1e-3, 1.0, 14.0 / 3):
                got = [word_laplace(base ^ offset, scale) for _, _, offset in nodes]
                block = node_laplace(np.array([base], dtype=np.uint64), levels, indices, scale)
                assert np.array_equal(_bits(got), _bits(block[:, 0]))
                want = [node_laplace(base, level, node, scale) for level, node, _ in nodes]
                assert np.array_equal(_bits(got), _bits(want))
        # base == offset: the mixed word is 0, which the uniform takes as 1
        zero = word_laplace(0, 2.0)
        assert math.isfinite(zero)
        for level, node, offset in nodes:
            assert _bits([node_laplace(offset, level, node, 2.0)]) == _bits([zero])
            row = node_laplace(np.array([offset], dtype=np.uint64), level, node, 2.0)
            assert _bits(row) == _bits([zero])

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.integers(0, (1 << 64) - 1),
        scale=st.floats(1e-6, 1e6),
        T=st.sampled_from([1, 2, 3, 1000, 8192]),
        t=st.integers(1, 8192),
        same=st.booleans(),
    )
    @example(base=0, scale=1.0, T=1, t=1, same=True)
    def test_random_bases_and_scales(self, base, scale, T, t, same):
        clock = Clock(T)
        clock.t = 1 + (t - 1) % T
        for level, node, offset in clock.keyed_nodes():
            assert offset == node_offset(level, node)
            b = offset if same else base
            got = word_laplace(b ^ offset, scale)
            assert _bits([got]) == _bits([node_laplace(b, level, node, scale)])
            row = node_laplace(np.array([b, base], dtype=np.uint64), level, node, scale)
            assert _bits([got]) == _bits(row[:1])

    @pytest.mark.parametrize("seed", [1, 99])
    def test_lane_reads_at_random_gaps_equal_full_reads(self, seed):
        # two banks of two groups each on their own clocks, one only read by
        # lane, the other only in full: ticks skip a random number of reads,
        # so a lane read finds several levels stale at once
        T, rng = 1000, np.random.default_rng(seed)
        banks = []
        for _ in range(2):
            bank = BinaryTreeMechanism.bank(T, NoiseContext(seed), Clock(T))
            bank.join(fold_key(seed, ("tree", "a")), range(5), 1.0)
            bank.join(fold_key(seed, ("tree", "b")), range(3), 0.25)
            banks.append(bank)
        by_lane, full = banks
        t = 0
        while t < T:
            gap = int(rng.integers(1, 40))
            for _ in range(min(gap, T - t)):
                t += 1
                for bank in banks:
                    bank.clock.tick()
                lane = int(rng.integers(0, 8))
                for bank in banks:
                    bank.add(float(t % 3 - 1), lane)
            lanes = rng.integers(0, 8, size=3).tolist()
            got = [by_lane.lane_current(j) for j in lanes]
            want = full.current()
            assert np.array_equal(_bits(got), _bits(want[lanes]))
        assert by_lane._memo is None and t == T


class TestGrouping:
    def test_all_zero_stream_stays_zero(self):
        m = GroupingMechanism(16, 1.0, 0.5, 0.1, NoiseContext(0, noise_off=True))
        assert all(m.feed(0) == 0.0 for _ in range(16))
        assert m.current() == 0.0

    def test_single_crossing_count(self):
        # eta=0.5, eps=2, T=8, xi=0.1: threshold 3*7*ln(240) = 115.09, so a
        # single count of 116 closes the group at t=1 and is released exactly
        m = GroupingMechanism(8, 2.0, 0.5, 0.1, NoiseContext(0, noise_off=True))
        assert m.threshold_offset == pytest.approx(3 * 7 * math.log(240.0))
        released = m.feed(116)
        assert released == 116.0
        assert m.current() == 116.0

    def test_below_threshold_not_released(self):
        m = GroupingMechanism(8, 2.0, 0.5, 0.1, NoiseContext(0, noise_off=True))
        assert m.feed(115) == 0.0
        assert m.current() == 0.0

    def test_negative_input_rejected(self):
        m = GroupingMechanism(8, 1.0, 0.5, 0.1, NoiseContext(0))
        with pytest.raises(ValueError):
            m.feed(-1)

    def test_group_resets_after_release(self):
        m = GroupingMechanism(
            8, 2.0, 0.5, 0.1, NoiseContext(0, noise_off=True), threshold_offset=10.0
        )
        assert m.feed(12) == 12.0
        assert m.feed(3) == 0.0  # new group, below threshold again
        assert m.feed(8) == 11.0
        assert m.current() == 23.0

    def test_interval_envelope_monte_carlo(self):
        # all-interval (l, r) envelope at a reduced scale: eps=1, eta=0.1,
        # xi=0.1, T=512, Poisson(5) streams, >= 90% of 60 trials
        T, eps, eta, xi = 512, 1.0, 0.1, 0.1
        ok = 0
        trials = 60
        for seed in range(trials):
            rng = np.random.default_rng(10_000 + seed)
            counts = rng.poisson(5.0, size=T)
            m = GroupingMechanism(T, eps, eta, xi, NoiseContext(20_000 + seed))
            gamma = m.error_bound()
            released = np.array([m.feed(int(c)) for c in counts])
            if _envelope_holds(counts, released, eta, gamma):
                ok += 1
        assert ok >= 0.9 * trials

    def test_large_constant_stream_per_t_envelope(self):
        # c=100 constant stream: every prefix estimate within (1 +- eta) of
        # the exact sum plus the additive bound, in >= 90% of runs
        T, eps, eta, xi, c = 512, 1.0, 0.1, 0.1, 100
        trials, ok = 50, 0
        for seed in range(trials):
            m = GroupingMechanism(T, eps, eta, xi, NoiseContext(90_000 + seed))
            gamma = m.error_bound()
            good = True
            exact = 0
            for _ in range(T):
                exact += c
                m.feed(c)
                est = m.current()
                if not ((1 - eta) * exact - gamma <= est <= (1 + eta) * exact + gamma):
                    good = False
                    break
            ok += good
        assert ok >= 0.9 * trials

    def test_appendix_group_properties_noise_off(self):
        # deterministic: every closed group crossed the threshold exactly and
        # any proper prefix of a group stays under the threshold bound
        T, eps, eta, xi = 64, 1.0, 0.4, 0.1
        m = GroupingMechanism(T, eps, eta, xi, NoiseContext(0, noise_off=True))
        eps0 = eps / 2
        bound = (7 / (eta * eps0)) * math.log(3 * T / xi) + (13 / eps0) * math.log(
            3 * T / xi
        )
        rng = np.random.default_rng(3)
        group_sum = 0
        for c in rng.poisson(30.0, size=T):
            c = int(c)
            prefix_before = group_sum
            released = m.feed(c)
            if released:
                assert released == prefix_before + c
                assert released >= m.threshold_offset
                assert prefix_before <= bound
                group_sum = 0
            else:
                group_sum += c

    def test_appendix_group_properties_with_noise(self):
        T, eps, eta, xi = 256, 2.0, 0.3, 0.1
        eps0 = eps / 2
        bound = (7 / (eta * eps0)) * math.log(3 * T / xi) + (13 / eps0) * math.log(
            3 * T / xi
        )
        good = 0
        trials = 100
        for seed in range(trials):
            m = GroupingMechanism(T, eps, eta, xi, NoiseContext(40_000 + seed))
            rng = np.random.default_rng(50_000 + seed)
            group_sum = 0
            closed_prefixes = []
            for c in rng.poisson(20.0, size=T):
                c = int(c)
                if m.feed(c):
                    closed_prefixes.append(group_sum)
                    group_sum = 0
                else:
                    group_sum += c
            closed_prefixes.append(group_sum)  # last (possibly open) group
            if all(p <= bound for p in closed_prefixes):
                good += 1
        assert good >= (1 - xi) * trials - 5


class TestGroupingPrivacy:
    def test_closure_pattern_ratios_with_forced_closures(self):
        # the deterministic threshold offset does not enter the privacy
        # argument, so a small override makes group closures common and the
        # statistical check informative: with eps=1 every closure-pattern
        # probability ratio between neighboring count streams stays within
        # e^eps plus 4-sigma sampling slack
        runs = 150_000
        pairs = [
            ((0, 0, 0, 0), (1, 0, 0, 0)),
            ((2, 1, 0, 1), (1, 1, 0, 1)),
            ((1, 2, 2, 0), (1, 2, 1, 0)),
        ]

        def histogram(counts, ctx):
            hist = np.zeros(16, dtype=np.int64)
            for _ in range(runs):
                mech = GroupingMechanism(
                    4, 1.0, 0.25, 0.1, ctx, threshold_offset=3.0
                )
                cell = 0
                for c in counts:
                    cell = (cell << 1) | (1 if mech.feed(c) != 0.0 else 0)
                hist[cell] += 1
            return hist

        bound = math.e
        for idx, (s1, s2) in enumerate(pairs):
            h1 = histogram(s1, NoiseContext(70_000 + idx))
            h2 = histogram(s2, NoiseContext(80_000 + idx))
            informative = 0
            for a, b in zip(h1, h2):
                if min(a, b) < 20:
                    continue
                informative += 1
                p1, p2 = a / runs, b / runs
                slack = 4 * math.sqrt((1 - p1) / a + (1 - p2) / b)
                assert max(p1 / p2, p2 / p1) <= bound * (1 + slack)
            assert informative >= 8  # closures actually happened


class TestBackendRefusals:
    """Both summing backends refuse a horizon below 1 and a xi outside (0, 1)
    with the same ValueError, noise on or off."""

    @pytest.mark.parametrize("variant", [TREE, GROUP])
    @pytest.mark.parametrize("T", [0, -3])
    def test_horizon_below_one(self, variant, T):
        with pytest.raises(ValueError, match=f"T must be >= 1, got {T}"):
            make_summing_backend(variant, T, 1.0, 0.25, 0.1, NoiseContext(1))

    @pytest.mark.parametrize("variant", [TREE, GROUP])
    @pytest.mark.parametrize("noise_off", [False, True])
    @pytest.mark.parametrize("xi", [0.0, 1.0, 1.5, -0.1])
    def test_error_bound_xi_outside_unit_interval(self, variant, noise_off, xi):
        mech = make_summing_backend(variant, 16, 1.0, 0.25, 0.1, NoiseContext(1, noise_off))
        with pytest.raises(ValueError, match=r"xi must be in \(0, 1\)"):
            mech.error_bound(xi)


def _envelope_holds(counts, released, eta, gamma) -> bool:
    """max over all 1 <= l <= r <= T of the interval-envelope violation."""
    c_prefix = np.concatenate([[0.0], np.cumsum(counts)])
    r_prefix = np.concatenate([[0.0], np.cumsum(released)])
    upper = r_prefix - (1 + eta) * c_prefix  # needs max_(l<r) diff <= gamma
    lower = r_prefix - (1 - eta) * c_prefix  # needs min_(l<r) diff >= -gamma
    worst_upper = np.max(upper[1:] - np.minimum.accumulate(upper)[:-1])
    worst_lower = np.min(lower[1:] - np.maximum.accumulate(lower)[:-1])
    return worst_upper <= gamma and worst_lower >= -gamma


class TestBudget:
    def test_even_split_is_exact(self):
        b = MechanismBudget(1.0, 0.1)
        for i in range(7):
            b.allocate(f"sub-{i}", __import__("fractions").Fraction(1, 7))
        assert b.epsilon_allocated == 1.0
        assert b.epsilon_fraction_allocated == 1

    def test_duplicate_rejected(self):
        b = MechanismBudget(1.0)
        b.allocate("x", __import__("fractions").Fraction(1, 2))
        with pytest.raises(ValueError):
            b.allocate("x", __import__("fractions").Fraction(1, 4))

    def test_overflow_rejected(self):
        from fractions import Fraction

        b = MechanismBudget(1.0)
        b.allocate("x", Fraction(2, 3))
        with pytest.raises(ValueError):
            b.allocate("y", Fraction(1, 2))

    def test_epsilon_of(self):
        from fractions import Fraction

        b = MechanismBudget(2.0)
        b.allocate("half", Fraction(1, 2))
        assert b.epsilon_of("half") == 1.0

    def test_equal_shares_build_in_linear_time(self, monkeypatch):
        # running totals make an allocation O(1); re-summing every entry on
        # each allocation made about 40,000 additions for 200 copies
        add = Fraction.__add__
        calls = 0

        def counting(a, b):
            nonlocal calls
            calls += 1
            return add(a, b)

        monkeypatch.setattr(Fraction, "__add__", counting)
        budget = equal_shares(1.0, 0.1, 200)
        monkeypatch.undo()
        assert calls <= 2_000
        assert budget.epsilon_fraction_allocated == budget.xi_fraction_allocated == 1
        assert budget.entries[7] == BudgetEntry("copy-7", Fraction(1, 200), Fraction(1, 200))
        with pytest.raises(ValueError):
            budget.allocate("copy-7", 0)
        with pytest.raises(ValueError):
            budget.allocate("extra", Fraction(1, 10**9))

    def test_copy_count_equals_the_five_formulas(self):
        # the default copy counts the five boosted estimators computed, each
        # with its own formula, before they shared one
        for T in (1, 1024, 2**20):
            for xi in (0.01, 0.1, 0.49):
                for n in (1, 2**16):
                    per_element = math.ceil(50 * (math.log(2 * T / xi) + math.log(n)))
                    want = {
                        L2Config: per_element,
                        HHConfig: per_element,
                        DistinctConfig: math.ceil(50 * math.log(2 * T / xi)),
                        LowFreqConfig: math.ceil(50 * math.log(3 * T / xi)),
                        MomentConfig: math.ceil(50 * math.log(3 * T / xi)),
                    }
                    for cls, copies in want.items():
                        assert boosted(cls, T=T, xi=xi, n=n).n_copies() == copies
                        assert boosted(cls, T=T, xi=xi, n=n, copies=7).n_copies() == 7
                    assert copy_count(None, T, xi, n) == per_element
                    assert copy_count(7, T, xi, n) == 7


# a valid value of each boosted config's own fields
OWN_FIELDS = {
    DistinctConfig: {},
    L2Config: {},
    HHConfig: dict(p=2.0, k=1),
    LowFreqConfig: dict(k=2),
    MomentConfig: dict(p=2.0),
}


def boosted(cls, **shared):
    """A ``cls`` at a valid shared block, overridden by ``shared``."""
    return cls(**dict(epsilon=1.0, eta=0.2, xi=0.1, n=16, T=64) | OWN_FIELDS[cls] | shared)


@pytest.mark.parametrize("cls", list(OWN_FIELDS), ids=lambda cls: cls.__name__)
class TestBoostedConfig:
    def test_declares_only_its_own_fields(self, cls):
        assert issubclass(cls, BoostedConfig)
        names = [f.name for f in fields(cls)]
        assert names == ["epsilon", "eta", "xi", "n", "T", "copies", *names[6:]]

    @pytest.mark.parametrize(
        "bad,message",
        [
            # n = 0 once built every config; its estimator then failed with a
            # math domain error, accepted any id, or refused every element
            (dict(n=0), "n and T must be >= 1"),
            (dict(n=-1), "n and T must be >= 1"),
            (dict(T=0), "n and T must be >= 1"),
            (dict(T=-1), "n and T must be >= 1"),
            # inf once released exact counts, and nan released nan, 0 or nothing
            (dict(epsilon=math.inf), "epsilon must be > 0 and finite"),
            (dict(epsilon=math.nan), "epsilon must be > 0 and finite"),
        ],
    )
    def test_refuses_a_value_outside_its_range(self, cls, bad, message):
        with pytest.raises(ValueError, match=message):
            boosted(cls, **bad)

    def test_checks_the_shared_block_in_order(self, cls):
        with pytest.raises(ValueError, match=r"eta must be in \(0, 0.5\)"):
            boosted(cls, eta=0.5, xi=0.5, epsilon=0.0, n=0)
        with pytest.raises(ValueError, match=r"xi must be in \(0, 0.5\)"):
            boosted(cls, xi=0.5, epsilon=0.0, n=0)
        with pytest.raises(ValueError, match="epsilon must be"):
            boosted(cls, epsilon=0.0, n=0)


class TestMomentTau:
    @pytest.mark.parametrize("tau", [0.0, -5.0, math.nan])
    def test_refuses_a_tau_not_above_zero(self, tau):
        # once run with tau silently raised to 1
        with pytest.raises(ValueError, match="tau must be > 0"):
            boosted(MomentConfig, tau=tau)

    @pytest.mark.parametrize("tau", [0.5, 0.999])
    def test_refuses_a_given_tau_below_one(self, tau):
        # once run as tau = 1, which build_shape clamps it to
        with pytest.raises(ValueError, match="tau must be >= 1"):
            boosted(MomentConfig, tau=tau)

    def test_a_derived_tau_below_one_is_raised_to_one(self):
        assert build_shape(boosted(MomentConfig, tau=1.0), 0.75, 1.0).tau == 1.0
        assert build_shape(boosted(MomentConfig), 0.75, 0.25).tau == 1.0

    def test_a_large_tau_keeps_its_cap(self):
        cfg = boosted(MomentConfig, tau=1000.0)
        assert build_shape(cfg, 0.75, cfg.tau).tau == 64.0
