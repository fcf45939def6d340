"""Each derived bound and route has one owner; these tests pin every one of
them to the formula it was computed by where it is used, bit for bit.

Tree depth fixes every node draw's noise scale, the heavy-hitter floor fixes
which candidates a sketch holds and the moment cutoff tau, the summing
guarantee fixes the subsampled estimators' shapes, and the level router fixes
which level and hashed id every element gets.
"""

import itertools
import math
import re

import pytest

from dpsketch.cli import STREAMING, command_params
from dpsketch.countsketch import L2Config, L2Estimator
from dpsketch.distinct import (
    GROUP,
    INDICATOR_SENSITIVITY,
    TREE,
    DistinctConfig,
    SubsampleParams,
    distinct_estimator,
)
from dpsketch.budget import copy_count
from dpsketch.heavy_hitters import (
    ETA_F2,
    TAU_LOG_POWER,
    INNER_BUCKETS,
    HHConfig,
    HHSketch,
    hh_estimator,
    noise_floor,
    recall_threshold,
)
from dpsketch.low_freq import LowFreqConfig, LowFreqSmall, low_freq_block, lowfreq_estimator
from dpsketch.moment import (
    GAMMA2_FACTOR,
    MAX_LOW_FREQ_K,
    MomentConfig,
    MomentState,
    moment_estimator,
)
from dpsketch.randomness import (
    HASH_RANGE_CAP,
    GeometricLevelHash,
    LevelRouter,
    NoiseContext,
    PolyHashFamily,
    even_independence,
    subsample_depth,
)
from dpsketch.summing import (
    BinaryTreeMechanism,
    Clock,
    GroupingMechanism,
    make_summing_backend,
    summing_guarantee,
    tree_levels,
)

from standalone import bank_on_clock, standalone_sketch

HORIZONS = [1, 2, 1024, 1 << 17]
NOISE = [False, True]


def _levels(T):
    return math.ceil(math.log2(T)) + 1 if T > 1 else 1


def test_tree_levels_is_the_tree_depth():
    assert all(tree_levels(T) == _levels(T) for T in range(1, (1 << 20) + 1))


def test_subsample_depth():
    sizes = [1, 2, 3, 64, 1000, 1 << 14, (1 << 14) + 1, 1 << 20]
    for n, T in itertools.product(sizes, sizes):
        assert subsample_depth(n, T) == max(1, math.ceil(math.log2(min(n, T))))


class TestHeavyHitterFloor:
    @pytest.mark.parametrize("noise_off", NOISE)
    @pytest.mark.parametrize("T", HORIZONS)
    def test_sketch_gamma2_and_floor(self, T, noise_off):
        for eps_tree, eta, factor in itertools.product(
            [1e-3, 0.0625, 0.3, 1.0, 7.5], [0.1, 0.2, 0.45], [0.1, 0.2, 1.0]
        ):
            cfg = HHConfig(p=2.0, k=2, eta=eta, epsilon=1.0, xi=0.1, T=T, n=16,
                           copies=1, gamma2_factor=factor)
            # the formula HHSketch evaluated in place
            scale = _levels(T) / float(eps_tree)
            gamma2 = 0.0 if noise_off else factor * scale
            floor = 512 * gamma2**2 / eta**2
            sketch = HHSketch(cfg, NoiseContext(3, noise_off=noise_off), eps_tree, Clock(T))
            assert (sketch.gamma2, sketch._floor) == (gamma2, floor)
            assert noise_floor(T, eps_tree, eta, factor, noise_off) == (gamma2, floor)
            assert sketch.gamma1 == 4 * INNER_BUCKETS * gamma2**2 / ETA_F2

    @pytest.mark.parametrize("noise_off", NOISE)
    @pytest.mark.parametrize("T", HORIZONS)
    def test_estimator_tau(self, T, noise_off):
        for epsilon, eta, factor, copies in itertools.product(
            [0.5, 4.0, 64.0], [0.1, 0.3], [0.1, 1.0], [1, 2]
        ):
            cfg = HHConfig(p=2.0, k=3, eta=eta, epsilon=epsilon, xi=0.1, T=T, n=16,
                           copies=copies, gamma2_factor=factor)
            est = hh_estimator(cfg, NoiseContext(5, noise_off=noise_off))
            # the formula recall_threshold evaluated from the copies' values
            scale = _levels(T) / (epsilon / (4 * copies))
            gamma2 = 0.0 if noise_off else factor * scale
            gamma1 = 4 * INNER_BUCKETS * gamma2**2 / ETA_F2
            theory = (
                1.0 / (epsilon * eta)
                * math.log(T * cfg.k * cfg.n / (cfg.xi * eta)) ** TAU_LOG_POWER
            )
            floor = 4.0 * math.sqrt(gamma1 / (cfg.phi * cfg.k) + 512 * gamma2**2 / eta**2)
            assert recall_threshold(cfg, est.copies[0]) == max(theory, floor)

    @pytest.mark.parametrize("noise_off", NOISE)
    @pytest.mark.parametrize("T", [2, 1024, 1 << 17])
    def test_moment_default_tau(self, T, noise_off):
        inside = 0
        for eps_unit, eta in itertools.product([0.5, 8.0, 64.0, 512.0, 4096.0], [0.1, 0.25]):
            cfg = MomentConfig(p=2.0, epsilon=1.0, eta=eta, xi=0.1, T=T, n=16, copies=1)
            ctx = NoiseContext(7, noise_off=noise_off)
            state = MomentState(cfg, ctx, eps_unit, bank_on_clock(T, ctx))
            # the formula MomentState evaluated in place, then capped
            tree_scale = _levels(T) / (eps_unit / 4)
            gamma2 = 0.0 if noise_off else GAMMA2_FACTOR * tree_scale
            tau = 4.0 * math.sqrt(512.0 * gamma2**2 / eta**2)
            assert state.shape.tau == max(1.0, min(tau, float(MAX_LOW_FREQ_K)))
            inside += 1.0 < tau < MAX_LOW_FREQ_K
        # some cutoffs fall inside the cap, where tau's bits show unclamped
        assert inside > 0 or noise_off


def _joined_epsilons(monkeypatch):
    """The epsilon of every lane group joined to any bank from now on."""
    seen = []
    join = BinaryTreeMechanism.join

    def recording(self, base, ids, epsilon):
        seen.append(epsilon)
        return join(self, base, ids, epsilon)

    monkeypatch.setattr(BinaryTreeMechanism, "join", recording)
    return seen


class TestEpsilonSplits:
    """Each factory's epsilon split equals its integer-divisor form bit for
    bit: 2 per L2 copy, 4 per heavy-hitter copy and per moment unit, 4 moment
    units per copy, 5 per distinct level and 8k per low-frequency counter
    group, each of a copy's epsilon/copies."""

    GRID = list(itertools.product([1e-3, 0.1, 1.0, 3.7, 64.0, 1e6], [1, 2, 3, 7, 50]))

    def test_distinct_level_epsilon(self, monkeypatch):
        joined = _joined_epsilons(monkeypatch)
        for epsilon, copies in self.GRID:
            want = epsilon / copies / INDICATOR_SENSITIVITY
            for variant in (TREE, GROUP):
                cfg = DistinctConfig(epsilon=epsilon, eta=0.2, xi=0.1, n=16, T=8,
                                     variant=variant, copies=copies)
                joined.clear()
                est = distinct_estimator(cfg, NoiseContext(1))
                levels = copies * subsample_depth(16, 8)
                if variant == GROUP:
                    groups = [level for copy in est.copies for level in copy.groups]
                    assert len(groups) == levels
                    assert all(level.epsilon == want for level in groups)
                else:  # one lane per level of every copy
                    assert est.bank.k == levels
                    assert len(joined) == levels
                    assert all(eps == want for eps in joined)

    def test_lowfreq_small_counter_epsilon(self, monkeypatch):
        joined = _joined_epsilons(monkeypatch)
        k = 3
        for epsilon, copies in self.GRID:
            cfg = LowFreqConfig(k=k, epsilon=epsilon, eta=0.25, xi=0.1, n=16, T=8,
                                copies=copies)
            joined.clear()
            est = lowfreq_estimator(cfg, NoiseContext(1))
            assert all(isinstance(copy, LowFreqSmall) for copy in est.copies)
            assert len(joined) == copies
            assert all(eps == epsilon / copies / (8 * k) for eps in joined)

    def test_l2_bucket_epsilon(self, monkeypatch):
        joined = _joined_epsilons(monkeypatch)
        for epsilon, copies in self.GRID:
            cfg = L2Config(epsilon=epsilon, eta=0.2, xi=0.1, n=16, T=8, copies=copies,
                           buckets=2)
            joined.clear()
            est = L2Estimator(cfg, NoiseContext(1))
            assert len(joined) == copies
            assert all(eps == epsilon / copies / 2 == epsilon / (2 * copies) for eps in joined)
            assert all(s.epsilon_bucket == epsilon / copies / 2 for s in est.copies)

    def test_hh_tree_epsilon(self):
        for epsilon, copies in self.GRID:
            cfg = HHConfig(p=2.0, k=2, eta=0.2, epsilon=epsilon, xi=0.1, T=8, n=16,
                           copies=copies)
            est = hh_estimator(cfg, NoiseContext(1))
            assert all(s.epsilon_tree == epsilon / (4 * copies) for s in est.copies)

    def test_moment_unit_and_tree_epsilon(self):
        for epsilon, copies in self.GRID:
            cfg = MomentConfig(p=2.0, epsilon=epsilon, eta=0.25, xi=0.1, T=8, n=16,
                               copies=copies, tau=4.0)
            est = moment_estimator(cfg, NoiseContext(1))
            unit = epsilon / (4 * copies)
            for state in est.copies:
                assert all(s.cfg.epsilon == unit for s in state.hh)
                assert all(s.epsilon_tree == unit / 4 for s in state.hh)


class TestLevelRouter:
    @pytest.mark.parametrize("name", ["subsample", "lfg"])
    def test_equals_level_hash_and_id_hash(self, name):
        ctx = NoiseContext(11)
        L, lam, m = 12, 28, 1 << 40
        g = GeometricLevelHash(L, lam, ctx.child_seed(name + "-g"))
        h = PolyHashFamily(2, m, ctx.child_seed(name + "-h"))
        router = LevelRouter(L, lam, m, ctx, name)
        for ident in range(10_000):
            assert router(ident) == (g.level(ident), h(ident))
        assert router(17) == (g.level(17), h(17))  # a memoised route

    def test_estimators_route_under_their_names(self):
        ctx = NoiseContext(4)
        cfg = DistinctConfig(epsilon=1.0, eta=0.45, xi=0.1, n=1 << 15, T=1 << 10, copies=2)
        est = distinct_estimator(cfg, ctx)
        bank = bank_on_clock(1 << 10, ctx)
        block = low_freq_block(1 << 15, 3, 1 << 10, 0.25, 1.0, 0.05, ctx.child("lf"), bank)
        routes = [(copy.params, ctx.child("distinct-copy", c), copy._route, "subsample")
                  for c, copy in enumerate(est.copies)]
        routes.append((block.params, ctx.child("lf"), block._route, "lfg"))
        for params, owner, route, name in routes:
            g = GeometricLevelHash(params.L, params.lam, owner.child_seed(name + "-g"))
            h = PolyHashFamily(2, params.m, owner.child_seed(name + "-h"))
            for ident in range(0, 1 << 15, 7):
                assert route(ident) == (g.level(ident), h(ident))


class TestSummingGuarantee:
    @pytest.mark.parametrize("noise_off", NOISE)
    @pytest.mark.parametrize("variant", ["tree", "group"])
    def test_distinct_params(self, variant, noise_off):
        for n, T, eta, epsilon, copies in [
            (1 << 15, 1 << 10, 0.45, 1.0, 3),
            (64, 512, 0.1, 64.0, 2),
            (1 << 20, 1 << 12, 0.25, 8.0, None),
            (64, 512, 0.1, 1.0, None),  # m above the hash field before the cap
        ]:
            cfg = DistinctConfig(epsilon=epsilon, eta=eta, xi=0.1, n=n, T=T,
                                 variant=variant, copies=copies)
            ctx = NoiseContext(9, noise_off=noise_off)
            # the former per-type dispatch: a probe backend, then (1, bound) for
            # a tree and (1 + eta, bound) for grouping
            c = copy_count(copies, T, 0.1)
            eps_sum = epsilon / c / 5
            L = max(1, math.ceil(math.log2(min(n, T))))
            xi_inner = (0.1 / 2) / (L * c)
            probe_ctx = ctx.child("distinct-probe")
            if variant == "tree":
                probe = BinaryTreeMechanism(T, eps_sum, probe_ctx)
                alpha, gamma = 1.0, probe.error_bound(xi_inner)
            else:
                probe = GroupingMechanism(T, eps_sum, eta, xi_inner, probe_ctx)
                alpha, gamma = 1.0 + eta, probe.error_bound(xi_inner)
            lam = even_independence(2 * math.log2(1000 * L))
            threshold = max(gamma / eta, 32 * alpha * lam / eta**2)
            m = min(math.ceil(100 * L * (16 * alpha * threshold) ** 2), HASH_RANGE_CAP)
            expected = SubsampleParams(L=L, lam=lam, m=m, alpha=alpha, gamma=gamma,
                                       threshold=threshold)
            est = distinct_estimator(cfg, NoiseContext(9, noise_off=noise_off))
            assert all(copy.params == expected for copy in est.copies)

    @pytest.mark.parametrize("noise_off", NOISE)
    @pytest.mark.parametrize("variant", [TREE, GROUP])
    def test_guarantee_is_each_backends_formula(self, variant, noise_off):
        for T, epsilon, eta, xi in itertools.product(
            [1, 2, 64, 4096, 1 << 17], [1e-3, 1.0, 64.0], [0.1, 0.45], [1e-6, 0.1, 0.9]
        ):
            # the formulas each backend evaluated in place, in their order
            if variant == TREE:
                levels = _levels(T)
                alpha, gamma = 1.0, levels * (levels / epsilon) * math.log(2 * T / xi)
            else:
                alpha = 1.0 + eta
                gamma = (1.0 / eta + 4.0) * (7.0 / (epsilon / 2.0)) * math.log(3.0 * T / xi)
            gamma = 0.0 if noise_off else gamma
            assert summing_guarantee(variant, T, epsilon, eta, xi, noise_off) == (alpha, gamma)
            ctx = NoiseContext(1, noise_off=noise_off)
            assert make_summing_backend(variant, T, epsilon, eta, xi, ctx).error_bound(xi) == gamma

    @pytest.mark.parametrize("noise_off", NOISE)
    @pytest.mark.parametrize("variant", [TREE, GROUP])
    def test_refusals_keep_their_messages(self, variant, noise_off):
        ctx = NoiseContext(1, noise_off=noise_off)
        for T, epsilon, eta, xi, message in [
            (0, 1.0, 0.1, 0.1, "T must be >= 1, got 0"),
            (-3, 1.0, 0.1, 0.1, "T must be >= 1, got -3"),
            (8, 0.0, 0.1, 0.1, "epsilon must be > 0 and finite, got 0.0"),
            (8, math.inf, 0.1, 0.1, "epsilon must be > 0 and finite, got inf"),
            (8, math.nan, 0.1, 0.1, "epsilon must be > 0 and finite, got nan"),
            (8, 1.0, 0.0, 0.1, "eta must be in (0, 1), got 0.0"),
            (8, 1.0, 1.0, 0.1, "eta must be in (0, 1), got 1.0"),
            (8, 1.0, 0.1, 0.0, "xi must be in (0, 1), got 0.0"),
            (8, 1.0, 0.1, 1.0, "xi must be in (0, 1), got 1.0"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                summing_guarantee(variant, T, epsilon, eta, xi, noise_off)
            with pytest.raises(ValueError, match=re.escape(message)):
                make_summing_backend(variant, T, epsilon, eta, xi, ctx)
            if variant == GROUP:
                with pytest.raises(ValueError, match=re.escape(message)):
                    GroupingMechanism(T, epsilon, eta, xi, ctx)
        with pytest.raises(ValueError, match="unknown summing variant 'f2'"):
            summing_guarantee("f2", 8, 1.0, 0.1, 0.1, noise_off)

    def test_no_backend_is_built_for_its_guarantee(self, monkeypatch):
        built = []
        for cls in (BinaryTreeMechanism, GroupingMechanism):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                built.append(self)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        for variant in (TREE, GROUP):
            cfg = DistinctConfig(epsilon=1.0, eta=0.2, xi=0.1, n=64, T=64, variant=variant,
                                 copies=3)
            built.clear()
            est = distinct_estimator(cfg, NoiseContext(1))
            # the bank of the copies' tree levels, and the grouping levels
            assert built == [est.bank] + [level for copy in est.copies for level in copy.groups]
        for stat in ("sum", "distinct"):
            params = command_params("sliding", stat=stat, W=8, epsilon=8.0, eta=0.4, T=64, n=16)
            built.clear()
            STREAMING["sliding"].build(params, NoiseContext(1))
            assert built == []

    @pytest.mark.parametrize("noise_off", NOISE)
    def test_countsketch_bound_within_one_ulp(self, noise_off):
        for k, T, eps, xi in itertools.product([1, 8, 512], [1, 64, 1 << 17],
                                               [0.01, 1.0], [1e-6, 0.1, 0.9]):
            sketch = standalone_sketch(k, T, eps, NoiseContext(2, noise_off=noise_off))
            levels = _levels(T)
            expected = 0.0 if noise_off else (
                levels * (levels / eps) * math.log(2 * T * k / xi)
            )
            assert abs(sketch.error_bound(xi) - expected) <= math.ulp(expected)
        with pytest.raises(ValueError):
            sketch.error_bound(1.0)
