import math

import numpy as np
import pytest

from dpsketch import heavy_hitters, moment, randomness, summing
from dpsketch.heavy_hitters import INNER_BUCKETS
from dpsketch.sensitivity import _routed_streams
from dpsketch.low_freq import (
    LowFreqConfig,
    LowFreqGeneral,
    low_freq_block,
    lowfreq_estimator,
)
from dpsketch.moment import (
    ABOVE,
    BELOW,
    LEVEL_TUPLE_UNITS,
    MAX_LOW_FREQ_K,
    MomentConfig,
    MomentState,
    _geometric_boundary,
    beta_sample,
    build_shape,
    contributing_intervals,
    interval_index,
    moment_estimator,
)
from dpsketch.randomness import NoiseContext
from dpsketch.summing import BLOCK_LANES, tree_levels
from dpsketch.streams import (
    EMPTY_EVENT,
    StreamConfig,
    element,
    exact_frequencies,
    exact_lp_moment,
    generate_stream,
)

from standalone import bank_on_clock


def own_copy(cfg, ctx, unit):
    """A moment copy on a bank and clock of its own, and that bank, whose clock
    the caller ticks before each ingest as moment_estimator ticks its clock."""
    bank = bank_on_clock(cfg.T, ctx)
    return MomentState(cfg, ctx, unit, bank), bank


def moment_cfg(**over):
    base = dict(p=2.0, epsilon=1.0, eta=0.25, xi=0.1, T=64, n=64, copies=1)
    base.update(over)
    return MomentConfig(**base)


class TestBetaSample:
    def test_noise_off_midpoint(self):
        assert beta_sample(NoiseContext(0, noise_off=True), 0.25, 64) == 0.75

    def test_range(self):
        ctx = NoiseContext(1)
        for _ in range(1000):
            assert 0.5 <= beta_sample(ctx, 0.25, 1024) <= 1.0

    def test_mean(self):
        ctx = NoiseContext(2)
        draws = [beta_sample(ctx, 0.25, 1024) for _ in range(100_000)]
        assert abs(np.mean(draws) - 0.75) <= 0.01

    def test_grid_resolution(self):
        ctx = NoiseContext(3)
        step = (0.25 / 1024) ** 3
        b = beta_sample(ctx, 0.25, 1024)
        assert abs((b - 0.5) / step - round((b - 0.5) / step)) < 1e-6


class TestShape:
    def test_boundaries_bracket_tau_and_T(self):
        cfg = moment_cfg(T=2**13, n=2**10)
        shape = build_shape(cfg, beta=0.75, tau=32.0)
        assert _geometric_boundary(0.75, cfg.eta, shape.q1) > 32.0
        assert _geometric_boundary(0.75, cfg.eta, shape.q1 - 1) <= 32.0
        assert _geometric_boundary(0.75, cfg.eta, shape.q2 + 1) >= 2**13
        assert _geometric_boundary(0.75, cfg.eta, shape.q2) < 2**13
        assert shape.k == math.floor(_geometric_boundary(0.75, cfg.eta, shape.q1))
        assert shape.k >= 32

    def test_tau_capped_by_max_k(self):
        assert MAX_LOW_FREQ_K == 64
        cfg = moment_cfg()
        shape = build_shape(cfg, beta=0.75, tau=1e9)
        assert shape.tau == MAX_LOW_FREQ_K
        assert shape.k <= math.floor(MAX_LOW_FREQ_K * (1 + cfg.eta)) + 1


class TestIntervalIndex:
    def setup_method(self):
        self.cfg = moment_cfg(T=2**12)
        self.shape = build_shape(self.cfg, beta=0.75, tau=8.0)
        self.eta = self.cfg.eta

    def test_interior_point(self):
        q = self.shape.q1 + 3
        f = _geometric_boundary(0.75, self.eta, q) * (1 + self.eta / 2)
        assert interval_index(self.shape, f) == q

    def test_right_endpoint_belongs(self):
        q = self.shape.q1 + 2
        f = _geometric_boundary(0.75, self.eta, q + 1)
        assert interval_index(self.shape, f) == q

    def test_below_and_above(self):
        assert interval_index(self.shape, 0.0) == BELOW
        assert interval_index(self.shape, 1.0) == BELOW
        assert interval_index(self.shape, 2.0**40) == ABOVE

    def test_monotone_sweep(self):
        rng = np.random.default_rng(0)
        values = np.sort(rng.uniform(0, 2**13, size=10_000))
        prev = -(10**9)
        for v in values:
            q = interval_index(self.shape, float(v))
            if q == BELOW:
                q = self.shape.q1 - 1
            elif q == ABOVE:
                q = self.shape.q2 + 1
            assert q >= prev
            prev = q

    @pytest.mark.parametrize("eta", [0.1, 0.25, 0.45])
    @pytest.mark.parametrize(
        "T, beta, tau", [(2**12, 0.75, 8.0), (2**20, 0.613, 64.0), (8, 0.5, 64.0)]
    )
    def test_bisection_equals_the_loop(self, eta, T, beta, tau):
        # (8, 0.5, 64) has q2 < q1 - 1: no interval, everything below or above
        shape = build_shape(moment_cfg(T=T, eta=eta), beta=beta, tau=tau)
        edges = [_geometric_boundary(beta, eta, q) for q in range(shape.q1 - 2, shape.q2 + 4)]
        points = [0.0, math.inf]
        for b in edges:
            points += [math.nextafter(b, 0.0), b, math.nextafter(b, math.inf)]
        rng = np.random.default_rng(11)
        points += np.exp(rng.uniform(math.log(0.05), math.log(4.0 * T), size=10_000)).tolist()
        for f in points:
            assert interval_index(shape, f) == _loop_interval_index(shape, eta, f), f


def _loop_interval_index(shape, eta, f_hat):
    """interval_index as it was computed before the boundaries were stored: a
    log, then exact fix-up steps."""
    beta = shape.beta
    if f_hat <= _geometric_boundary(beta, eta, shape.q1):
        return BELOW
    if f_hat > _geometric_boundary(beta, eta, shape.q2 + 1):
        return ABOVE
    q = math.floor(math.log(f_hat / beta) / math.log1p(eta))
    while _geometric_boundary(beta, eta, q) >= f_hat:
        q -= 1
    while _geometric_boundary(beta, eta, q + 1) < f_hat:
        q += 1
    if q < shape.q1:
        return BELOW
    if q > shape.q2:
        return ABOVE
    return q


class TestContributing:
    def test_single_element_stream(self):
        stream = [element(0)] * 40
        table = exact_frequencies(stream)
        cfg = moment_cfg(T=64)
        shape = build_shape(cfg, beta=0.75, tau=4.0)
        spans = contributing_intervals(table, shape, cfg.eta, 2.0)
        assert any(lo < 40 <= hi for lo, hi in spans)

    def test_singletons_always_contribute(self):
        cfg = moment_cfg(T=64)
        shape = build_shape(cfg, beta=0.75, tau=4.0)
        spans = contributing_intervals(exact_frequencies([]), shape, cfg.eta, 2.0)
        for l in range(1, shape.k + 1):
            assert any(lo < l <= hi for lo, hi in spans)

    def test_contributing_mass_lower_bound(self):
        # contributing intervals carry at least (1-eta) of the moment
        cfg = moment_cfg(T=2**12, eta=0.25)
        shape = build_shape(cfg, beta=0.75, tau=8.0)
        stream = generate_stream(
            "zipf", StreamConfig(T=2**12, n=256), seed=4, s=1.3
        )
        table = exact_frequencies(stream)
        p = 2.0
        spans = contributing_intervals(table, shape, cfg.eta, p)
        total = exact_lp_moment(table, p)
        mass = sum(
            c**p
            for c in table.counts.values()
            if any(lo < c <= hi for lo, hi in spans)
        )
        assert mass >= (1 - cfg.eta) * total


class TestMomentState:
    def test_empty_stream_zero(self):
        state, bank = own_copy(moment_cfg(), NoiseContext(0, noise_off=True), 1.0)
        bank.clock.tick()
        state.ingest(EMPTY_EVENT)
        assert state.current() == 0.0

    def test_noise_off_p1_tracks_count(self):
        cfg = moment_cfg(p=1.0, T=256, n=32)
        state, bank = own_copy(cfg, NoiseContext(1, noise_off=True), 1.0)
        stream = generate_stream("zipf", StreamConfig(T=256, n=32), seed=6, s=1.2)
        out = 0.0
        for e in stream:
            bank.clock.tick()
            state.ingest(e)
            out = state.current()
        exact = float(exact_frequencies(stream).total_nonempty)
        assert (1 - 2 * cfg.eta) * exact <= out <= (1 + 2 * cfg.eta) * exact

    def test_noise_off_p2_tracks_moment(self):
        cfg = moment_cfg(p=2.0, T=256, n=64)
        state, bank = own_copy(cfg, NoiseContext(2, noise_off=True), 1.0)
        stream = generate_stream("zipf", StreamConfig(T=256, n=64), seed=8, s=1.4)
        out = 0.0
        for e in stream:
            bank.clock.tick()
            state.ingest(e)
            out = state.current()
        exact = exact_lp_moment(exact_frequencies(stream), 2.0)
        assert (1 - cfg.eta) ** 3 * exact <= out <= (1 + cfg.eta) * exact

    def test_upper_bound_property_noise_off(self):
        # high-frequency estimate never exceeds (1+eta) x the true interval mass
        cfg = moment_cfg(p=2.0, T=512, n=64)
        state, bank = own_copy(cfg, NoiseContext(3, noise_off=True), 1.0)
        stream = generate_stream("zipf", StreamConfig(T=512, n=64), seed=9, s=1.3)
        for e in stream:
            bank.clock.tick()
            state.ingest(e)
        table = exact_frequencies(stream)
        shape = state.shape
        eta, p = cfg.eta, cfg.p
        high_estimate = state.current() - sum(
            max(0.0, s) * (l**p)
            for l, s in enumerate(state.low_freq.current(), start=1)
        )
        true_interval_mass = sum(
            c**p
            for c in table.counts.values()
            if c > _geometric_boundary(shape.beta, eta, shape.q1)
        )
        assert high_estimate <= (1 + eta) * true_interval_mass + 1e-9

    def test_nonnegative_with_noise(self):
        cfg = moment_cfg(T=128, n=32)
        state, bank = own_copy(cfg, NoiseContext(4), 0.25)
        stream = generate_stream("uniform", StreamConfig(T=128, n=32), seed=1)
        for e in stream:
            bank.clock.tick()
            state.ingest(e)
            out = state.current()
            assert out >= 0.0


def _reference_current(state):
    """MomentState.current() as the loop computed it before the weights were
    precomputed, from the state's public parts: its heavy-hitter candidates
    (ranked and capped as report() ranked them), shape and low-frequency
    block."""
    cfg, shape = state.cfg, state.shape
    eta = cfg.eta
    z_hat = {q: 0.0 for q in range(shape.q1, shape.q2 + 1)}
    for i, sketch in enumerate(state.hh):
        ranked = sorted(sketch.candidates.items(), key=lambda kv: (-kv[1], kv[0]))
        counts = {}
        for f_hat in dict(ranked[: sketch.cfg.report_cap]).values():
            q = interval_index(shape, max(0.0, f_hat))
            if isinstance(q, int):
                counts[q] = counts.get(q, 0) + 1
        for q, cnt in counts.items():
            if i == 0 or cnt >= shape.qualify_floor:
                z_hat[q] = max(z_hat[q], cnt * 2.0**i)
    total = 0.0
    for q, z in z_hat.items():
        if z:
            total += z * _geometric_boundary(shape.beta, eta, q) ** cfg.p
    for l, s_hat in enumerate(state.low_freq.current(), start=1):
        total += max(0.0, s_hat) * l**cfg.p
    return total


class TestCurrentMatchesReferenceLoop:
    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_bit_identical_at_every_tick(self, p):
        # at epsilon 64 the top levels hold candidates for most ticks and
        # some low-frequency counters are negative, so every branch runs
        cfg = MomentConfig(p=p, epsilon=64.0, eta=0.25, xi=0.1, T=512, n=16,
                           copies=1, tau=4.0)
        state, bank = own_copy(cfg, NoiseContext(3), 16.0)
        reported = negative = 0
        for e in generate_stream("zipf", StreamConfig(T=512, n=16), seed=4, s=1.2):
            bank.clock.tick()
            state.ingest(e)
            assert state.current() == _reference_current(state)
            reported += bool(state.hh[0].candidates)
            negative += min(state.low_freq.current()) < 0
        assert reported > 100 and negative > 100


class TestPerTickWork:
    def test_work_per_tick_does_not_grow_with_the_candidates(self, monkeypatch):
        # noise off, every arrival is a candidate, so the levels hold more
        # candidates tick by tick; the work counted per tick is interval
        # lookups plus candidates sorted, and no wall time is taken
        work = [0]
        index = moment.interval_index

        def counted_index(shape, f_hat):
            work[0] += 1
            return index(shape, f_hat)

        def counted_sort(items, **kw):
            items = list(items)
            work[0] += len(items)
            return sorted(items, **kw)

        monkeypatch.setattr(moment, "interval_index", counted_index)
        monkeypatch.setattr(heavy_hitters, "sorted", counted_sort, raising=False)
        T, n, W = 4096, 1 << 14, 512
        cfg = MomentConfig(p=2.0, epsilon=1.0, eta=0.25, xi=0.1, T=T, n=n, copies=1)
        state, bank = own_copy(cfg, NoiseContext(1, noise_off=True), 1.0)
        per_tick, held = [], []
        for e in generate_stream("zipf", StreamConfig(T=T, n=n), seed=1, s=1.2):
            before = work[0]
            bank.clock.tick()
            state.ingest(e)
            state.current()
            per_tick.append(work[0] - before)
            held.append(sum(len(sketch.candidates) for sketch in state.hh))
        assert held[-1] >= 3 * held[W - 1]
        early, late = sum(per_tick[:W]) / W, sum(per_tick[-W:]) / W
        assert late <= 1.5 * early


class TestHeadDraws:
    def test_head_bank_read_every_tick_draws_blocks(self, monkeypatch):
        # moment-tick's shape at T = 512: three copies' head counters are one
        # bank, read every tick.  A one-row draw per tick makes T array draws
        # over its lanes; blocks of B rows make at most ceil(T/B) + levels
        T = 512
        cfg = MomentConfig(p=2, epsilon=1.0, eta=0.25, xi=0.1, T=T, n=1024, copies=3)
        est = moment_estimator(cfg, NoiseContext(7))
        head = est.copies[0].low_freq.counters
        assert all(copy.low_freq.counters is head for copy in est.copies)
        assert head.k > INNER_BUCKETS  # a substream bank's draws are not counted
        rows_ahead = min(BLOCK_LANES // head.k, head.levels)
        assert rows_ahead > 1
        draws = [0]
        draw = summing.node_laplace

        def counted(base, *args):
            draws[0] += np.size(base) == head.k
            return draw(base, *args)

        monkeypatch.setattr(summing, "node_laplace", counted)
        for e in generate_stream("zipf", StreamConfig(T=T, n=1024), seed=1, s=1.2):
            est.ingest(e)
            est.current()
        assert 0 < draws[0] <= math.ceil(T / rows_ahead) + tree_levels(T)


class TestPerArrivalWork:
    def test_new_substream_sketches_fold_no_keys(self, monkeypatch):
        # every fresh element builds a substream sketch at level 0 of each
        # copy, and at its own level; a sketch takes its hash seeds and bucket
        # bases from two prefixes its level folds once, at its first
        # substream, so full key folds do not grow with the sketches built
        # (three per sketch when each sketch folded its own keys)
        N = 512
        cfg = MomentConfig(p=2.0, epsilon=1.0, eta=0.25, xi=0.1, T=N, n=1 << 14, copies=3)
        est = moment_estimator(cfg, NoiseContext(7))
        folds = [0]
        fold = randomness._fold_key

        def counted(seed, key):
            folds[0] += 1
            return fold(seed, key)

        monkeypatch.setattr(randomness, "_fold_key", counted)
        for a in range(N):
            est.ingest(element(a))
        levels = [level for copy in est.copies for level in copy.hh]
        built = sum(len(level._sketches) for level in levels)
        assert built > N * len(est.copies)
        assert folds[0] == 2 * sum(bool(level._sketches) for level in levels)
        sketch = next(iter(levels[0]._sketches.values()))
        for obj in (sketch, sketch.h, sketch.g):
            assert not hasattr(obj, "__dict__")


class TestLevelTupleSensitivity:
    def test_joint_distance_and_touched_streams(self):
        # one substitution perturbs the (S0, S1..SL) tuple at one timestamp
        # only, touching S0 plus at most one level per stream version
        from dpsketch.streams import mapping_sensitivity, stream_distance

        cfg = moment_cfg(T=4, n=2, copies=1)

        def mapping(events):
            # S0 is the stream itself; S1..SL take each element at the level
            # the copy routes it to
            state, _ = own_copy(cfg, NoiseContext(5, noise_off=True), 1.0)
            levels = _routed_streams(
                lambda a: (state._level(a), element(a)), range(1, state.shape.L + 1), events
            )
            return (list(events),) + levels

        assert mapping_sensitivity(mapping, n=2, T=4, aggregate="joint") == 1
        # differing derived streams per neighboring pair: S0 and at most one
        # level per version, so at most 3 overall
        from dpsketch.streams import neighboring_streams, element as el

        base = [el(0), el(1), el(0), el(1)]
        derived = mapping(base)
        for nb in neighboring_streams(base, 2):
            other = mapping(nb)
            differing = sum(
                1 for a, b in zip(derived, other) if stream_distance(a, b) > 0
            )
            assert differing <= LEVEL_TUPLE_UNITS


class TestMomentEstimator:
    def test_budget_ledger(self):
        est = moment_estimator(moment_cfg(copies=3), NoiseContext(0))
        assert est.budget.epsilon_allocated == 1.0

    def test_default_copies(self):
        cfg = moment_cfg(copies=None, T=1024, xi=0.1)
        assert cfg.n_copies() == math.ceil(50 * math.log(3 * 1024 / 0.1))

    def test_determinism(self):
        cfg = moment_cfg(T=64, n=32, copies=2)
        stream = generate_stream("zipf", StreamConfig(T=64, n=32), seed=5, s=1.2)
        a = moment_estimator(cfg, NoiseContext(33))
        b = moment_estimator(cfg, NoiseContext(33))
        assert [a.feed(e) for e in stream] == [b.feed(e) for e in stream]

    def test_beta_varies_across_copies(self):
        est = moment_estimator(moment_cfg(copies=4), NoiseContext(6))
        betas = {copy.shape.beta for copy in est.copies}
        assert len(betas) > 1


class TestGeneralUniverse:
    def test_noise_on_run_above_the_small_universe_limit(self):
        # n = 2^15 takes the subsampled low-frequency block
        T, n = 256, 1 << 15
        stream = generate_stream("zipf", StreamConfig(T=T, n=n), seed=4, s=1.1)
        runs = []
        for _ in range(2):
            est = moment_estimator(moment_cfg(T=T, n=n, tau=4), NoiseContext(31))
            assert isinstance(est.copies[0].low_freq, LowFreqGeneral)
            runs.append([est.feed(e) for e in stream])
        assert runs[0] == runs[1]
        assert all(math.isfinite(v) and v >= 0 for v in runs[0])

    def test_low_freq_block_is_the_low_frequency_estimators(self):
        # above the small-universe limit the head block takes the distinct
        # backend's gamma and the copy's xi share, as lowfreq_estimator does
        cfg = moment_cfg(T=256, n=1 << 15, tau=4)
        ctx = NoiseContext(31).child("moment-copy", 0)
        state, bank = own_copy(cfg, ctx, 0.25)
        k = state.shape.k
        block = low_freq_block(cfg.n, k, cfg.T, cfg.eta, 0.25, cfg.xi / 3, ctx.child("moment-lf"),
                               bank)
        lf_cfg = LowFreqConfig(epsilon=0.25, eta=cfg.eta, xi=cfg.xi, k=k, n=cfg.n, T=cfg.T,
                               copies=1)
        assert state.low_freq.params == block.params
        assert block.params == lowfreq_estimator(lf_cfg, NoiseContext(2)).copies[0].params
        assert block.params.gamma1 > 0


class TestSharedClock:
    def test_levels_equal_sketches_on_their_own_clocks(self):
        # each level used to tick its own clock and take EMPTY_EVENT for
        # arrivals routed elsewhere; on one clock it sees its arrivals only
        from dpsketch.heavy_hitters import HHSketch
        from dpsketch.summing import Clock, StateError

        cfg = MomentConfig(p=2.0, epsilon=64.0, eta=0.25, xi=0.1, T=512, n=16,
                           copies=1, tau=4.0)
        state, bank = own_copy(cfg, NoiseContext(3), 16.0)
        twin, twin_bank = own_copy(cfg, NoiseContext(3), 16.0)
        clocks = [Clock(512) for _ in state.hh]
        twin.hh = [
            HHSketch(sketch.cfg, NoiseContext(3).child("moment-hh", i), 4.0, clocks[i], key=(i,),
                     bins=twin._interval_slot)
            for i, sketch in enumerate(state.hh)
        ]
        deep = 0
        for e in generate_stream("zipf", StreamConfig(T=512, n=16), seed=4, s=1.2):
            bank.clock.tick()
            state.ingest(e)
            level = state._level(e.value) if e.is_element() else None
            for i, sketch in enumerate(twin.hh):
                clocks[i].tick()
                sketch.ingest(e if i == 0 or i == level else EMPTY_EVENT)
            twin_bank.clock.tick()  # the head's clock
            twin.low_freq.ingest(e)
            assert [(s.candidates, s.report()) for s in state.hh] == [
                (s.candidates, s.report()) for s in twin.hh
            ]
            assert state.current() == twin.current()
            deep += any(s.candidates for s in state.hh[1:])
        assert deep > 100
        assert [s.t for s in state.hh] == [512] * len(state.hh)
        with pytest.raises(StateError):
            bank.clock.tick()
