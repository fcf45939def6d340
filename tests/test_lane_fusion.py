"""Boosted copies as lanes of one bank, the memoised full read, lane-read
state per read lane, and heavy-hitter copies on one clock.

The references are built the earlier way: one standalone sketch (its own
bank on its own clock) per L2 copy, one own-clock ``HHSketch`` per
heavy-hitter copy, and one standalone moment copy or low-frequency counter
block per window of a fused head bank.
"""

import gc
import statistics
import tracemalloc

import numpy as np
import pytest

from dpsketch import summing
from dpsketch.cli import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    _snapshot_load,
    command_params,
    drive,
    main,
)
from dpsketch.countsketch import CountSketchState, L2Config, L2Estimator
from dpsketch.distinct import (
    GROUP,
    INDICATOR_SENSITIVITY,
    TREE,
    DistinctConfig,
    distinct_estimator,
)
from dpsketch.heavy_hitters import HHConfig, HHSketch, hh_estimator
from dpsketch.low_freq import (
    LowFreqConfig,
    LowFreqGeneral,
    SubsampleLowFreqParams,
    _median_vectors,
    low_freq_block,
    lowfreq_estimator,
)
from dpsketch.moment import MomentConfig, MomentState, moment_estimator
from dpsketch.randomness import LevelRouter, NoiseContext, fold_key, median_boost
from dpsketch.streamio import write_stream_file
from dpsketch.streams import EMPTY_EVENT, StreamConfig, element, generate_stream
from dpsketch.summing import BinaryTreeMechanism, Clock, GroupingMechanism, StateError

from standalone import bank_on_clock, standalone_lowfreq, standalone_sketch


def _reference_copies(est, cfg, seed):
    eps = cfg.epsilon / (2 * len(est.copies))
    return [
        standalone_sketch(s.k, cfg.T, eps, NoiseContext(seed).child("l2-copy", c), key=(c,))
        for c, s in enumerate(est.copies)
    ]


class TestFusedL2:
    @pytest.mark.parametrize(
        "T,k,copies", [(1024, 512, 3), (100, 16, 5), (257, 8, 1), (1, 8, 3)]
    )
    def test_equals_per_copy_banks_bit_for_bit(self, T, k, copies):
        seed = T + k + copies
        cfg = L2Config(epsilon=1.0, eta=0.2, xi=0.1, n=64, T=T, copies=copies, buckets=k)
        est = L2Estimator(cfg, NoiseContext(seed))
        refs = _reference_copies(est, cfg, seed)
        assert len({id(s._bank) for s in est.copies}) == 1
        stream = generate_stream("zipf", StreamConfig(T=T, n=64), seed=seed, s=1.2)
        for t, e in enumerate(stream, start=1):
            est.feed(e)
            for ref in refs:
                ref.feed(e)
            lanes = (t % k, (7 * t) % k)
            ids = (0, t % 64)
            # three read orders: point reads, lane reads or full reads first
            order = t % 3
            if order == 0:
                points = [est.point_query(a) for a in ids]
                f2 = est.f2()
            elif order == 1:
                lane_reads = [[s.bucket_output(b) for b in lanes] for s in est.copies]
                f2 = est.f2()
                points = [est.point_query(a) for a in ids]
            else:
                f2 = est.f2()
                points = [est.point_query(a) for a in ids]
            if order != 1:
                lane_reads = [[s.bucket_output(b) for b in lanes] for s in est.copies]
            assert f2 == median_boost([r.f2().value for r in refs])
            assert [s.f2().value for s in est.copies] == [r.f2().value for r in refs]
            assert points == [median_boost([r.point_query(a) for r in refs]) for a in ids]
            assert lane_reads == [[r.bucket_output(b) for b in lanes] for r in refs]
            for s, r in zip(est.copies, refs):
                assert s.outputs().tolist() == r.outputs().tolist()
                assert s.running.tolist() == r.running.tolist()
                assert s.t == r.t == t

    def test_one_array_draw_per_tick(self, monkeypatch):
        # one new dyadic node per tick: the fused bank draws it once for
        # every copy, where per-copy banks drew it once per copy.  Read every
        # tick, the bank draws the new nodes of several ticks in one call, so
        # a tick makes at most one call, each over every lane of the bank
        widths, pairs, calls_per_tick = [], [], []

        def counting(base, a, b, scale):
            widths.append(np.size(base))
            pairs.extend(zip(np.atleast_1d(a).tolist(), np.atleast_1d(b).tolist()))
            return node_laplace(base, a, b, scale)

        node_laplace = summing.node_laplace
        monkeypatch.setattr(summing, "node_laplace", counting)
        T, k, copies = 64, 32, 3
        cfg = L2Config(epsilon=1.0, eta=0.2, xi=0.1, n=64, T=T, copies=copies, buckets=k)
        est = L2Estimator(cfg, NoiseContext(2))
        for t in range(1, T + 1):
            before = len(widths)
            est.feed(element(t % 5))
            est.f2()
            est.point_query(0)
            calls_per_tick.append(len(widths) - before)
        assert set(widths) == {k * copies}
        assert max(calls_per_tick) == 1 and sum(calls_per_tick) < T
        # each tick's new node, drawn exactly once over the run
        new_nodes = [((t & -t).bit_length() - 1, (t >> ((t & -t).bit_length() - 1)) - 1)
                     for t in range(1, T + 1)]
        assert sorted(pairs) == sorted(new_nodes)


class TestMemo:
    def bank(self, clock=None):
        lanes = [(11, ("tree", "m", 0), range(4)), (12, ("tree", "m", 1), range(4))]
        clock = Clock(16) if clock is None else clock
        bank = BinaryTreeMechanism.bank(16, NoiseContext(3), clock)
        for seed, key, ids in lanes:
            bank.join(fold_key(seed, key), ids, 1.0)
        return bank

    def singles(self):
        return [
            BinaryTreeMechanism(16, 1.0, NoiseContext(seed), key=("m", c, i))
            for c, seed in enumerate((11, 12))
            for i in range(4)
        ]

    def test_full_read_is_memoised_and_read_only(self):
        bank = self.bank()
        bank.clock.tick()
        bank.add(2.0, 5)
        first = bank.current()
        assert bank.current() is first
        with pytest.raises(ValueError):
            first[0] = 1.0
        assert bank.lane_current(5) == first[5]

    def test_add_tick_and_restore_clear_the_memo(self):
        bank, singles = self.bank(), self.singles()

        def agree():
            want = [s.current() for s in singles]
            assert bank.current().tolist() == want
            assert [bank.lane_current(j) for j in range(8)] == want

        bank.clock.tick()
        for s in singles:
            s.feed(0.0)
        agree()
        bank.add(3.0, 6)  # an add at the memo's timestamp
        singles[6].add(3.0)
        agree()
        bank.clock.tick()  # a tick with no add
        for s in singles:
            s.feed(0.0)
        agree()
        bank.clock.t = 9  # a restore: the clock's owner sets its time
        bank.restore(np.arange(8.0))
        for j, s in enumerate(singles):
            s.clock.t = 9
            s.restore([float(j)])
        agree()
        bank.restore(np.arange(8.0) * 2)  # a restore at the memo's timestamp
        for j, s in enumerate(singles):
            s.restore([2.0 * j])
        agree()

    def test_shared_clock_tick_clears_the_memo(self):
        clock = Clock(16)
        bank = self.bank(clock)
        clock.tick()
        bank.add(1.0, 0)
        at_one = bank.current()
        clock.tick()
        assert bank.current() is not at_one
        assert bank.current().tolist() != at_one.tolist()  # new node noise
        assert bank.lane_current(0) == bank.current()[0]

    def test_sketch_outputs_follow_observe(self):
        cfg = L2Config(epsilon=1.0, eta=0.2, xi=0.1, n=64, T=8, copies=2, buckets=4)
        est = L2Estimator(cfg, NoiseContext(1, noise_off=True))
        est.feed(element(3))
        before = est.copies[1].outputs().tolist()
        est.copies[1].ingest(element(3))  # a second credit at the same t
        after = est.copies[1].outputs().tolist()
        bucket, sign = est.copies[1]._route(3)
        assert after[bucket] == before[bucket] + sign
        assert est.copies[1].f2().value == float(np.dot(after, after))


class TestLaneReadMemory:
    def test_point_query_keeps_state_for_its_lane_only(self):
        # heavy-hitter substream sketches: k = 8 buckets, T = 8192, many
        # sketches on one clock, each read by one point query; a bank that
        # kept per-level state for all its lanes took about 4.3 KB a sketch
        count, k, T = 2000, 8, 8192
        clock = Clock(T)
        for _ in range(T - 1):
            clock.tick()
        ctx = NoiseContext(3)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            sketches = []
            for i in range(count):
                bank = BinaryTreeMechanism.bank(T, ctx, clock)
                sketch = CountSketchState(k, 0.5, bank, CountSketchState.key_folds(ctx, ("sub", i)))
                sketch.ingest(element(i))
                sketch.point_query(i)
                sketches.append(sketch)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (after - before) / count < 3500


def _union_median(reports):
    # the boosted heavy hitters' combine, written out as a loop
    union = {}
    for rep in reports:
        for ident, f_hat in rep.items():
            union.setdefault(ident, []).append(f_hat)
    return {ident: statistics.median(vals) for ident, vals in union.items()}


class TestHHSharedClock:
    def test_reports_equal_per_copy_clocks(self):
        T, seed = 256, 4
        cfg = HHConfig(p=2.0, k=2, eta=0.2, epsilon=8.0, xi=0.1, T=T, n=32, copies=3)
        est = hh_estimator(cfg, NoiseContext(seed))
        clocks = [Clock(T) for _ in range(3)]
        refs = [
            HHSketch(cfg, NoiseContext(seed).child("hh-copy", c), cfg.epsilon / (4 * 3),
                     clocks[c], key=(c,))
            for c in range(3)
        ]
        stream = generate_stream("zipf", StreamConfig(T=T, n=32), seed=seed, s=1.5)
        reported = 0
        for e in stream:
            got = est.feed(e)
            reports = []
            for clock, r in zip(clocks, refs):
                clock.tick()
                r.ingest(e)
                reports.append(r.current())
            want = _union_median(reports)
            assert got == want
            assert est.current() == want
            reported += len(got)
        assert reported > 0  # the comparison covers non-empty reports
        assert [s.t for s in est.copies] == [T] * 3
        with pytest.raises(StateError):
            est.feed(EMPTY_EVENT)


class TestSnapshot:
    def test_noisy_snapshot_point_queries_equal_the_live_estimator(self, tmp_path):
        T, n = 128, 32
        stream = generate_stream("zipf", StreamConfig(T=T, n=n), seed=8, s=1.2)
        path = tmp_path / "stream.txt"
        write_stream_file(path, stream, StreamConfig(T=T, n=n))
        snap = tmp_path / "sketch.dpcs"
        code = main(
            ["f2", "--epsilon", "1", "--T", str(T), "--n", str(n), "--copies", "3",
             "--buckets", "16", "--seed", "8", "--input", str(path),
             "--output", str(tmp_path / "f2.csv"), "--snapshot-out", str(snap)]
        )
        assert code == 0
        blob = snap.read_bytes()
        assert blob[:5] == SNAPSHOT_MAGIC and blob[5:7] == SNAPSHOT_VERSION.to_bytes(2, "little")
        assert SNAPSHOT_VERSION == 3
        params = command_params("f2", epsilon=1.0, T=T, n=n, copies=3, buckets=16)
        live = drive("f2", params, stream, NoiseContext(8))[0].est
        loaded = _snapshot_load(str(snap))
        assert isinstance(loaded, L2Estimator)
        assert loaded.cfg == live.cfg
        assert loaded.t == live.t == T
        assert loaded.running.tolist() == live.running.tolist()
        assert any(loaded.running)
        for live_copy, copy in zip(live.copies, loaded.copies, strict=True):
            assert copy.outputs().tolist() == live_copy.outputs().tolist()
        assert [loaded.point_query(i) for i in range(n)] == [live.point_query(i) for i in range(n)]
        assert loaded.f2() == live.f2()


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestFusedHeads:
    """Head counters as windows of one bank on one clock, each window at its
    owner's epsilon, against references that hold their own bank and clock."""

    def test_moment_copies_with_different_k(self):
        T, n, copies, seed = 512, 1024, 3, 1
        cfg = MomentConfig(p=2.0, epsilon=1.0, eta=0.25, xi=0.1, T=T, n=n, copies=copies)
        est = moment_estimator(cfg, NoiseContext(seed))
        unit = cfg.epsilon / (4 * copies)
        owners = [NoiseContext(seed).child("moment-copy", c) for c in range(copies)]
        banks = [bank_on_clock(T, owner) for owner in owners]
        refs = [MomentState(cfg, owner, unit, bank) for owner, bank in zip(owners, banks)]
        assert len({state.shape.k for state in est.copies}) == copies
        assert [state.shape.k for state in est.copies] == [r.shape.k for r in refs]
        assert len({id(state.low_freq.counters) for state in est.copies}) == 1
        stream = generate_stream("zipf", StreamConfig(T=T, n=n), seed=seed, s=1.2)
        for e in stream:
            est.ingest(e)
            for ref, bank in zip(refs, banks):
                bank.clock.tick()
                ref.ingest(e)
            for state, ref in zip(est.copies, refs):
                assert _bits(state.low_freq.current()) == _bits(ref.low_freq.current())
            want = [ref.current() for ref in refs]
            assert _bits([state.current() for state in est.copies]) == _bits(want)
            assert _bits(est.current()) == _bits(median_boost(want))

    @pytest.mark.parametrize("copies", [None, 2])
    def test_general_universe_level_bank(self, copies):
        # n = 2^15: the L level blocks of a LowFreqGeneral (copies=None: one
        # block on a bank of its own; else every block of a boosted estimator)
        # share one bank, where each level used to be its own bank on its own
        # clock.
        n, k, T, seed, epsilon = 1 << 15, 3, 300, 9, 8.0
        if copies is None:
            bank = bank_on_clock(T, NoiseContext(seed))
            blocks = [low_freq_block(n, k, T, 0.25, epsilon, 0.05, NoiseContext(seed), bank)]
            owners = [NoiseContext(seed)]
            eps_counter = epsilon / 3 / (8 * k)

            def feed(e):
                bank.clock.tick()
                blocks[0].ingest(e)
        else:
            cfg = LowFreqConfig(epsilon=epsilon, eta=0.25, xi=0.1, k=k, n=n, T=T, copies=copies)
            est = lowfreq_estimator(cfg, NoiseContext(seed))
            blocks = est.copies
            owners = [NoiseContext(seed).child("lowfreq-copy", c) for c in range(copies)]
            eps_counter = epsilon / copies / 3 / (8 * k)
            feed = est.ingest
        assert all(isinstance(block, LowFreqGeneral) for block in blocks)
        assert len({id(level.counters) for block in blocks for level in block.levels}) == 1
        refs = [
            [standalone_lowfreq(block.params.m, k, T, eps_counter, owner.child("level", i))
             for i in range(1, block.params.L + 1)]
            for block, owner in zip(blocks, owners)
        ]
        stream = generate_stream("zipf", StreamConfig(T=T, n=n), seed=seed, s=1.05)
        for e in stream:
            feed(e)
            for block, levels in zip(blocks, refs):
                routed, hashed = block._route(e.value) if e.is_element() else (None, 0)
                for i, ref in enumerate(levels, start=1):
                    ref.ingest(element(hashed) if i == routed else EMPTY_EVENT)
                want = _bits([ref.current() for ref in levels])
                assert _bits([level.current() for level in block.levels]) == want

    def test_general_universe_blocks_share_one_draw_per_stale_level(self, monkeypatch):
        # noise on, the distinct estimate above the floor: with 1, 2 or 4
        # blocks on one bank, the reads draw the same nodes, each once over
        # the run and over every lane of the bank, and each block releases
        # its selected level's slice of the bank's full read, rescaled
        class Distinct:
            def __init__(self):
                self.seen = set()

            def ingest(self, e):
                if e.is_element():
                    self.seen.add(e.value)

            def current(self):
                return float(len(self.seen))

        T, k, L, floor = 256, 3, 6, 2.0
        params = SubsampleLowFreqParams(L=L, lam=4, m=1 << 30, gamma1=0.0, selection_floor=floor)
        stream = list(generate_stream("uniform", StreamConfig(T=T, n=1 << 15), seed=5))
        draw, widths, pairs = summing.node_laplace, [], []

        def counted(base, a, b, scale):
            widths.append(np.size(base))
            pairs.extend(zip(np.atleast_1d(a).tolist(), np.atleast_1d(b).tolist()))
            return draw(base, a, b, scale)

        drawn = {}
        for count in (1, 2, 4):
            ctx = NoiseContext(5)
            bank = bank_on_clock(T, ctx)
            blocks = [
                LowFreqGeneral(params, k, 1.0, ctx.child("block", b), Distinct(), bank)
                for b in range(count)
            ]
            selected = set()
            widths.clear()
            pairs.clear()
            for e in stream:
                bank.clock.tick()
                for block in blocks:
                    block.ingest(e)
                monkeypatch.setattr(summing, "node_laplace", counted)
                got = [block.current() for block in blocks]
                monkeypatch.setattr(summing, "node_laplace", draw)
                assert set(widths) <= {L * k * count}
                d = blocks[0].d_hat.current()
                deep = [i for i in range(1, L + 1) if 2**i * floor <= d]
                for block, out in zip(blocks, got):
                    if d > floor and deep:
                        i = deep[-1]
                        lo = block.levels[i - 1]._lo
                        want = bank.current()[lo : lo + k] * 2.0**i
                        selected.add(i)
                    else:
                        want = np.zeros(k)
                    assert _bits(out) == _bits(want)
            assert len(selected) >= 3
            assert len(set(pairs)) == len(pairs)  # no node drawn twice
            drawn[count] = set(pairs)
        assert drawn[1]
        assert drawn[2] == drawn[1]
        assert drawn[4] == drawn[1]

    def test_lowfreq_estimator_copies(self):
        n, k, T, copies, seed = 64, 4, 256, 3, 12
        cfg = LowFreqConfig(epsilon=2.0, eta=0.25, xi=0.1, k=k, n=n, T=T, copies=copies)
        est = lowfreq_estimator(cfg, NoiseContext(seed))
        assert len({id(block.counters) for block in est.copies}) == 1
        refs = [
            standalone_lowfreq(n, k, T, cfg.epsilon / copies / (8 * k),
                               NoiseContext(seed).child("lowfreq-copy", c))
            for c in range(copies)
        ]
        for e in generate_stream("zipf", StreamConfig(T=T, n=n), seed=seed, s=1.2):
            got = est.feed(e)
            for ref in refs:
                ref.ingest(e)
            want = [ref.current() for ref in refs]
            assert _bits([block.current() for block in est.copies]) == _bits(want)
            assert _bits(got) == _bits(_median_vectors(want))


class TestDistinctLevelLanes:
    """General-universe distinct levels against standalone counters: a
    single tree counter or a grouping mechanism per level under
    ``ctx.child("distinct-copy", c).child("level", i)``, fed the indicator
    of each first (level, hashed id) pair."""

    n, T, eps, eta, xi = 1 << 15, 1024, 64.0, 0.45, 0.1

    def _estimator(self, variant, copies, seed, noise_off=False):
        cfg = DistinctConfig(epsilon=self.eps, eta=self.eta, xi=self.xi, n=self.n, T=self.T,
                             variant=variant, copies=copies)
        return distinct_estimator(cfg, NoiseContext(seed, noise_off))

    @pytest.mark.parametrize("variant", [TREE, GROUP])
    @pytest.mark.parametrize("noise_off", [False, True])
    @pytest.mark.parametrize("copies", [1, 3])
    def test_levels_equal_standalone_counters(self, variant, noise_off, copies):
        seed = 11 + copies
        est = self._estimator(variant, copies, seed, noise_off)
        p = est.copies[0].params
        eps_level = self.eps / copies / INDICATOR_SENSITIVITY
        xi_level = (self.xi / 2) / (p.L * copies)
        copy_ctxs = [NoiseContext(seed, noise_off).child("distinct-copy", c) for c in range(copies)]
        routers = [LevelRouter(p.L, p.lam, p.m, ctx, "subsample") for ctx in copy_ctxs]
        refs = [
            [BinaryTreeMechanism(self.T, eps_level, ctx.child("level", i)) if variant == TREE
             else GroupingMechanism(self.T, eps_level, self.eta, xi_level, ctx.child("level", i))
             for i in range(1, p.L + 1)]
            for ctx in copy_ctxs
        ]
        seen = [set() for _ in range(copies)]
        filled = set()
        stream = generate_stream("uniform", StreamConfig(T=self.T, n=self.n), seed=seed)
        for e in stream:
            got = est.feed(e)
            selections = []
            for c, (copy, levels) in enumerate(zip(est.copies, refs)):
                pair = routers[c](e.value) if e.is_element() else (None, 0)
                first = pair[0] is not None and pair not in seen[c]
                seen[c].add(pair)
                for i, ref in enumerate(levels, start=1):
                    ref.feed(int(first and i == pair[0]))
                want = [ref.current() for ref in levels]
                assert _bits(copy.level_outputs()) == _bits(want)
                filled.update(i for i, s in enumerate(want, start=1) if s >= 1)
                deep = [i for i, s in enumerate(want, start=1) if s >= p.threshold]
                selections.append(float(want[deep[-1] - 1]) * 2.0 ** deep[-1] if deep else 0.0)
            assert _bits([got]) == _bits([median_boost(selections)])
        assert len(filled) >= 2  # the grouping variant releases on the top levels only

    def test_tree_levels_share_one_draw_per_stale_level(self, monkeypatch):
        # every array draw spans all copies' level lanes, each node is drawn
        # once over the run, and no level draws a scalar of its own
        copies = 3
        est = self._estimator(TREE, copies, 4)
        lanes = copies * est.copies[0].params.L
        widths, pairs, scalars = [], [], [0]
        draw, scalar = summing.node_laplace, summing.word_laplace

        def counted(base, a, b, scale):
            widths.append(np.size(base))
            pairs.extend(zip(np.atleast_1d(a).tolist(), np.atleast_1d(b).tolist()))
            return draw(base, a, b, scale)

        def counted_scalar(z, scale):
            scalars[0] += 1
            return scalar(z, scale)

        monkeypatch.setattr(summing, "node_laplace", counted)
        monkeypatch.setattr(summing, "word_laplace", counted_scalar)
        for e in generate_stream("uniform", StreamConfig(T=self.T, n=self.n), seed=4):
            est.feed(e)
        assert est.bank.k == lanes
        assert set(widths) == {lanes}
        assert scalars[0] == 0
        ticks = range(1, self.T + 1)
        levels = [(s & -s).bit_length() - 1 for s in ticks]  # tick s brings one new node
        assert sorted(pairs) == sorted((l, (s >> l) - 1) for s, l in zip(ticks, levels))
