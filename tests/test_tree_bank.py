"""The tree-counter bank against the per-node construction it replaced.

The reference below is the earlier per-node loop: one keyed Laplace draw per
dyadic node, cached in a dict by node.  The bank must give the same noise:
bit for bit for tree mechanisms and low-frequency counters (which add node
noise to the running sum highest level first, as the reference did), and to
the last bits for CountSketch buckets (whose reference summed the node noise
before adding the running count).
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from dpsketch import summing
from dpsketch.countsketch import CountSketchState
from dpsketch.randomness import NoiseContext, fold_key, fold_lanes, node_laplace
from dpsketch.randomness import _NODE_A, _NODE_B
from dpsketch.streams import EMPTY_EVENT, StreamConfig, element, generate_stream
from dpsketch.summing import BLOCK_LANES, BinaryTreeMechanism, Clock, StateError

from standalone import bank_on_clock, standalone_lowfreq, standalone_sketch


def _dyadic_nodes(t):
    nodes = []
    pos = 0
    for bit in range(t.bit_length() - 1, -1, -1):
        if t & (1 << bit):
            nodes.append((bit, pos >> bit))
            pos += 1 << bit
    return nodes


class ReferenceNoise:
    """Per-node Laplace noise of one counter, cached by node as before."""

    def __init__(self, seed, key, T, epsilon):
        levels = math.ceil(math.log2(T)) + 1 if T > 1 else 1
        self.scale = levels / epsilon
        self.base = fold_key(seed, key)
        self.cache = {}

    def nodes(self, t):
        out = []
        for level, index in _dyadic_nodes(t):
            node = (level, index)
            if node not in self.cache:
                self.cache[node] = node_laplace(self.base, level, index, self.scale)
            out.append(self.cache[node])
        return out

    def tree_output(self, running, t):
        total = running
        for noise in self.nodes(t):
            total += noise
        return total

    def bucket_output(self, running, t):
        total = 0.0
        for noise in self.nodes(t):
            total += noise
        return running + total


def _unmix64(z):
    # inverse of the splitmix64 finalizer
    def unshift(z, s):
        x = z
        for _ in range(64 // s + 1):
            x = z ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift((z * pow(0x94D049BB133111EB, -1, 2**64)) % 2**64, 27)
    return unshift((z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) % 2**64, 30)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestArrayDraw:
    def test_array_draw_equals_scalar_draw_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        bases = rng.integers(0, 2**64, size=120_000, dtype=np.uint64, endpoint=False)
        for level, index, scale in [(0, 0, 1.0), (5, 31, 7.25), (12, 4094, 0.013)]:
            got = node_laplace(bases, level, index, scale)
            want = [node_laplace(b, level, index, scale) for b in bases.tolist()]
            assert np.array_equal(_bits(got), _bits(want))

    def test_per_lane_scales_equal_scalar_draws_bit_for_bit(self):
        # a bank whose lane groups run at their own epsilon scales one array
        # draw per lane
        rng = np.random.default_rng(7)
        bases = rng.integers(0, 2**64, size=50_000, dtype=np.uint64, endpoint=False)
        scales = rng.choice([11 / 0.00169, 11 / 0.00174, 11 / 0.0018, 0.013], size=bases.size)
        got = node_laplace(bases, 9, 77, scales)
        want = [node_laplace(b, 9, 77, c) for b, c in zip(bases.tolist(), scales.tolist())]
        assert np.array_equal(_bits(got), _bits(want))

    def test_edge_words_equal_scalar_draw(self):
        # bases whose mixed word gives u = 2^-53 (words 0 and 2^11),
        # u = 1 - 2^-53 and q = 0
        level, index, scale = 3, 5, 2.5
        offset = (_NODE_A * level + _NODE_B * index) % 2**64
        words = [0, 1 << 11, ((1 << 53) - 1) << 11, 1 << 63]
        bases = np.array([_unmix64(w) ^ offset for w in words], dtype=np.uint64)
        got = node_laplace(bases, level, index, scale)
        want = [node_laplace(b, level, index, scale) for b in bases.tolist()]
        assert np.array_equal(_bits(got), _bits(want))
        tail = -52 * math.log(2) * scale  # the log at 1 - 2 |q| = 2^-52
        assert want == pytest.approx([tail, tail, -tail, 0.0], rel=1e-15, abs=0)

    def test_lane_fold_equals_key_fold(self):
        base = fold_key(99, ("cs", 3, "bucket"))
        lanes = np.arange(2000, dtype=np.uint64)
        want = [fold_key(99, ("cs", 3, "bucket", i)) for i in range(2000)]
        assert fold_lanes(base, lanes).tolist() == want


class TestClock:
    def test_nodes_equal_reference_decomposition(self):
        clock = Clock(4096)
        assert clock.nodes() == []
        for t in range(1, 4097):
            clock.tick()
            assert clock.nodes() == _dyadic_nodes(t)

    def test_nodes_follow_a_restored_timestamp(self):
        T, k, eps = 512, 16, 0.5
        stream = generate_stream("zipf", StreamConfig(T=T, n=64), seed=6, s=1.2)
        live = standalone_sketch(k, T, eps, NoiseContext(6), key=(1,))
        restored = standalone_sketch(k, T, eps, NoiseContext(6), key=(1,))
        for t, e in enumerate(stream, start=1):
            live.feed(e)
            if t <= 5:
                restored.feed(e)
                restored.outputs()  # the clock's cache now holds t = 5
        restored._bank.restore(live.t, live.running)
        assert restored._bank._clock.nodes() == _dyadic_nodes(T)
        assert restored.outputs().tolist() == live.outputs().tolist()
        assert [restored.bucket_output(i) for i in range(k)] == live.outputs().tolist()


class TestTreeMechanism:
    @pytest.mark.parametrize("T,seed", [(1, 0), (7, 1), (64, 2), (1000, 3)])
    def test_equals_reference_at_every_t(self, T, seed):
        ref = ReferenceNoise(seed, ("tree", "k", 5), T, 0.5)
        m = BinaryTreeMechanism(T, 0.5, NoiseContext(seed), key=("k", 5))
        rng = np.random.default_rng(seed)
        running = 0.0
        for t in range(1, T + 1):
            x = int(rng.integers(-3, 4))
            running += x
            got = m.feed(x)
            assert type(got) is float
            assert _bits(got) == _bits(ref.tree_output(running, t))

    def test_bank_lanes_equal_single_counters(self):
        T, lanes = 100, [3, 9, 27]
        bank = bank_on_clock(T, NoiseContext(8))
        bank.join(fold_key(8, ("tree", "b")), lanes, 1.0)
        singles = [
            BinaryTreeMechanism(T, 1.0, NoiseContext(8), key=("b", lane)) for lane in lanes
        ]
        for t in range(1, T + 1):
            bank.clock.tick()
            for j, single in enumerate(singles):
                bank.add(j - 1, j)
                single.feed(j - 1)
            if t % 3:
                assert bank.current().tolist() == [s.current() for s in singles]
            else:
                # lane reads alone, so full reads meet slots filled lane by lane
                assert [bank.lane_current(j) for j in range(3)] == [
                    s.current() for s in singles
                ]


class TestJoinedGroups:
    def test_groups_at_their_own_epsilon_equal_single_counters(self):
        # groups of different widths and epsilons, joined before and after
        # the first reads, against one counter per lane
        T = 200
        spec = [(5, ("tree", "a"), [1, 2, 3], 0.5), (6, ("tree", "b"), [4], 2.0),
                (7, ("tree", "a"), [1, 2], 0.125)]
        bank = bank_on_clock(T, NoiseContext(1))
        singles, los = [], []
        for seed, key, ids, eps in spec[:2]:
            los.append(bank.join(fold_key(seed, key), ids, eps))
            singles += [BinaryTreeMechanism(T, eps, NoiseContext(seed), key=(key[1], i))
                        for i in ids]
        assert los == [0, 3]
        for t in range(1, T + 1):
            if t == 50:
                seed, key, ids, eps = spec[2]
                assert bank.join(fold_key(seed, key), ids, eps) == 4
                for i in ids:  # counters that start at 0 now
                    singles.append(BinaryTreeMechanism(T, eps, NoiseContext(seed), key=(key[1], i)))
                    singles[-1].restore(t - 1, [0.0])
            bank.clock.tick()
            for j, single in enumerate(singles):
                bank.add(j % 3 - 1, j)
                single.feed(j % 3 - 1)
            want = [single.current() for single in singles]
            if t % 2:
                assert np.array_equal(_bits(bank.current()), _bits(want))
            else:
                got = [bank.lane_current(j) for j in range(len(singles))]
                assert np.array_equal(_bits(got), _bits(want))
        for lane in (0, 3, 4):
            assert bank.error_bound(0.1, lane) == singles[lane].error_bound(0.1)

    def test_credit_before_the_first_tick_is_refused(self):
        # no dyadic node covers [1, 0], so a credit there would read exact
        bank = bank_on_clock(8, NoiseContext(1))
        bank.join(fold_key(1, ("tree",)), [0, 1], 1.0)
        with pytest.raises(StateError):
            bank.add(1.0, 0)
        bank.clock.tick()
        bank.add(1.0, 0)
        assert bank.running.tolist() == [1.0, 0.0]

    def test_a_bank_is_advanced_by_its_clock_alone(self):
        # a bank is built on a given clock, which its builder ticks: the bank
        # has no tick of its own, and feed, the single counter's tick, refuses
        with pytest.raises(TypeError):
            BinaryTreeMechanism.bank(8, NoiseContext(1))
        clock = Clock(8)
        bank = BinaryTreeMechanism.bank(8, NoiseContext(1), clock)
        bank.join(fold_key(1, ("tree",)), [0, 1], 1.0)
        assert not hasattr(bank, "tick")
        for _ in range(2):
            with pytest.raises(StateError):
                bank.feed(1.0)
            clock.tick()
        assert bank.t == clock.t == 2
        assert bank.running.tolist() == [0.0, 0.0]

    def test_join_needs_a_positive_epsilon(self):
        bank = bank_on_clock(8, NoiseContext(1))
        for eps in (None, 0.0, -1.0):
            with pytest.raises(ValueError):
                bank.join(fold_key(1, ("tree",)), [0], eps)


class TestLowFreqSmall:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_equals_reference_at_every_t(self, seed):
        n, k, T, eps = 16, 5, 300, 0.25
        stream = generate_stream("zipf", StreamConfig(T=T, n=n), seed=seed, s=1.1)
        d = standalone_lowfreq(n, k, T, eps, NoiseContext(seed))
        refs = [ReferenceNoise(seed, ("tree", "lfs", i), T, eps) for i in range(1, k + 1)]
        freq = {}
        counts = [0.0] * k
        for t, e in enumerate(stream, start=1):
            if e.is_element():
                j = freq.get(e.value, 0) + 1
                freq[e.value] = j
                if j <= k:
                    counts[j - 1] += 1
                if 2 <= j <= k + 1:
                    counts[j - 2] -= 1
            d.ingest(e)
            got = d.current()
            assert isinstance(got, list)
            want = [ref.tree_output(counts[i], t) for i, ref in enumerate(refs)]
            assert np.array_equal(_bits(got), _bits(want))


class TestCountSketch:
    @pytest.mark.parametrize("seed", [0, 11])
    def test_outputs_match_reference_and_point_reads(self, seed):
        k, T, eps = 24, 200, 0.3
        stream = generate_stream("zipf", StreamConfig(T=T, n=64), seed=seed, s=1.2)
        s = standalone_sketch(k, T, eps, NoiseContext(seed), key=(2,))
        refs = [ReferenceNoise(seed, ("cs", 2, "bucket", i), T, eps) for i in range(k)]
        counts = [0] * k
        for t, e in enumerate(stream, start=1):
            if e.is_element():
                b, g = s._route(e.value)
                counts[b] += g
            s.feed(e)
            # point reads first on odd ticks, full reads first on even ones
            if t % 2:
                points = [s.bucket_output(i) for i in range(k)]
                outs = s.outputs()
            else:
                outs = s.outputs()
                points = [s.bucket_output(i) for i in range(k)]
            assert outs.tolist() == points
            want = np.array([ref.bucket_output(counts[i], t) for i, ref in enumerate(refs)])
            np.testing.assert_allclose(outs, want, rtol=1e-12, atol=0)
            f2 = s.f2().value
            assert f2 == pytest.approx(float(np.sum(want**2)), rel=1e-12, abs=0)

    def test_shared_clock_sketches_read_their_own_lanes(self):
        # heavy-hitter substreams: several sketches advanced by one clock,
        # read only by point queries between full reads
        T, k = 128, 8
        clock = Clock(T)
        ctx = NoiseContext(21)
        sketches = [
            CountSketchState(
                k, 1.0, BinaryTreeMechanism.bank(T, ctx, clock),
                CountSketchState.key_folds(ctx, ("sub", i)),
            )
            for i in range(3)
        ]
        refs = [
            [ReferenceNoise(21, ("cs", "sub", i, "bucket", b), T, 1.0) for b in range(k)]
            for i in range(3)
        ]
        for t in range(1, T + 1):
            clock.tick()
            i = t % 3
            sketches[i].observe(element(t))
            counts = sketches[i].running
            for b in (t % k, (3 * t) % k):
                got = sketches[i].bucket_output(b)
                want = refs[i][b].bucket_output(float(counts[b]), t)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            if t % 16 == 0:
                outs = sketches[i].outputs()
                assert outs.tolist() == [sketches[i].bucket_output(b) for b in range(k)]

    def test_noise_memory_stays_bounded_in_t(self):
        # the earlier per-node cache grew by about k entries per tick
        k, T = 2000, 512
        s = standalone_sketch(k, T, 1.0, NoiseContext(4))
        gc.collect()
        tracemalloc.start()
        try:
            for t in range(1, T + 1):
                s.feed(element(t % 97) if t % 2 else EMPTY_EVENT)
                s.f2()
                if t == 256:
                    gc.collect()
                    mid, _ = tracemalloc.get_traced_memory()
            gc.collect()
            end, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert end - mid < 1 << 20


class TestBlocksAhead:
    """A bank read at consecutive ticks draws its next ticks' new nodes in one
    block.  Reads in every pattern must equal the per-node reference loop."""

    @staticmethod
    def new_node(t):
        level = (t & -t).bit_length() - 1
        return level, (t >> level) - 1

    @pytest.mark.parametrize("lanes", [5, 96, 215, 2100])
    @pytest.mark.parametrize("pattern", ["every", "alternate", "bursts"])
    def test_reads_equal_reference_loop(self, lanes, pattern):
        T, seed, eps = 96, lanes, 0.5
        read = {
            "every": lambda t: True,
            "alternate": lambda t: t % 2 == 0,
            "bursts": lambda t: t % 11 < 4 or t == T,
        }[pattern]
        key = ("tree", "blk", 0)
        bank = bank_on_clock(T, NoiseContext(seed))
        rows_ahead = min(BLOCK_LANES // lanes, bank.levels)
        assert (rows_ahead > 1) == (lanes <= 1024)
        bank.join(fold_key(seed, key), range(lanes), eps)
        refs = [ReferenceNoise(seed, key + (i,), T, eps) for i in range(lanes)]
        running = np.zeros(lanes)
        rng = np.random.default_rng(seed)
        t, reads, held, joined, restored = 0, 0, 0, False, False
        while t < T:
            t = bank.clock.tick()
            if t == 30 and not joined:  # a group of 7 lanes joins mid-stream
                joined, key = True, ("tree", "blk", 1)
                assert bank.join(fold_key(seed, key), range(7), 2.0) == lanes
                refs += [ReferenceNoise(seed, key + (i,), T, 2.0) for i in range(7)]
                running = np.append(running, np.zeros(7))
                assert bank._ahead is None
            if t == 60 and not restored:  # a snapshot restore rewinds the clock
                restored = True
                running = rng.integers(-5, 6, size=bank.k).astype(float)
                bank.restore(t - 9, running)
                t -= 9
            for j in rng.integers(0, bank.k, size=3).tolist():
                x = float(rng.integers(-2, 3))
                bank.add(x, j)
                running[j] += x
            if not read(t):
                continue
            reads += 1
            ref = [r.tree_output(float(running[j]), t) for j, r in enumerate(refs)]
            probe = rng.integers(0, bank.k, size=4).tolist()
            if t % 3 == 0:  # lane reads before the full read, from lane records
                got = [bank.lane_current(j) for j in probe]
                assert np.array_equal(_bits(got), _bits([ref[j] for j in probe]))
            assert np.array_equal(_bits(bank.current()), _bits(ref))
            assert [bank.lane_current(j) for j in probe] == [ref[j] for j in probe]
            ahead = bank._ahead
            if ahead is not None:  # one block, of at most BLOCK_LANES draws
                first, block = ahead
                held += 1
                assert block.shape == (len(block), bank.k) and 1 < len(block)
                assert len(block) <= min(BLOCK_LANES // bank.k, bank.levels)
                assert block.size <= BLOCK_LANES
                for i, row in enumerate(block):  # row i: the new node of tick first + i
                    level, index = self.new_node(first + i)
                    want = [node_laplace(r.base, level, index, r.scale) for r in refs]
                    assert np.array_equal(_bits(row), _bits(want))
            if pattern == "alternate" or rows_ahead == 1:
                assert ahead is None
        assert t == T and read(T) and reads > 20
        assert (held > 0) == (pattern != "alternate" and rows_ahead > 1)

    @pytest.mark.parametrize("lanes, B", [(215, 9), (8, 10)])
    def test_consecutive_reads_draw_blocks_of_the_next_ticks(self, monkeypatch, lanes, B):
        # at T = 512 (10 levels), 215 lanes draw blocks of 2048 // 215 = 9
        # rows, and 8 lanes blocks of 10, one row per level: one call per B
        # ticks after the first
        calls = []
        draw = summing.node_laplace

        def counted(base, a, b, scale):
            calls.append(list(zip(np.atleast_1d(a).tolist(), np.atleast_1d(b).tolist())))
            return draw(base, a, b, scale)

        monkeypatch.setattr(summing, "node_laplace", counted)
        T = 512
        bank = bank_on_clock(T, NoiseContext(1))
        bank.join(fold_key(1, ("tree",)), range(lanes), 1.0)
        for _ in range(T):
            bank.clock.tick()
            bank.current()
            if bank._ahead is not None:  # never more rows than the bank's own
                assert bank._ahead[1].size <= bank.levels * lanes
        assert B == min(BLOCK_LANES // lanes, bank.levels)
        # t = 1 is no block (no read at t = 0); t = 2 on draws ticks 2..10, ...
        want = [[self.new_node(1)]] + [
            [self.new_node(u) for u in range(s, min(s + B, T + 1))] for s in range(2, T + 1, B)
        ]
        assert calls == want
