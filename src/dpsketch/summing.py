"""Continual-release summing: the binary-tree mechanism and the grouping
mechanism (better additive error for non-negative streams).

Callers read the running estimate from ``current()``: ``feed`` returns the
noisy prefix sum on a tree mechanism but the released increment on grouping.
Both backends' (alpha, gamma) guarantee is :func:`summing_guarantee`, the one
owner of their bounds, computed from public parameters without building a
backend; a backend's ``error_bound`` returns its gamma.
A tree mechanism is one counter on its own clock, or a bank of counters
(CountSketch buckets, low-frequency counters) on a given clock, which the code
that built it ticks once per event, however many banks share it.
Instances are single-owner mutable and independent across threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .budget import check_epsilon
from .randomness import NoiseContext, fold_key, fold_lanes, fold_on, node_laplace
from .randomness import node_offset, word_laplace


# Lane-draws per block of rows drawn ahead.  A ``node_laplace`` array call
# makes about 17 numpy dispatches, some 13 us whatever its width, then about
# 7 ns per lane-draw, so at 2,048 lane-draws the fixed part is at most half
# the call.  A block also holds no more rows than the bank's tree has levels,
# so it is never larger than the bank's own rows.  A bank too wide for a
# block of two rows skips the block lookup, which at 1,536 lanes cost about
# 1 us per read: f2-wide ran 3.3% fewer events/s with it (perfbench, 10
# alternating pairs on a 2-vCPU host, slower in every pair).
BLOCK_LANES = 2048


class StateError(RuntimeError):
    """Mechanism driven out of turn: past its horizon, before its first tick, or fed as a bank."""


def tree_levels(T: int) -> int:
    """ceil(log2 T) + 1: the nodes an input touches, and the most a prefix sums."""
    return math.ceil(math.log2(T)) + 1 if T > 1 else 1


class Clock:
    """Shared 1-based timestamp for a family of tree counters.

    ``nodes()`` is the dyadic decomposition of [1, t] that every counter on
    the clock reads, computed once per timestamp, and ``keyed_nodes()`` the
    same nodes with their key offsets, computed at a timestamp's first lane
    read that draws.
    """

    __slots__ = ("t", "T", "_nodes_t", "_nodes", "_keyed_t", "_keyed")

    def __init__(self, T: int) -> None:
        if T < 1:
            raise ValueError(f"T must be >= 1, got {T}")
        self.T = T
        self.t = 0
        self._nodes_t = self._keyed_t = 0
        self._nodes: list[tuple[int, int]] = []
        self._keyed: list[tuple[int, int, int]] = []

    def tick(self) -> int:
        if self.t >= self.T:
            raise StateError(f"stream horizon T={self.T} exhausted")
        self.t += 1
        return self.t

    def nodes(self) -> list[tuple[int, int]]:
        """The (level, node) pairs tiling [1, t], highest level first: level l
        holds node (t >> l) - 1 when bit l of t is set.  Cached by t, so a
        clock whose t is set directly (a restored snapshot) stays correct."""
        t = self.t
        if self._nodes_t != t:
            nodes = []
            rest = t
            while rest:
                level = rest.bit_length() - 1
                rest ^= 1 << level
                nodes.append((level, (t >> level) - 1))
            self._nodes = nodes
            self._nodes_t = t
        return self._nodes

    def keyed_nodes(self) -> list[tuple[int, int, int]]:
        """``nodes()`` as (level, node, node_offset(level, node)): every lane
        read at t draws a stale level from its base xor the same offset."""
        if self._keyed_t != self.t:
            self._keyed = [(level, node, node_offset(level, node)) for level, node in self.nodes()]
            self._keyed_t = self.t
        return self._keyed


class BinaryTreeMechanism:
    """Dyadic-tree noisy prefix sums; handles signed inputs.

    Each input touches ceil(log2 T)+1 nodes, each node carries one Laplace
    draw of scale (ceil(log2 T)+1)/epsilon, drawn lazily and keyed by the node
    so replay is order-independent.  The running exact sum plus the noise of
    the nodes tiling [1, t] equals the classic per-node construction.

    Built with ``epsilon`` it is one counter keyed ``("tree",) + key`` on its
    own clock, which only ``feed`` advances.  Built by :meth:`bank` on a given
    clock it is a bank of lane groups ``(base, ids)``, each appended by
    ``join`` at its own epsilon, so the owners of windows of lanes share one
    clock and one draw per stale level.  A group's base is its folded key,
    ``fold_key(seed, key)``; group lane i is keyed ``key + (ids[i],)``, one
    fold round on from the base (a group without ids is one lane keyed by the
    base, as a single counter is), and draws at the group's scale.
    A full read refills each stale level for every lane with one array draw,
    scaled per lane, into one row per level that the bank keeps until a
    ``join``.  Each tick brings one new node; a full read at t that follows
    one at t - 1 draws the new nodes of the next ticks too, up to
    ``BLOCK_LANES`` draws and at most one row per level, into the one block
    the bank holds ahead until its next block or ``join``.  A full read's
    result is memoised, read-only, for its timestamp until an ``add``,
    ``join`` or ``restore``; an owner of a window reads its slice.
    A lane read uses the memo when it is current, else the lane's own record
    of base, scale, node and draw per level, built at its first lane read
    (Python lists: numpy indexing per element slowed point-query-heavy
    workloads by about 5%); it draws a stale level with ``word_laplace`` from
    its base xor the clock's offset of the node, which every lane read at t
    shares.  Array and scalar draws are bit for bit equal, so a record's draw
    is the row's, and both reads add noise from the highest level down.
    """

    # heavy-hitter substreams build one bank per sketch, thousands per stream
    __slots__ = (
        "T", "levels", "k", "_ctx", "_clock", "_single", "_groups", "_buffer",
        "_running", "_memo", "_memo_t", "_lane_records", "_rows", "_ahead",
    )

    def __init__(
        self,
        T: int,
        epsilon: float | None,
        ctx: NoiseContext,
        key: tuple = (),
        clock: Clock | None = None,
    ) -> None:
        self.T = int(T)
        self.levels = tree_levels(self.T)
        self._ctx = ctx
        self._single = clock is None
        self._clock = Clock(self.T) if self._single else clock
        self.k = 0
        # (base, ids, epsilon, first lane) per group
        self._groups: list[tuple] = []
        self._buffer = self._running = np.zeros(0)
        self._memo = self._lane_records = self._rows = None
        # (first tick, rows): the new nodes of the block's ticks, drawn ahead
        self._ahead: tuple[int, np.ndarray] | None = None
        self._memo_t = -1  # the timestamp of the last full read
        if self._single:
            self.join(fold_key(ctx.master_seed, ("tree",) + tuple(key)), None, epsilon)

    @classmethod
    def bank(cls, T: int, ctx: NoiseContext, clock: Clock) -> BinaryTreeMechanism:
        """An empty bank on ``clock``, ticked by whoever built it, that owners ``join``."""
        return cls(T, None, ctx, clock=clock)

    @property
    def t(self) -> int:
        return self._clock.t

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def running(self) -> np.ndarray:
        """Exact running sum of each lane (private state, not a release)."""
        return self._running

    def join(self, base: int, ids, epsilon: float) -> int:
        """Append a lane group, folded key ``base``, at its own epsilon;
        returns its first lane.  Its lanes start at 0 and draw from the next
        read on."""
        check_epsilon(epsilon)
        lo = self.k
        self.k = lo + (1 if ids is None else len(ids))
        self._groups.append((base, ids, float(epsilon), lo))
        if self.k > len(self._buffer):  # grow by doubling, so joins cost O(k) in all
            self._buffer = np.zeros(max(self.k, 2 * lo))
            self._buffer[:lo] = self._running
        # a view only while the buffer has room to spare
        self._running = self._buffer if self.k == len(self._buffer) else self._buffer[: self.k]
        self._memo = self._rows = self._ahead = None
        if self._lane_records is not None:
            self._lane_records += [None] * (self.k - lo)
        return lo

    def add(self, x: float, lane: int = 0) -> None:
        """Credit x to a lane at the current timestamp without advancing the clock."""
        if self._clock.t == 0:  # no node covers [1, 0]: the credit would read exact
            raise StateError("credit before the first tick")
        self._running[lane] += x
        self._memo = None

    def restore(self, running) -> None:
        """Set the running sums from a snapshot taken at the clock's current
        timestamp, which the clock's owner sets; noise is keyed by node."""
        self._running[:] = running
        self._memo = None

    def feed(self, x: float) -> float:
        """Advance a single counter one timestamp, ingest x, return the noisy prefix sum."""
        if not self._single:
            raise StateError("a bank is advanced by the builder of its clock")
        self._clock.tick()
        self._running[0] += x
        return self.current()

    def current(self):
        """Noisy prefix sum at the clock's current timestamp: a float for a
        single counter, a read-only array with one entry per lane for a bank."""
        if self._single:
            return self.lane_current(0)
        t = self._clock.t
        if self._memo is not None and self._memo_t == t:
            return self._memo
        out = self._running.copy()
        if not self._ctx.noise_off:
            if self._rows is None:
                self._rows = (*self._bases(), np.zeros((self.levels, self.k)), [-1] * self.levels)
            bases, scales, rows, row_node = self._rows
            blocks = 2 * self.k <= BLOCK_LANES  # a wider bank skips the lookup
            for level, node in self._clock.nodes():
                if row_node[level] != node:
                    row = self._block_row(level, node, t) if blocks else None
                    rows[level] = node_laplace(bases, level, node, scales) if row is None else row
                    row_node[level] = node
                out += rows[level]
        out.setflags(write=False)
        self._memo, self._memo_t = out, t
        return out

    def _block_row(self, level: int, node: int, t: int) -> np.ndarray | None:
        """Every lane's draw of node (level, node) at a full read at t from a
        block: the block ahead when it holds the node, else a new block of
        the new nodes of the next ticks when this is t's own new node and the
        bank was read at t - 1; None when neither holds."""
        s = (node + 1) << level  # the tick whose new node this is
        if self._ahead is not None:
            first, block = self._ahead
            if first <= s < first + len(block):
                return block[s - first]
        if s != t or self._memo_t != t - 1:
            return None
        count = min(BLOCK_LANES // self.k, self.levels, self.T + 1 - s)
        if count < 2:
            return None
        ticks = range(s, s + count)
        levels = [(u & -u).bit_length() - 1 for u in ticks]
        nodes = [(u >> l) - 1 for u, l in zip(ticks, levels)]
        bases, scales = self._rows[:2]
        block = node_laplace(
            bases, np.array(levels, dtype=np.uint64), np.array(nodes, dtype=np.uint64), scales
        )
        self._ahead = (s, block)
        return block[0]

    def _bases(self) -> tuple[np.ndarray, np.ndarray]:
        """The folded key and the scale levels/epsilon of every lane of a bank."""
        bases, scales = [], []
        for base, ids, epsilon, _ in self._groups:
            lanes = [base] if ids is None else fold_lanes(base, np.asarray(ids, dtype=np.uint64))
            bases.append(np.asarray(lanes, dtype=np.uint64))
            scales.append(np.full(len(lanes), self.levels / epsilon))
        return np.concatenate(bases), np.concatenate(scales)

    def _group_of(self, lane: int) -> tuple:
        return self._groups[bisect_right(self._groups, lane, key=lambda group: group[3]) - 1]

    def lane_current(self, j: int) -> float:
        """Noisy prefix sum of lane j alone; equals ``current()[j]``."""
        if self._memo is not None and self._memo_t == self._clock.t:
            return float(self._memo[j])
        total = float(self._running[j])
        if self._ctx.noise_off:
            return total
        if self._lane_records is None:
            self._lane_records = [None] * self.k
        record = self._lane_records[j]
        if record is None:
            base, ids, epsilon, lo = self._group_of(j)
            if ids is not None:
                base = fold_on(base, (ids[j - lo],))
            scale = self.levels / epsilon
            record = self._lane_records[j] = (base, scale, [-1] * self.levels, [0.0] * self.levels)
        base, scale, lane_node, draw = record
        for level, node, offset in self._clock.keyed_nodes():
            if lane_node[level] != node:
                draw[level] = word_laplace(base ^ offset, scale)
                lane_node[level] = node
            total += draw[level]
        return total

    def error_bound(self, xi: float, lane: int = 0) -> float:
        """Additive bound of ``lane``'s group holding for every t in [T]
        jointly w.p. >= 1 - xi: the tree's gamma at the group's epsilon."""
        epsilon = self._group_of(lane)[2]
        return summing_guarantee(TREE, self.T, epsilon, None, xi, self._ctx.noise_off)[1]


class GroupingMechanism:
    """Sparse-vector grouping of a non-negative count stream.

    Consecutive inputs accumulate into a group; once the noisy group total
    crosses a noisy threshold, the group's noisy sum is released at that
    timestamp (all other timestamps release 0) and a fresh threshold is drawn.
    The released stream is epsilon-DP; prefix sums of it approximate the true
    prefix sums within (1 ± eta) plus the additive envelope below.
    """

    def __init__(
        self,
        T: int,
        epsilon: float,
        eta: float,
        xi: float,
        ctx: NoiseContext,
        threshold_offset: float | None = None,
    ) -> None:
        check_summing(T, epsilon, eta, xi)
        self.T = int(T)
        self.epsilon = float(epsilon)
        self.epsilon0 = self.epsilon / 2.0
        self.eta = float(eta)
        self.xi = float(xi)
        self._ctx = ctx
        # deterministic part of the threshold; overridable for statistical DP
        # tests only (privacy does not depend on this offset)
        if threshold_offset is None:
            threshold_offset = (
                (1.0 / self.eta + 1.0)
                * (7.0 / self.epsilon0)
                * math.log(3.0 * self.T / self.xi)
            )
        self.threshold_offset = float(threshold_offset)
        self.t = 0
        self.group_sum = 0.0
        self.released_prefix = 0.0
        self.tau = self._draw_threshold()

    def _draw_threshold(self) -> float:
        return self.threshold_offset + self._ctx.laplace(2.0 / self.epsilon0)

    def feed(self, c: float) -> float:
        """Ingest one non-negative count; returns the released value (often 0)."""
        if c < 0:
            raise ValueError(f"grouping mechanism requires non-negative inputs, got {c}")
        if self.t >= self.T:
            raise StateError(f"stream horizon T={self.T} exhausted")
        self.t += 1
        self.group_sum += c
        nu = self._ctx.laplace(4.0 / self.epsilon0)
        if nu + self.group_sum >= self.tau:
            released = self._ctx.laplace(1.0 / self.epsilon0) + self.group_sum
            self.group_sum = 0.0
            self.tau = self._draw_threshold()
            self.released_prefix += released
            return released
        return 0.0

    def current(self) -> float:
        """Running sum of released values: the continual-release output.

        Monotone only while every released value is non-negative; a released
        group total carries Laplace noise, so the output can dip when the
        latest release comes out negative.
        """
        return self.released_prefix

    def error_bound(self, xi: float | None = None) -> float:
        """Additive part of the (1 ± eta) envelope over every interval [l, r]:
        grouping's gamma at ``xi``, by default the one it was built with."""
        xi = self.xi if xi is None else xi
        return summing_guarantee(GROUP, self.T, self.epsilon, self.eta, xi, self._ctx.noise_off)[1]


TREE = "tree"
GROUP = "group"


def check_summing(T: int, epsilon: float, eta: float | None, xi: float) -> None:
    """The one input rule of both backends and their guarantee: T >= 1, a
    valid epsilon, and eta and xi in (0, 1); a tree's own bound reads no eta
    and passes None."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    check_epsilon(epsilon)
    if eta is not None and not 0 < eta < 1:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    if not 0 < xi < 1:
        raise ValueError(f"xi must be in (0, 1), got {xi}")


def summing_guarantee(
    variant: str, T: int, epsilon: float, eta: float | None, xi: float, noise_off: bool
) -> tuple[float, float]:
    """(alpha, gamma) of a ``variant`` backend at (T, epsilon, eta), holding
    for every t in [T] jointly w.p. >= 1 - xi; gamma is 0 with noise off.

    A tree is purely additive: each prefix sums at most ``levels`` node
    noises of scale levels/epsilon, and a union bound over the <= 2T nodes
    bounds each by scale*ln(2T/xi).  Grouping is within (1 ± eta) plus its
    envelope (1/eta + 4)(7/epsilon0)ln(3T/xi), epsilon0 = epsilon/2.
    """
    check_summing(T, epsilon, eta, xi)
    if variant == TREE:
        levels = tree_levels(T)
        alpha, gamma = 1.0, levels * (levels / epsilon) * math.log(2 * T / xi)
    elif variant == GROUP:
        alpha = 1.0 + eta
        gamma = (1.0 / eta + 4.0) * (7.0 / (epsilon / 2.0)) * math.log(3.0 * T / xi)
    else:
        raise ValueError(f"unknown summing variant {variant!r}")
    return alpha, 0.0 if noise_off else gamma


def make_summing_backend(
    variant: str, T: int, epsilon: float, eta: float, xi: float, ctx: NoiseContext
):
    """A summing backend of either variant, which guarantees
    ``summing_guarantee``; both refuse what the guarantee refuses."""
    check_summing(T, epsilon, eta, xi)
    if variant == TREE:
        return BinaryTreeMechanism(T, epsilon, ctx)
    if variant == GROUP:
        return GroupingMechanism(T, epsilon, eta, xi, ctx)
    raise ValueError(f"unknown summing variant {variant!r}")
