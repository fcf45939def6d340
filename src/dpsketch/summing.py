"""Continual-release summing: the binary-tree mechanism and the grouping
mechanism (better additive error for non-negative streams).

Both follow the uniform contract "feed one value, read one running estimate".
A tree mechanism may be a bank of counters on one clock (CountSketch buckets,
low-frequency counters), and banks may share a clock, so that a sketch of
many buckets advances time once per event.
Instances are single-owner mutable and independent across threads.
"""

from __future__ import annotations

import math

import numpy as np

from .randomness import NoiseContext, fold_key, fold_lanes, node_laplace


class StateError(RuntimeError):
    """Mechanism driven past its declared horizon."""


def tree_levels(T: int) -> int:
    """ceil(log2 T) + 1: the nodes an input touches, and the most a prefix sums."""
    return math.ceil(math.log2(T)) + 1 if T > 1 else 1


class Clock:
    """Shared 1-based timestamp for a family of tree counters.

    ``nodes()`` is the dyadic decomposition of [1, t] that every counter on
    the clock reads, computed once per timestamp.
    """

    __slots__ = ("t", "T", "_nodes_t", "_nodes")

    def __init__(self, T: int) -> None:
        if T < 1:
            raise ValueError(f"T must be >= 1, got {T}")
        self.T = T
        self.t = 0
        self._nodes_t = 0
        self._nodes: list[tuple[int, int]] = []

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


class BinaryTreeMechanism:
    """Dyadic-tree noisy prefix sums; handles signed inputs.

    Each input touches ceil(log2 T)+1 nodes, each node carries one Laplace
    draw of scale (ceil(log2 T)+1)/epsilon, drawn lazily and keyed by the node
    so replay is order-independent.  The running exact sum plus the noise of
    the nodes tiling [1, t] equals the classic per-node construction.

    Alone it is one counter keyed ``("tree",) + key``.  A bank takes its
    lanes as copies ``(seed, key, ids)``: lane c * len(ids) + i is keyed
    ``key + (ids[i],)`` under copy c's own seed.  A full read refills each
    stale level for all lanes with one array draw and is memoised, read-only,
    for its timestamp until an ``add`` or ``restore``.  A lane read uses the
    memo when it is current, else the lane's own record of base, node and
    draw per level, built at its first lane read (Python lists: numpy
    indexing per element slowed point-query-heavy workloads by about 5%).
    Array and scalar draws are bit for bit equal, so a record's draw is the
    row's, and both reads add noise from the highest level down.
    """

    alpha = 1.0  # the guarantee is purely additive: (1, error_bound(xi))

    def __init__(
        self,
        T: int,
        epsilon: float,
        ctx: NoiseContext,
        key: tuple = (),
        clock: Clock | None = None,
        lanes=None,
    ) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        self.T = int(T)
        self.epsilon = float(epsilon)
        self.levels = tree_levels(self.T)
        self.noise_scale = self.levels / self.epsilon
        self._ctx = ctx
        self._clock = clock if clock is not None else Clock(self.T)
        self._owns_clock = clock is None
        self._lanes = [(ctx.master_seed, ("tree",) + tuple(key), None)] if lanes is None else lanes
        ids = self._lanes[0][2]
        self._width = 1 if ids is None else len(ids)
        self.k = len(self._lanes) * self._width
        self._running = np.zeros(self.k)
        self._rows = self._row_node = self._row_bases = self._memo = self._lane_records = None
        self._memo_t = 0

    @property
    def t(self) -> int:
        return self._clock.t

    @property
    def running(self) -> np.ndarray:
        """Exact running sum of each lane (private state, not a release)."""
        return self._running

    def tick(self) -> None:
        """Advance the mechanism's own clock one timestamp."""
        if not self._owns_clock:
            raise StateError("shared-clock counter is advanced by its owner")
        self._clock.tick()

    def add(self, x: float, lane: int = 0) -> None:
        """Credit x to a lane at the current timestamp without advancing the clock."""
        self._running[lane] += x
        self._memo = None

    def restore(self, t: int, running) -> None:
        """Set the clock and running sums from a snapshot; noise is keyed by node."""
        self._clock.t = int(t)
        self._running[:] = running
        self._memo = None

    def feed(self, x: float) -> float:
        """Advance one timestamp, ingest x, return the noisy prefix sum."""
        self.tick()
        self._running[0] += x
        return self.current()

    def current(self):
        """Noisy prefix sum at the clock's current timestamp: a float for a
        single counter, a read-only array with one entry per lane for a bank."""
        if self._lanes[0][2] is None:
            return self.lane_current(0)
        t = self._clock.t
        if self._memo is not None and self._memo_t == t:
            return self._memo
        out = self._running.copy()
        if not self._ctx.noise_off:
            if self._rows is None:
                self._rows, self._row_node = np.zeros((self.levels, self.k)), [-1] * self.levels
                self._row_bases = np.concatenate([
                    fold_lanes(fold_key(seed, key), np.asarray(ids, dtype=np.uint64))
                    for seed, key, ids in self._lanes
                ])
            for level, node in self._clock.nodes():
                if self._row_node[level] != node:
                    self._rows[level] = node_laplace(self._row_bases, level, node, self.noise_scale)
                    self._row_node[level] = node
                out += self._rows[level]
        out.setflags(write=False)
        self._memo, self._memo_t = out, t
        return out

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
            seed, key, ids = self._lanes[j // self._width]
            key = key if ids is None else key + (ids[j % self._width],)
            record = self._lane_records[j] = (
                fold_key(seed, key), [-1] * self.levels, [0.0] * self.levels
            )
        base, lane_node, draw = record
        for level, node in self._clock.nodes():
            if lane_node[level] != node:
                draw[level] = node_laplace(base, level, node, self.noise_scale)
                lane_node[level] = node
            total += draw[level]
        return total

    def error_bound(self, xi: float) -> float:
        """Additive bound holding for every t in [T] jointly w.p. >= 1 - xi.

        Each prefix output sums at most ``levels`` node noises; a union bound
        over the <= 2T distinct nodes gives per-node magnitude
        scale*ln(2T/xi).
        """
        if not 0 < xi < 1:
            raise ValueError(f"xi must be in (0, 1), got {xi}")
        if self._ctx.noise_off:
            return 0.0
        return self.levels * self.noise_scale * math.log(2 * self.T / xi)


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
        if epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        if not 0 < eta < 1:
            raise ValueError(f"eta must be in (0, 1), got {eta}")
        if not 0 < xi < 1:
            raise ValueError(f"xi must be in (0, 1), got {xi}")
        self.T = int(T)
        self.epsilon = float(epsilon)
        self.epsilon0 = self.epsilon / 2.0
        self.eta = float(eta)
        self.xi = float(xi)
        self.alpha = 1.0 + self.eta
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
        """Additive part of the (1 ± eta) envelope over every interval [l, r]."""
        xi = self.xi if xi is None else xi
        if self._ctx.noise_off:
            return 0.0
        return (
            (1.0 / self.eta + 4.0)
            * (7.0 / self.epsilon0)
            * math.log(3.0 * self.T / xi)
        )
