"""Seeded randomness, Laplace sampling, k-wise hashing, and the median booster.

Every stochastic primitive the mechanisms share flows through a
:class:`NoiseContext`: sequential Laplace draws, order-independent keyed draws
(used for per-node noise in tree counters), and derived seeds for hash
families and boosted copies.  A context is single-owner mutable (the draw
counter advances); hash families are immutable and freely shareable.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

MERSENNE_PRIME = (1 << 61) - 1
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    # splitmix64 finalizer; full-avalanche 64-bit mixer
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fold_key(seed: int, key: tuple) -> int:
    h = _mix64(seed ^ _GOLDEN)
    for part in key:
        if isinstance(part, str):
            part = int.from_bytes(part.encode()[:8].ljust(8, b"\0"), "little")
        h = _mix64(h ^ ((int(part) * _GOLDEN) & _MASK64))
    return h


_NODE_A = 0xD2B74407B1CE6E93
_NODE_B = 0xCA5A826395121157


def fold_key(seed: int, key: tuple) -> int:
    """Stable 64-bit digest of a key tuple under a master seed."""
    return _fold_key(seed, key)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # _mix64 over uint64 lanes; numpy uint64 arithmetic wraps modulo 2^64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def fold_lanes(base: int, lanes: np.ndarray) -> np.ndarray:
    """fold_key(seed, key + (lane,)) for each uint64 lane id, given
    base = fold_key(seed, key)."""
    return _mix64_array(np.uint64(base) ^ (lanes * np.uint64(_GOLDEN)))


def node_laplace(base, a: int, b: int, scale: float):
    """Laplace draw keyed by (a, b) under a pre-folded base; one mix round.

    The linear combination is injective over the node-index ranges in use and
    the final mix provides the avalanche, so draws for distinct nodes are
    effectively independent uniforms.  ``base`` may be a uint64 array of
    bases: one draw per entry comes back, each bit-identical to the scalar
    draw under that base.
    """
    offset = (a * _NODE_A + b * _NODE_B) & _MASK64
    if isinstance(base, np.ndarray):
        z = _mix64_array(base ^ np.uint64(offset))
        return _laplace_from_uniforms((z >> np.uint64(11)).astype(np.float64) * 2.0**-53, scale)
    z = _mix64(base ^ offset)
    return _laplace_from_uniform((z >> 11) * 2.0**-53, scale)


def _laplace_from_uniform(u: float, scale: float) -> float:
    # inverse CDF on u in [0,1); clamp away from the endpoints so log stays finite
    u = min(max(u, 1e-300), 1.0 - 1e-16)
    q = u - 0.5
    return -scale * math.copysign(1.0, q) * math.log1p(-2.0 * abs(q))


def _laplace_from_uniforms(u: np.ndarray, scale: float) -> np.ndarray:
    # _laplace_from_uniform elementwise, in the same operation order; the log
    # stays math.log1p because np.log1p may differ from it in the last bit
    q = np.minimum(np.maximum(u, 1e-300), 1.0 - 1e-16) - 0.5
    logs = np.fromiter(map(math.log1p, (-2.0 * np.abs(q)).tolist()), np.float64, q.size)
    return -scale * np.copysign(1.0, q) * logs


class NoiseContext:
    """Seeded randomness plus a noise-off switch.

    With ``noise_off`` every Laplace draw is exactly 0, exposing each
    mechanism's deterministic skeleton.  Identical seeds and draw orders give
    identical sequential draws; keyed draws are order-independent by
    construction.  Not safe to share across threads; give each parallel trial
    its own context.
    """

    def __init__(self, master_seed: int, noise_off: bool = False) -> None:
        self.master_seed = int(master_seed) & _MASK64
        self.noise_off = bool(noise_off)
        self.draw_counter = 0
        self._rng = np.random.Generator(np.random.PCG64(self.master_seed))

    def laplace(self, scale: float, size: int | None = None):
        """Sequential Laplace draw(s) of the given scale; 0 when noise is off."""
        if not (scale > 0 and math.isfinite(scale)):
            raise ValueError(f"scale must be positive and finite, got {scale}")
        if size is None:
            self.draw_counter += 1
            if self.noise_off:
                return 0.0
            return _laplace_from_uniform(self._rng.random(), scale)
        self.draw_counter += size
        if self.noise_off:
            return np.zeros(size)
        u = self._rng.random(size)
        q = u - 0.5
        return -scale * np.sign(q) * np.log1p(-2.0 * np.abs(q))

    def uniform(self) -> float:
        self.draw_counter += 1
        return float(self._rng.random())

    def keyed_laplace(self, key: tuple, scale: float) -> float:
        """Order-independent Laplace draw keyed by an integer/string tuple."""
        if not (scale > 0 and math.isfinite(scale)):
            raise ValueError(f"scale must be positive and finite, got {scale}")
        if self.noise_off:
            return 0.0
        h = _fold_key(self.master_seed, key)
        u = (h >> 11) * 2.0**-53
        return _laplace_from_uniform(u, scale)

    def child_seed(self, *key) -> int:
        return _fold_key(self.master_seed, ("child",) + key)

    def child(self, *key) -> "NoiseContext":
        """Independent sub-context; copies built from distinct keys share nothing."""
        return NoiseContext(self.child_seed(*key), self.noise_off)


def laplace_sample(ctx: NoiseContext, scale: float) -> float:
    """One Laplace draw with density exp(-|x|/b)/(2b); 0 under noise-off."""
    return ctx.laplace(scale)


class PolyHashFamily:
    """k-wise independent hashing by a degree-(k-1) polynomial over GF(2^61-1).

    Deterministic per seed; output is the polynomial value reduced mod the
    range m (bias at most k*m/prime).
    """

    def __init__(self, k: int, m: int, seed: int) -> None:
        if k < 1:
            raise ValueError(f"independence k must be >= 1, got {k}")
        if m < 1:
            raise ValueError(f"range m must be >= 1, got {m}")
        self.k = k
        self.m = m
        self.prime = MERSENNE_PRIME
        rng = np.random.Generator(np.random.PCG64(seed))
        # all k coefficients uniform over the field: exactly k-wise independent
        self.coefficients = tuple(
            int(c) for c in rng.integers(0, self.prime, size=k, dtype=np.int64)
        )

    def value(self, x: int) -> int:
        """Polynomial value in the field, before range reduction."""
        acc = 0
        for c in reversed(self.coefficients):
            acc = (acc * x + c) % self.prime
        return acc

    def __call__(self, x: int) -> int:
        return self.value(x) % self.m


class SignHash:
    """4-wise independent mapping to {-1, +1} with Pr[+1] = 1/2."""

    def __init__(self, seed: int) -> None:
        self._base = PolyHashFamily(4, 2, seed)

    def __call__(self, x: int) -> int:
        return 1 - 2 * self._base(x)


class GeometricLevelHash:
    """Level hash with Pr[level=i] = 2^-i for i in [1..L] and Pr[none] = 2^-L.

    The level is the position of the lowest set bit of a lam-wise uniform
    value in [0, 2^L); value 0 means the element is dropped (no level).
    """

    def __init__(self, L: int, lam: int, seed: int) -> None:
        if L < 1:
            raise ValueError(f"level count L must be >= 1, got {L}")
        self.L = L
        self.lam = lam
        self._base = PolyHashFamily(lam, 1 << L, seed)

    def level(self, x: int) -> int | None:
        v = self._base(x)
        if v == 0:
            return None
        return (v & -v).bit_length()


def even_independence(raw: float) -> int:
    """Round an independence parameter up to the next even integer >= 4."""
    lam = max(4, math.ceil(raw))
    return lam + (lam % 2)


def median_boost(values: Sequence[float]) -> float:
    """Lower median: element at index floor((len-1)/2) of the sorted values."""
    if len(values) == 0:
        raise ValueError("median of an empty sequence")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def boost_count(xi: float) -> int:
    """Number of independent copies, ceil(50 ln(1/xi)), for failure budget xi."""
    if not 0.0 < xi < 0.5:
        raise ValueError(f"xi must be in (0, 0.5), got {xi}")
    return math.ceil(50.0 * math.log(1.0 / xi))
