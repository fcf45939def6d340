"""Seeded randomness, Laplace sampling, k-wise hashing, and the median booster.

Every stochastic primitive the mechanisms share flows through a
:class:`NoiseContext`: sequential Laplace draws, the master seed under which
:func:`node_laplace` makes order-independent keyed draws (per-node noise in
tree counters), and derived seeds for hash families and boosted copies.  A context is single-owner mutable (the draw
counter advances); hash families are immutable and freely shareable.

All of it is one keyed splitmix64 family (Steele, Lea, Flood, "Fast
Splittable Pseudorandom Number Generators", OOPSLA'14), used as a
counter-based generator: a draw is the mix of a key and a counter, so a
context or a hash family costs a few integer mixes to build and holds no
generator state beyond its counter.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

MERSENNE_PRIME = (1 << 61) - 1
# the largest hash range a derived universe size is given, below the field size
HASH_RANGE_CAP = 1 << 60
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    # splitmix64 finalizer; full-avalanche 64-bit mixer
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@lru_cache(maxsize=1024)
def _word(part: str) -> int:
    # the first 8 bytes of a string key part, as one little-endian word
    return int.from_bytes(part.encode()[:8].ljust(8, b"\0"), "little")


def fold_on(folded: int, key: tuple) -> int:
    """Continue a fold over more key parts: fold_on(fold_key(seed, a), b)
    equals fold_key(seed, a + b), so keys that share a prefix fold it once."""
    h = folded
    for part in key:
        if isinstance(part, str):
            part = _word(part)
        h = _mix64(h ^ ((int(part) * _GOLDEN) & _MASK64))
    return h


def _fold_key(seed: int, key: tuple) -> int:
    return fold_on(_mix64(seed ^ _GOLDEN), key)


_NODE_A = 0xD2B74407B1CE6E93
_NODE_B = 0xCA5A826395121157
# separates a context's sequential stream from its keyed draws
_STREAM = 0x3C6EF372FE94F82B


def fold_key(seed: int, key: tuple) -> int:
    """Stable 64-bit digest of a key tuple under a master seed."""
    return _fold_key(seed, key)


_U11, _U27, _U30, _U31 = (np.uint64(n) for n in (11, 27, 30, 31))
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # _mix64 over uint64 lanes, in place on z with one scratch array; numpy
    # uint64 arithmetic wraps modulo 2^64
    t = z >> _U30
    z ^= t
    z *= _M1
    np.right_shift(z, _U27, out=t)
    z ^= t
    z *= _M2
    np.right_shift(z, _U31, out=t)
    z ^= t
    return z


def fold_lanes(base: int, lanes: np.ndarray) -> np.ndarray:
    """fold_on(base, (lane,)) for each uint64 lane id: fold_key(seed, key +
    (lane,)) when base = fold_key(seed, key)."""
    return _mix64_array(np.uint64(base) ^ (lanes * np.uint64(_GOLDEN)))


# A 64-bit word z becomes the uniform ((z >> 11) or 1) / 2^53: its top 53 bits
# on the grid {1, ..., 2^53 - 1} / 2^53, with 0 taken as 1 so the inverse CDF
# never meets u = 0, where log1p(-1) has no value.  Both Laplace draws,
# node_laplace and NoiseContext.laplace, map their words this way.


def node_laplace(base, a, b, scale: float):
    """Laplace draw keyed by (a, b) under a pre-folded base; one mix round.

    The linear combination is injective over the node-index ranges in use and
    the final mix provides the avalanche, so draws for distinct nodes are
    effectively independent uniforms.  ``base`` may be a uint64 array of
    bases, and ``scale`` a float or one scale per base: one draw per entry
    comes back, each bit-identical to the scalar draw under that base and
    scale.  With array bases, ``a`` and ``b`` may be equal-length uint64
    arrays, a block of (a, b) pairs: row i is then the draw of pair i for
    every base.
    """
    if isinstance(base, np.ndarray):
        if isinstance(a, np.ndarray):  # uint64 arithmetic wraps modulo 2^64
            offset = (a * np.uint64(_NODE_A) + b * np.uint64(_NODE_B))[:, None]
        else:
            offset = np.uint64((a * _NODE_A + b * _NODE_B) & _MASK64)
        # the scalar draw below, one numpy pass per step.  With m the top 53
        # bits (0 taken as 1), d = m - 2^52 is 2^53 q and -|d| 2^-52 is
        # exactly -2|q|, so the log is the scalar's.  The scalar multiplies
        # it by -scale * sign(q); rounding to nearest is symmetric, so
        # |scale * log| given the sign of d is the same float (copysign reads
        # only the magnitude, so no negated copy of a scale array is made).
        # Steps run in place: a bank of some 25,000 lanes page-faulted on
        # each of a dozen fresh temporaries of its width.
        m = _mix64_array(base ^ offset)
        m >>= _U11
        np.maximum(m, np.uint64(1), out=m)
        d = m.view(np.int64)
        d -= 1 << 52
        u = np.abs(d) * -(2.0**-52)
        np.log1p(u, out=u)
        u *= scale
        return np.copysign(u, d, out=u)
    # _mix64 and the inverse CDF, inlined: lane reads draw here once per
    # stale node.  The log comes from np.log1p, as in the array form, which
    # runs one kernel for 0-d and 1-d input, so the two agree bit for bit;
    # math.log1p may differ from it in the last bit.
    z = base ^ ((a * _NODE_A + b * _NODE_B) & _MASK64)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    q = (((z ^ (z >> 31)) >> 11) or 1) * 2.0**-53 - 0.5
    return -scale * math.copysign(1.0, q) * float(np.log1p(-2.0 * abs(q)))


class NoiseContext:
    """Seeded randomness plus a noise-off switch.

    With ``noise_off`` every Laplace draw is exactly 0, exposing each
    mechanism's deterministic skeleton.  Identical seeds and draw orders give
    identical sequential draws.  Not safe to share across threads; give each
    parallel trial its own context.
    """

    def __init__(self, master_seed: int, noise_off: bool = False) -> None:
        self.master_seed = int(master_seed) & _MASK64
        self.noise_off = bool(noise_off)
        self.draw_counter = 0
        # draw i (1-based) is the mix of _stream + i * golden: splitmix64's
        # own output sequence, started from a keyed state
        self._stream = _mix64(self.master_seed ^ _STREAM)

    def laplace(self, scale: float) -> float:
        """Next sequential Laplace draw of the given scale; 0 when noise is off."""
        if not (scale > 0 and math.isfinite(scale)):
            raise ValueError(f"scale must be positive and finite, got {scale}")
        i = self.draw_counter = self.draw_counter + 1
        if self.noise_off:
            return 0.0
        # _mix64 and the inverse CDF, inlined: this is a hot path
        z = (self._stream + i * _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        q = (((z ^ (z >> 31)) >> 11) or 1) * 2.0**-53 - 0.5
        return -scale * math.copysign(1.0, q) * math.log1p(-2.0 * abs(q))

    def uniform(self) -> float:
        """Next draw of the sequential stream as a uniform on [0, 1)."""
        self.draw_counter += 1
        return (_mix64(self._stream + self.draw_counter * _GOLDEN) >> 11) * 2.0**-53

    def child_seed(self, *key) -> int:
        return _fold_key(self.master_seed, ("child",) + key)

    def child(self, *key) -> "NoiseContext":
        """Independent sub-context; copies built from distinct keys share nothing."""
        return NoiseContext(self.child_seed(*key), self.noise_off)


class PolyHashFamily:
    """k-wise independent hashing by a degree-(k-1) polynomial over GF(2^61-1).

    Deterministic per seed; output is the polynomial value reduced mod the
    range m (bias at most k*m/prime).
    """

    # substream sketches build two families each, thousands per stream
    __slots__ = ("k", "m", "prime", "coefficients")

    def __init__(self, k: int, m: int, seed: int) -> None:
        if k < 1:
            raise ValueError(f"independence k must be >= 1, got {k}")
        if m < 1:
            raise ValueError(f"range m must be >= 1, got {m}")
        self.k = k
        self.m = m
        self.prime = MERSENNE_PRIME
        # all k coefficients uniform over the field, so the family is exactly
        # k-wise independent: the top 61 bits of successive splitmix64
        # outputs of the seed, rejecting the one value 2^61 - 1 outside it
        coefficients = []
        state = int(seed) & _MASK64
        while len(coefficients) < k:
            state = (state + _GOLDEN) & _MASK64
            c = _mix64(state) >> 3
            if c < MERSENNE_PRIME:
                coefficients.append(c)
        self.coefficients = tuple(coefficients)

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

    __slots__ = ("_base",)

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


def subsample_depth(n: int, T: int) -> int:
    """Level count L of geometric subsampling: ceil(log2 min(n, T)), at least 1."""
    return max(1, math.ceil(math.log2(min(n, T))))


class LevelRouter:
    """``router(a)`` is (level, id), memoised: a's lam-wise geometric level
    over L levels (None: dropped) and its pairwise hash into [0, m), under
    seeds ``name + "-g"`` and ``name + "-h"``."""

    def __init__(self, L: int, lam: int, m: int, ctx: NoiseContext, name: str) -> None:
        self._g = GeometricLevelHash(L, lam, ctx.child_seed(name + "-g"))
        self._h = PolyHashFamily(2, m, ctx.child_seed(name + "-h"))
        self._cache: dict[int, tuple[int | None, int]] = {}

    def __call__(self, ident: int) -> tuple[int | None, int]:
        hit = self._cache.get(ident)
        if hit is None:
            hit = (self._g.level(ident), self._h(ident))
            self._cache[ident] = hit
        return hit


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
