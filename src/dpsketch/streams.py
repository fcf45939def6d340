"""Event/stream model, exact oracles, neighboring-stream machinery, generators.

Everything here is non-private and deterministic: these are the ground-truth
functions the private mechanisms are tested against.  All types are immutable
after construction except :class:`FrequencyTable` and
:class:`IncrementalOracle`, which are built incrementally; the oracle
functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .budget import check_p

ELEMENT = "element"
EMPTY = "empty"
INTEGER = "integer"

ELEMENTS_MODE = "elements"
INTEGERS_MODE = "integers"


class ResourceBudgetError(RuntimeError):
    """Raised when a brute-force enumeration exceeds its comparison budget."""


class StreamEvent(NamedTuple):
    """One timestamp's input: a universe element, the empty symbol, or an integer."""

    kind: str
    value: int = 0

    def is_element(self) -> bool:
        return self.kind == ELEMENT

    def is_empty(self) -> bool:
        return self.kind == EMPTY

    def is_integer(self) -> bool:
        return self.kind == INTEGER


EMPTY_EVENT = StreamEvent(EMPTY, 0)


def event_count(e: StreamEvent) -> int:
    """What one event adds to a running sum: its value, 1 per element, 0 for Empty."""
    if e.kind == INTEGER:
        return e.value
    return 1 if e.kind == ELEMENT else 0


def element(ident: int) -> StreamEvent:
    if ident < 0:
        raise ValueError(f"element id must be non-negative, got {ident}")
    return StreamEvent(ELEMENT, ident)


def integer(value: int) -> StreamEvent:
    return StreamEvent(INTEGER, int(value))


def stream_mode(events: Sequence[StreamEvent]) -> str:
    """Infer the mode of a stream; mixing integer and element events is an error."""
    has_int = any(e.kind == INTEGER for e in events)
    has_elem = any(e.kind == ELEMENT for e in events)
    if has_int and has_elem:
        raise ValueError("stream mixes integer and element events")
    return INTEGERS_MODE if has_int else ELEMENTS_MODE


@dataclass(frozen=True)
class StreamConfig:
    """Stream shape: horizon T, universe size n, and event mode."""

    T: int
    n: int
    mode: str = ELEMENTS_MODE

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.mode not in (ELEMENTS_MODE, INTEGERS_MODE):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class WindowSpec:
    """Sliding window of the last W timestamps."""

    W: int

    def __post_init__(self) -> None:
        if self.W < 1:
            raise ValueError(f"W must be >= 1, got {self.W}")


class FrequencyTable:
    """Per-element exact counts; counts are kept only for elements seen."""

    __slots__ = ("counts", "total_nonempty")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.total_nonempty = 0

    def add(self, ident: int) -> None:
        self.counts[ident] = self.counts.get(ident, 0) + 1
        self.total_nonempty += 1

    def remove(self, ident: int) -> None:
        c = self.counts[ident] - 1
        if c:
            self.counts[ident] = c
        else:
            del self.counts[ident]
        self.total_nonempty -= 1

    def __getitem__(self, ident: int) -> int:
        return self.counts.get(ident, 0)

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyTable):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:
        return f"FrequencyTable({self.counts!r}, total={self.total_nonempty})"


class IncrementalOracle:
    """Exact running statistics of a stream, updated in O(1) per event.

    Keeps the frequency table, how many elements have each exact frequency,
    the total of the event counts, and the moment sum of f^p accumulated as
    (f+1)^p - f^p per arrival.  With a window ``W`` an event leaves all of
    them again once W later events have arrived.
    """

    def __init__(self, p: float = 2.0, W: int | None = None) -> None:
        check_p(p)
        self.p = p
        self.W = W
        self.table = FrequencyTable()
        self.at_frequency: dict[int, int] = {}
        self.total = 0
        self.moment = 0.0
        self._window: deque[StreamEvent] = deque()

    def add(self, e: StreamEvent) -> None:
        self._step(e, 1)
        if self.W is not None:
            self._window.append(e)
            if len(self._window) > self.W:
                self._step(self._window.popleft(), -1)

    def _step(self, e: StreamEvent, d: int) -> None:
        """Count ``e`` in (d=1) or out (d=-1)."""
        if e.kind == ELEMENT:
            c = self.table[e.value]
            self.moment += (c + d) ** self.p - c**self.p
            if d > 0:
                self.table.add(e.value)
            else:
                self.table.remove(e.value)
            if c:
                self.at_frequency[c] -= 1
            if c + d:
                self.at_frequency[c + d] = self.at_frequency.get(c + d, 0) + 1
        self.total += d * event_count(e)

    def lp(self) -> float:
        """The lp moment at ``p``; p=0 counts distinct keys, p=1 the total."""
        if self.p == 0:
            return float(len(self.table))
        if self.p == 1:
            return float(self.total)
        return self.moment


def exact_frequencies(prefix: Sequence[StreamEvent]) -> FrequencyTable:
    """Exact frequency table of an elements-mode prefix; Empty events are skipped."""
    table = FrequencyTable()
    for e in prefix:
        if e.kind == INTEGER:
            raise ValueError("exact_frequencies requires an elements-mode stream")
        if e.kind == ELEMENT:
            table.add(e.value)
    return table


def exact_lp_moment(table: FrequencyTable, p: float) -> float:
    """Sum of f_a^p over the table; p=0 counts distinct keys, p=1 the total."""
    check_p(p)
    if p == 0:
        return float(len(table))
    if p == 1:
        return float(table.total_nonempty)
    return float(sum(c**p for c in table.counts.values()))


def exact_heavy_hitters(table: FrequencyTable, p: float, k: int) -> set[int]:
    """Elements whose frequency^p reaches a 1/k fraction of the lp moment."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_p(p)
    moment = exact_lp_moment(table, p)
    threshold = moment / k
    return {a for a, c in table.counts.items() if c**p >= threshold}


def window_view(
    stream: Sequence[StreamEvent], t: int, window: WindowSpec
) -> Sequence[StreamEvent]:
    """Events at positions max(t-W+1, 1)..t, with 1-based t."""
    if not 1 <= t <= len(stream):
        raise IndexError(f"t={t} out of range for stream of length {len(stream)}")
    start = max(t - window.W + 1, 1)
    return stream[start - 1 : t]


def stream_distance(a: Sequence[StreamEvent], b: Sequence[StreamEvent]) -> int:
    """Distance between equal-length streams.

    Elements mode counts positions that differ (one substitution per step);
    integer mode counts unit steps, i.e. the sum of |a_t - b_t|.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    mode_a, mode_b = stream_mode(a), stream_mode(b)
    if a and b and mode_a != mode_b:
        raise ValueError(f"mode mismatch: {mode_a} vs {mode_b}")
    if mode_a == INTEGERS_MODE:
        return int(sum(abs(x.value - y.value) for x, y in zip(a, b)))
    return sum(1 for x, y in zip(a, b) if x != y)


def neighboring_streams(
    events: Sequence[StreamEvent], n: int
) -> Iterable[list[StreamEvent]]:
    """All streams at distance exactly 1 from ``events``.

    Elements mode: one position replaced by any other symbol in U ∪ {⊥};
    integer mode: one position shifted by ±1.
    """
    mode = stream_mode(events)
    for t in range(len(events)):
        if mode == INTEGERS_MODE:
            for step in (-1, 1):
                out = list(events)
                out[t] = integer(events[t].value + step)
                yield out
        else:
            symbols = [EMPTY_EVENT] + [element(i) for i in range(n)]
            for sym in symbols:
                if sym != events[t]:
                    out = list(events)
                    out[t] = sym
                    yield out


def _all_streams(n: int, T: int) -> Iterable[list[StreamEvent]]:
    symbols = [EMPTY_EVENT] + [element(i) for i in range(n)]
    idx = [0] * T
    while True:
        yield [symbols[i] for i in idx]
        for pos in range(T - 1, -1, -1):
            idx[pos] += 1
            if idx[pos] < len(symbols):
                break
            idx[pos] = 0
        else:
            return


StreamMapping = Callable[[Sequence[StreamEvent]], tuple[Sequence[StreamEvent], ...]]


def mapping_sensitivity(
    mapping: StreamMapping,
    n: int,
    T: int,
    budget: int = 10_000_000,
    aggregate: str = "sum",
) -> int:
    """Brute-force sensitivity of a stream mapping over all neighboring pairs.

    ``aggregate="sum"`` sums the per-derived-stream distances (the composition
    bound); ``aggregate="joint"`` counts timestamps at which the derived tuple
    differs at all, which is the right metric for partition-style mappings
    where one input touches one derived stream per stream version.

    The mapping must be deterministic (fix hash seeds before calling).  Raises
    :class:`ResourceBudgetError` once more than ``budget`` mapped-stream
    comparisons would be needed.
    """
    if aggregate not in ("sum", "joint"):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    comparisons = 0
    worst = 0
    for base in _all_streams(n, T):
        derived = mapping(base)
        for nb in neighboring_streams(base, n):
            comparisons += len(derived)
            if comparisons > budget:
                raise ResourceBudgetError(
                    f"sensitivity enumeration exceeded budget of {budget} comparisons"
                )
            derived_nb = mapping(nb)
            if len(derived_nb) != len(derived):
                raise ValueError("mapping changed its arity between neighbors")
            if aggregate == "sum":
                total = sum(
                    stream_distance(x, y) for x, y in zip(derived, derived_nb)
                )
            else:
                total = sum(
                    1
                    for t in range(T)
                    if any(x[t] != y[t] for x, y in zip(derived, derived_nb))
                )
            worst = max(worst, total)
    return worst


# generator kind -> the params it takes
_GENERATOR_PARAMS = {
    "uniform": (), "zipf": ("s",), "planted_heavy": ("frac",), "all_distinct": (), "bursty": ()
}


def generate_stream(
    kind: str, cfg: StreamConfig, seed: int, **params: float
) -> list[StreamEvent]:
    """Synthetic stream generators, deterministic for a fixed seed.

    Kinds: ``uniform``, ``zipf`` (param ``s``), ``planted_heavy`` (param
    ``frac``), ``all_distinct``, ``bursty``.  A param the kind does not take
    is refused.
    """
    if kind not in _GENERATOR_PARAMS:
        raise ValueError(f"unknown generator kind {kind!r}")
    unknown = set(params).difference(_GENERATOR_PARAMS[kind])
    if unknown:
        raise ValueError(f"generator {kind!r} takes no params {sorted(unknown)}")
    rng = np.random.default_rng(seed)
    T, n = cfg.T, cfg.n
    if kind == "uniform":
        ids = rng.integers(0, n, size=T)
        return [element(int(i)) for i in ids]
    if kind == "zipf":
        s = float(params.get("s", 1.2))
        weights = 1.0 / np.arange(1, n + 1, dtype=float) ** s
        weights /= weights.sum()
        ids = rng.choice(n, size=T, p=weights)
        return [element(int(i)) for i in ids]
    if kind == "planted_heavy":
        frac = float(params.get("frac", 0.5))
        if not 0.0 < frac <= 1.0:
            raise ValueError(f"frac must be in (0, 1], got {frac}")
        planted = int(round(frac * T))
        rest = n - 1 if n > 1 else 1
        ids = 1 + rng.integers(0, rest, size=T) if n > 1 else np.zeros(T, dtype=int)
        slots = rng.permutation(T)[:planted]
        ids[slots] = 0
        return [element(int(i)) for i in ids]
    if kind == "all_distinct":
        if n < T:
            raise ValueError(f"all_distinct needs n >= T, got n={n} T={T}")
        return [element(t) for t in range(T)]
    out: list[StreamEvent] = []  # bursty
    while len(out) < T:
        if rng.random() < 0.15:
            out.extend([EMPTY_EVENT] * int(rng.integers(1, 4)))
        else:
            e = element(int(rng.integers(0, n)))
            out.extend([e] * int(rng.geometric(0.25)))
    return out[:T]
