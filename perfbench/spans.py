"""Span recorder for the traced benchmark run.

Layers are timed from outside: :meth:`Tracer.install` replaces public
callables of the library (class methods and module-level functions) with
timing wrappers, and :meth:`Tracer.uninstall` puts the originals back.  The
untraced runs never import this module, so they pay nothing for it.

Every wrapped call is timed and its duration is charged to the enclosing
wrapped call, so each key accumulates a call count, an inclusive time and a
self time (inclusive time minus the time of the wrapped calls it made).  Calls
that are not leaves are also kept as spans (name, depth, start, end) in
compact arrays until the run ends; hot leaf calls (tree reads, bucket reads,
node draws, hash evaluations) are only aggregated.
"""

from __future__ import annotations

import functools
import time
from array import array


class Stat:
    __slots__ = ("count", "total", "own")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.own = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        # (parent key, child key) -> calls; the parent is None at the root
        self.edges: dict[tuple, int] = {}
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_depth = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._originals: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget everything recorded so far; wrappers stay installed."""
        for stat in self.stats.values():
            stat.count, stat.total, stat.own = 0, 0.0, 0.0
        self.edges.clear()
        for arr in (self.span_name, self.span_depth, self.span_start, self.span_end):
            del arr[:]

    def stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    def wrap(self, key: str, fn, leaf: bool = False, after=None):
        """Timing wrapper around ``fn``; ``after(args)`` runs once it returns."""
        stat = self.stat(key)
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        name_id = len(self.names)
        self.names.append(key)
        span_name, span_depth = self.span_name, self.span_depth
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat.count += 1
                stat.total += dur
                stat.own += dur - frame[1]
                edge = (None if parent is None else parent[0], key)
                edges[edge] = edges.get(edge, 0) + 1
                if parent is not None:
                    parent[1] += dur
                if not leaf:
                    span_name.append(name_id)
                    span_depth.append(len(stack))
                    span_start.append(start)
                    span_end.append(end)
            if after is not None:
                after(args)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Patch ``(key, [(owner, attr), ...], leaf, after)`` targets in place.

        All owners listed for one key share one wrapper, so a function
        imported into several modules is counted once per call.
        """
        for key, owners, leaf, after in targets:
            first_owner, first_attr = owners[0]
            wrapper = self.wrap(key, getattr(first_owner, first_attr), leaf, after)
            for owner, attr in owners:
                self._originals.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def root_time(self) -> float:
        """Summed duration of the outermost stored spans."""
        return sum(
            end - start
            for depth, start, end in zip(self.span_depth, self.span_start, self.span_end)
            if depth == 0
        )

    def self_time_by_module(self) -> dict[str, float]:
        """Self time per module, the module being the key's prefix."""
        out: dict[str, float] = {}
        for key, stat in self.stats.items():
            module = key.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + stat.own
        return out

    def calls_under(self, parent: str | None, child: str) -> int:
        return self.edges.get((parent, child), 0)
