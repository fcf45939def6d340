"""Stream file format: UTF-8 text, one token per line.

A token is a line stripped of surrounding whitespace; blank lines are skipped.
The grammar is ASCII only:

    element id     [0-9]+          an element of the universe
    empty symbol   _               a timestamp with no element
    integer event  [+-]?[0-9]+     an integers-mode value

The optional first line "#T=<int> n=<int> mode=<elements|integers>", each
<int> [0-9]+, declares the stream shape: at most T events and, in elements
mode, ids below n.  When
no mode is declared, a file containing any signed token is read in integers
mode (element and integer events never mix in one stream).  Equal tokens parse
to one shared (immutable) event object.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Sequence

from .streams import (
    ELEMENTS_MODE,
    EMPTY_EVENT,
    INTEGERS_MODE,
    StreamConfig,
    StreamEvent,
    element,
    integer,
)

_HEADER_RE = re.compile(
    r"^#\s*T=(?P<T>[0-9]+)\s+n=(?P<n>[0-9]+)\s+mode=(?P<mode>elements|integers)\s*$"
)
_TOKEN_RE = re.compile(r"[+-]?[0-9]+")


class StreamParseError(ValueError):
    """Malformed stream file; carries the offending line number."""

    def __init__(self, path: str | Path, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _parse_token(token: str, integers: bool, n: int | None) -> StreamEvent | str | None:
    """A stripped line's event, None if it is blank, or its error message."""
    if not token:
        return None
    if token == "_":
        if integers:
            return "empty symbol is not valid in an integers-mode stream"
        return EMPTY_EVENT
    if not _TOKEN_RE.fullmatch(token):
        return f"unrecognized token {token!r}"
    value = int(token, 10)
    if integers:
        return integer(value)
    if token[0] in "+-":
        return f"signed token {token!r} in an elements-mode stream"
    if n is not None and value >= n:
        return f"element id {value} outside universe size {n}"
    return element(value)


class _LineMemo(dict):
    """Line -> ``_parse_token`` of it, filled in at a line's first lookup.

    A padded line shares its stripped token's entry, so each distinct token
    is parsed once and equal tokens share one event.  ``blank`` and ``bad``
    record whether a blank line or an error was seen.
    """

    def __init__(self, mode: str, n: int | None) -> None:
        super().__init__()
        self.integers, self.n = mode == INTEGERS_MODE, n
        self.blank = self.bad = False

    def __missing__(self, line: str) -> StreamEvent | str | None:
        token = line.strip()
        if token != line:
            value = self[token]
        else:
            value = _parse_token(token, self.integers, self.n)
            self.blank |= value is None
            self.bad |= isinstance(value, str)
        self[line] = value
        return value


def parse_stream_file(
    path: str | Path, mode: str | None = None
) -> tuple[list[StreamEvent], StreamConfig | None]:
    """Parse a stream file; returns (events, header config or None).

    ``mode`` forces the interpretation of bare non-negative tokens when the
    file carries no header.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header: StreamConfig | None = None
    start = 0
    if lines and lines[0].startswith("#"):
        m = _HEADER_RE.match(lines[0])
        if not m:
            raise StreamParseError(path, 1, f"malformed header {lines[0]!r}")
        header = StreamConfig(T=int(m["T"]), n=int(m["n"]), mode=m["mode"])
        start = 1

    effective = header.mode if header else mode
    if effective is None:
        signed = any(line.lstrip()[:1] in ("+", "-") for line in set(lines))
        effective = INTEGERS_MODE if signed else ELEMENTS_MODE

    memo = _LineMemo(effective, header.n if header else None)
    events = list(map(memo.__getitem__, lines[start:]))
    if memo.blank:  # events are non-empty tuples, so only the Nones drop
        events = list(filter(None, events))
    if memo.bad or (header is not None and len(events) > header.T):
        # an error exists: find its line, the first token error or the first
        # event past T, whichever comes first (at one line, the token error)
        count = 0
        for i, line in enumerate(lines[start:], start=start + 1):
            value = memo[line]
            if isinstance(value, str):
                raise StreamParseError(path, i, value)
            if value is None:
                continue
            count += 1
            if header is not None and count > header.T:
                raise StreamParseError(
                    path, i, f"{header.T + 1} events exceed declared T={header.T}"
                )
    return events, header


def write_stream_file(
    path: str | Path,
    events: Sequence[StreamEvent],
    cfg: StreamConfig | None = None,
) -> None:
    out: list[str] = []
    if cfg is not None:
        out.append(f"#T={cfg.T} n={cfg.n} mode={cfg.mode}")
    for e in events:
        if e.is_empty():
            out.append("_")
        elif e.is_integer():
            out.append(f"{e.value:+d}")
        else:
            out.append(str(e.value))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
