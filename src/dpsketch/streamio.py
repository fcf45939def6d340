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
mode (element and integer events never mix in one stream).  Equal lines parse
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
        signed = any(line.lstrip()[:1] in ("+", "-") for line in lines)
        effective = INTEGERS_MODE if signed else ELEMENTS_MODE

    def parse(i: int, token: str) -> StreamEvent | None:
        if not token:
            return None
        if token == "_":
            if effective == INTEGERS_MODE:
                raise StreamParseError(
                    path, i, "empty symbol is not valid in an integers-mode stream"
                )
            return EMPTY_EVENT
        try:
            if not _TOKEN_RE.fullmatch(token):
                raise ValueError(token)
            value = int(token, 10)
        except ValueError:
            raise StreamParseError(path, i, f"unrecognized token {token!r}") from None
        if effective == INTEGERS_MODE:
            return integer(value)
        if token[0] in "+-":
            raise StreamParseError(
                path, i, f"signed token {token!r} in an elements-mode stream"
            )
        if header is not None and value >= header.n:
            raise StreamParseError(
                path, i, f"element id {value} outside universe size {header.n}"
            )
        return element(value)

    # equal lines share one immutable event: a line is parsed at its first
    # occurrence, and every later copy of it is one dict lookup
    memo: dict[str, StreamEvent | None] = {}
    events: list[StreamEvent] = []
    for i, line in enumerate(lines[start:], start=start + 1):
        try:
            event = memo[line]
        except KeyError:
            event = memo[line] = parse(i, line.strip())
        if event is None:
            continue
        if header is not None and len(events) == header.T:
            raise StreamParseError(
                path, i, f"{header.T + 1} events exceed declared T={header.T}"
            )
        events.append(event)
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
