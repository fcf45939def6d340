import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsketch.streamio import StreamParseError, parse_stream_file, write_stream_file
from dpsketch.streams import (
    EMPTY_EVENT,
    StreamConfig,
    element,
    generate_stream,
    integer,
)


class TestParse:
    def test_elements_and_empty(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("3\n_\n3\n")
        events, header = parse_stream_file(path)
        assert events == [element(3), EMPTY_EVENT, element(3)]
        assert header is None

    def test_integers_mode(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("-2\n5\n")
        events, _ = parse_stream_file(path, mode="integers")
        assert events == [integer(-2), integer(5)]

    def test_signed_token_infers_integers(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("5\n-2\n")
        events, _ = parse_stream_file(path)
        assert events == [integer(5), integer(-2)]

    def test_header_parsed_and_validated(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("#T=4 n=8 mode=elements\n1\n2\n")
        events, header = parse_stream_file(path)
        assert header == StreamConfig(T=4, n=8, mode="elements")
        assert events == [element(1), element(2)]

    def test_header_universe_enforced(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("#T=4 n=2 mode=elements\n5\n")
        with pytest.raises(StreamParseError) as err:
            parse_stream_file(path)
        assert err.value.line_no == 2

    def test_malformed_token_line_number(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1\n2\nxyz\n")
        with pytest.raises(StreamParseError) as err:
            parse_stream_file(path)
        assert err.value.line_no == 3

    def test_signed_in_declared_elements_mode(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("#T=4 n=8 mode=elements\n-1\n")
        with pytest.raises(StreamParseError):
            parse_stream_file(path)

    def test_too_many_events(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("#T=1 n=8 mode=elements\n1\n2\n")
        with pytest.raises(StreamParseError) as err:
            parse_stream_file(path)
        assert err.value.line_no == 3

    def test_excess_raises_at_first_event_past_T(self, tmp_path):
        # once read at the file's last line, after every later token was read
        path = tmp_path / "s.txt"
        path.write_text("#T=1 n=8 mode=elements\n1\n2\n3\nxyz\n")
        with pytest.raises(StreamParseError, match="exceed declared T=1") as err:
            parse_stream_file(path)
        assert err.value.line_no == 3

    @pytest.mark.parametrize(
        "body, mode",
        [
            ("1_0", None),  # once element 10
            ("+1_000", "integers"),  # once integer 1000
            ("\u0663", None),  # Arabic-Indic three, once element 3
            ("-\u0663", "integers"),
            ("\u00b2", None),  # superscript two: str.isdigit() is true
        ],
        ids=["underscore", "signed-underscore", "arabic-indic", "signed-arabic-indic",
             "superscript"],
    )
    def test_token_grammar_is_ascii_digits(self, body, mode, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(f"1\n2\n{body}\n", encoding="utf-8")
        with pytest.raises(StreamParseError, match="unrecognized token") as err:
            parse_stream_file(path, mode=mode)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("header", ["#T=\u0663 n=8 mode=elements", "#T=3 n=\u0668 mode=elements"],
                             ids=["arabic-indic-T", "arabic-indic-n"])
    def test_header_grammar_is_ascii_digits(self, header, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(f"{header}\n1\n", encoding="utf-8")
        with pytest.raises(StreamParseError, match="malformed header") as err:
            parse_stream_file(path)
        assert err.value.line_no == 1

    def test_blank_padded_and_crlf_lines(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"#T=5 n=8 mode=elements\r\n 3\r\n\r\n\t_ \r\n3\r\n  \r\n7\r\n")
        events, header = parse_stream_file(path)
        assert header == StreamConfig(T=5, n=8)
        assert events == [element(3), EMPTY_EVENT, element(3), element(7)]


class TestRoundTrip:
    def test_elements_round_trip_random(self, tmp_path):
        for seed in range(20):
            cfg = StreamConfig(T=50, n=16)
            stream = generate_stream("bursty", cfg, seed=seed)
            path = tmp_path / f"rt-{seed}.txt"
            write_stream_file(path, stream, cfg)
            back, header = parse_stream_file(path)
            assert back == stream
            assert header == cfg

    def test_integers_round_trip(self, tmp_path):
        stream = [integer(v) for v in (-3, 0, 7, -1)]
        cfg = StreamConfig(T=4, n=1, mode="integers")
        path = tmp_path / "ints.txt"
        write_stream_file(path, stream, cfg)
        back, header = parse_stream_file(path)
        assert back == stream
        assert header == cfg


class TestSharedEvents:
    def test_equal_tokens_share_one_event(self, tmp_path):
        cfg = StreamConfig(T=1 << 17, n=256)
        stream = generate_stream("zipf", cfg, seed=1, s=1.2)
        path = tmp_path / "zipf.txt"
        write_stream_file(path, stream, cfg)
        events, header = parse_stream_file(path)
        assert events == stream and header == cfg
        assert len({id(e) for e in events}) <= cfg.n


def reference_parse(path, mode=None):
    """The two-loop parser: collect every token, then build one fresh event
    per token, with an ASCII token grammar and the excess event reported at
    its own line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = None
    start = 0
    if lines and lines[0].startswith("#"):
        m = re.match(
            r"^#\s*T=(?P<T>[0-9]+)\s+n=(?P<n>[0-9]+)\s+mode=(?P<mode>elements|integers)\s*$",
            lines[0],
        )
        if not m:
            raise StreamParseError(path, 1, f"malformed header {lines[0]!r}")
        header = StreamConfig(T=int(m["T"]), n=int(m["n"]), mode=m["mode"])
        start = 1

    tokens = []
    for i, line in enumerate(lines[start:], start=start + 1):
        token = line.strip()
        if token:
            tokens.append((i, token))

    effective = header.mode if header else mode
    if effective is None:
        signed = any(t[0] in "+-" for _, t in tokens)
        effective = "integers" if signed else "elements"

    events = []
    for i, token in tokens:
        if token == "_":
            if effective == "integers":
                raise StreamParseError(
                    path, i, "empty symbol is not valid in an integers-mode stream"
                )
            event = EMPTY_EVENT
        elif not re.fullmatch(r"[+-]?[0-9]+", token):
            raise StreamParseError(path, i, f"unrecognized token {token!r}")
        elif effective == "integers":
            event = integer(int(token, 10))
        elif token[0] in "+-":
            raise StreamParseError(path, i, f"signed token {token!r} in an elements-mode stream")
        elif header is not None and int(token, 10) >= header.n:
            raise StreamParseError(
                path, i, f"element id {int(token, 10)} outside universe size {header.n}"
            )
        else:
            event = element(int(token, 10))
        if header is not None and len(events) == header.T:
            raise StreamParseError(
                path, i, f"{header.T + 1} events exceed declared T={header.T}"
            )
        events.append(event)
    return events, header


# valid tokens outweigh bad ones, so a run often reaches a header's T
_TOKENS = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(0, 3).map(str),
    st.just("_"),
    st.integers(-12, 12).map(lambda v: f"{v:+d}"),
    st.integers(-12, 12).map(str),
    st.sampled_from(["", "x", "1_0", "+1_000", "\u0663", "\u00b2", "1-2", "- 1", "+", "#T=2"]),
)
_LINES = st.tuples(
    st.sampled_from(["", " ", "\t", "  "]), _TOKENS, st.sampled_from(["", " ", "\t"])
).map("".join)
_HEADERS = st.one_of(
    st.just(None),
    st.builds(
        "#T={} n={} mode={}".format,
        st.integers(1, 6),
        st.integers(1, 12),
        st.sampled_from(["elements", "integers"]),
    ),
    st.just("#T=x"),
)


class TestMatchesReferenceParser:
    @settings(max_examples=300, deadline=None)
    @given(
        header=_HEADERS,
        lines=st.lists(_LINES, max_size=16),
        newline=st.sampled_from(["\n", "\r\n"]),
        mode=st.sampled_from([None, "elements", "integers"]),
    )
    def test_same_events_or_same_error(self, header, lines, newline, mode, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "property.txt"
        body = ([header] if header is not None else []) + lines
        path.write_bytes(newline.join(body).encode("utf-8"))
        try:
            expected = reference_parse(path, mode)
        except StreamParseError as exc:
            with pytest.raises(StreamParseError) as err:
                parse_stream_file(path, mode)
            assert (err.value.line_no, str(err.value)) == (exc.line_no, str(exc))
        else:
            assert parse_stream_file(path, mode) == expected
