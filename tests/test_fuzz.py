"""Fuzz-style robustness properties for the parsing front-ends.

Parsers guard the boundary between hostile input and the rest of the
system, so they must never die with anything except their declared
error type — no matter what bytes arrive.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.api.profiles import profile
from repro.errors import LexError, ParseError, SipParseError, TraceFormatError
from repro.instrument.lexer import tokenize
from repro.instrument.parser import parse
from repro.instrument.preprocess import preprocess
from repro.errors import InstrumentError
from repro.runtime import codec
from repro.runtime.trace import ReplayVM, TraceRecorder, build_handler_table
from repro.sip.message import Header, SipMessage
from repro.sip.parser import parse_message, serialize_message


class TestSipParserFuzz:
    @settings(max_examples=200)
    @given(st.text(max_size=300))
    def test_arbitrary_text_never_crashes(self, text):
        """Random input either parses or raises SipParseError — nothing
        else escapes."""
        try:
            parse_message(text)
        except SipParseError:
            pass

    @settings(max_examples=100)
    @given(st.binary(max_size=120))
    def test_latin1_garbage_never_crashes(self, data):
        try:
            parse_message(data.decode("latin-1"))
        except SipParseError:
            pass

    @settings(max_examples=100)
    @given(
        st.sampled_from(["INVITE", "BYE", "REGISTER", "OPTIONS", "NOTIFY"]),
        st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(
                        whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=127
                    ),
                    min_size=1,
                    max_size=12,
                ),
                st.text(
                    alphabet=st.characters(
                        blacklist_characters="\r\n\x00", max_codepoint=127
                    ),
                    max_size=24,
                ),
            ),
            max_size=5,
        ),
        st.text(
            alphabet=st.characters(blacklist_characters="\x00", max_codepoint=127),
            max_size=40,
        ),
    )
    def test_constructed_messages_roundtrip(self, method, extra_headers, body):
        msg = SipMessage.request(
            method,
            "sip:fuzz@example.com",
            call_id="fuzz-1",
            cseq=1,
            from_uri="sip:a@x",
            to_uri="sip:b@y",
            extra=[Header(n, v.strip()) for n, v in extra_headers],
            body=body,
        )
        reparsed = parse_message(serialize_message(msg))
        assert reparsed.method == method
        assert reparsed.body == body
        for name, value in extra_headers:
            assert reparsed.header(name) is not None


class TestMiniCxxFuzz:
    @settings(max_examples=200)
    @given(st.text(max_size=200))
    def test_lexer_total(self, text):
        """tokenize() terminates with tokens or LexError on any input."""
        try:
            tokens = tokenize(text)
        except LexError:
            return
        assert tokens[-1].kind == "eof"

    @settings(max_examples=200)
    @given(st.text(max_size=200))
    def test_parser_total(self, text):
        try:
            parse(text)
        except (LexError, ParseError):
            pass

    @settings(max_examples=100)
    @given(st.text(max_size=150))
    def test_preprocessor_total(self, text):
        try:
            preprocess(text)
        except InstrumentError:
            pass

    @settings(max_examples=60)
    @given(
        st.lists(
            st.sampled_from(
                [
                    "fn f() { return 1; }",
                    "global g = 0;",
                    "class C { field x; };",
                    "class D : C { dtor { } };",
                    'fn h(a) { if (a > 0) { return a; } return -a; }',
                    "fn loop() { var i = 0; while (i < 3) { i = i + 1; } }",
                ]
            ),
            max_size=5,
        )
    )
    def test_render_parse_fixed_point(self, snippets):
        """Any combination of valid declarations survives render→parse→
        render unchanged (modulo the first normalisation)."""
        from repro.instrument.render import render_module

        # Classes must precede uses; snippets are independent, so any
        # order parses as long as base classes come first.
        ordered = sorted(set(snippets), key=lambda s: (": C" in s, s))
        source = "\n".join(ordered)
        try:
            module = parse(source)
        except ParseError:
            return  # duplicate declarations etc. — fine
        text1 = render_module(module)
        text2 = render_module(parse(text1))
        assert text1 == text2


@pytest.fixture(scope="module")
def t1_cuts(tmp_path_factory):
    """T1 recorded under hwlc+dr: ``(trace bytes, record ends)``.

    The record ends are where a byte-at-a-time stream decoder's
    consumed count settles — every offset at which a cut leaves only
    whole records.
    """
    from repro.experiments.harness import run_proxy_case
    from repro.sip.workload import evaluation_cases

    case = next(c for c in evaluation_cases() if c.case_id == "T1")
    path = tmp_path_factory.mktemp("fuzz") / "T1.rptr"
    with TraceRecorder(path, format="binary") as recorder:
        run_proxy_case(case, "hwlc+dr", seed=42, extra_hooks=(recorder,))
    data = path.read_bytes()
    decoder = codec.StreamDecoder()
    ends = set()
    for i in range(len(data)):
        decoder.feed(data[i:i + 1])
        ends.add(decoder.bytes_consumed)
    return data, {end for end in ends if end >= len(codec.MAGIC)}


class TestTraceTruncationFuzz:
    """A trace cut short must end in :class:`TraceFormatError` — never
    an ``IndexError``, a ``struct.error`` or a silently shorter report.
    A cut that falls exactly on a record boundary leaves a well-formed
    shorter trace, which only an end trailer could tell apart."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_replay_of_a_cut_trace(self, t1_cuts, draw):
        data, ends = t1_cuts
        cut = draw.draw(st.integers(1, len(data) - 1), label="cut")
        vm = ReplayVM()
        table = build_handler_table((vm, profile("hwlc+dr").detector()))
        try:
            codec.replay_blocks(data[:cut], table, vm)
        except TraceFormatError:
            assert cut not in ends
        else:
            assert cut in ends

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_session_finish_of_a_cut_stream(self, t1_cuts, draw):
        data, ends = t1_cuts
        cut = draw.draw(st.integers(1, len(data) - 1), label="cut")
        chunk = draw.draw(st.integers(1, 4096), label="chunk")
        session = Session("hwlc+dr")
        for start in range(0, cut, chunk):
            session.feed(data[start:min(start + chunk, cut)])
        try:
            session.finalize()
        except TraceFormatError:
            assert cut not in ends
        else:
            assert cut in ends

