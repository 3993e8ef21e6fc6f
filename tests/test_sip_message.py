import gc
import random
import re
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_codec as reference
import samples
from sipnat.sip_message import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    BodyLengthMismatch,
    InvariantViolation,
    MalformedHeader,
    MalformedStartLine,
    MessageFramer,
    Method,
    MissingMandatoryHeader,
    SipMessage,
    SipParseError,
    UnsupportedMethod,
    ViaHeader,
    build_response,
    parse_message,
    serialize_message,
)


def test_parse_invite_fixture(invite_raw):
    msg = parse_message(invite_raw)
    assert msg.method is Method.INVITE
    assert msg.request_uri == "sip:ClientB@local2.com"
    assert msg.call_id == "12345625400@local1.com"
    assert (msg.cseq_num, msg.cseq_method) == (1, Method.INVITE)
    assert msg.contact == "ClientA <sip:Client@192.168.1.11>"
    assert msg.via.transport == "TCP"
    assert msg.via.sent_by == "192.168.1.11"
    assert msg.body.startswith(b"v=0")
    assert msg.content_type == "application/sdp"


def test_parse_answer_fixture(answer_raw):
    msg = parse_message(answer_raw)
    assert not msg.is_request
    assert msg.status_code == 200
    assert msg.reason == "OK"
    assert msg.via.sent_by == "192.168.1.11"
    assert msg.via.params == (
        ("branch", "z9hG4bK77ef4c2312983.1"), ("received", "68.92.25.44"), ("rport", "4325")
    )
    assert msg.contact == "<sip:ClientB@10.0.0.4>"


def test_parse_minimal_register_zero_body():
    msg = parse_message(samples.make_register())
    assert msg.method is Method.REGISTER
    assert msg.body == b""
    assert msg.contact == "<sip:ClientA@192.168.1.11>"


def test_round_trip_fixtures(invite_raw, answer_raw):
    for raw in (invite_raw, answer_raw):
        msg = parse_message(raw)
        assert parse_message(serialize_message(msg)) == msg


def test_canonical_form_is_stable(invite_raw, answer_raw):
    for raw in (invite_raw, answer_raw):
        canonical = serialize_message(parse_message(raw))
        assert serialize_message(parse_message(canonical)) == canonical


def test_content_length_always_recomputed(invite_raw):
    msg = parse_message(invite_raw)
    shorter = replace(msg, body=b"x" * 10)
    assert b"Content-Length: 10\r\n" in serialize_message(shorter)


def test_content_length_matches_131_byte_body():
    msg = parse_message(samples.make_register())
    out = serialize_message(replace(msg, body=b"y" * 131, content_type="application/sdp"))
    assert b"Content-Length: 131\r\n" in out


def test_line_endings_and_folds_give_exact_fields():
    raw = (
        b"INVITE sip:b@h.com SIP/2.0\r\n"
        b" X-Early: first\r\n"  # a fold right after the start line stands alone
        b"Via: SIP/2.0/TCP 10.0.0.4;branch=z9hG4bK1\r\r\n"  # CR CR LF ending
        b"From: <sip:a@h.com>;tag=1\r\n"
        b"\t;x=y\r\n"  # tab fold
        b"To: <sip:b@h.com>\n"  # bare LF ending
        b"\r\r\n"  # whitespace-only line
        b"\x0c\r\n"  # whitespace-only line
        b"Call-ID: id\rwith-cr@h.com\r\n"  # bare CR inside a value
        b"CSeq: 1 INVITE\r\n"
        b"Subject: hello\r\n"
        b"   world\r\n"  # space fold
        b"Content-Length: 2\r\n"
        b"\r\n"
        b"\r\n"
    )
    msg = parse_message(raw)
    assert msg.method is Method.INVITE
    assert msg.request_uri == "sip:b@h.com"
    assert msg.via == ViaHeader("TCP", "10.0.0.4", (("branch", "z9hG4bK1"),))
    assert msg.from_ == "<sip:a@h.com>;tag=1 ;x=y"
    assert msg.to_ == "<sip:b@h.com>"
    assert msg.call_id == "id\rwith-cr@h.com"
    assert (msg.cseq_num, msg.cseq_method) == (1, Method.INVITE)
    assert msg.extra_headers == (("X-Early", "first"), ("Subject", "hello world"))
    assert msg.body == b"\r\n"


@pytest.mark.parametrize(
    "header, value",
    [("Via", None), ("From", None), ("To", None), ("Call-ID", None), ("CSeq", None), ("Call-ID", "")],
    ids=["Via", "From", "To", "Call-ID", "CSeq", "empty_Call-ID"],
)
def test_missing_mandatory_header(header, value, invite_raw):
    # The header is left out, or its one line holds ``value``: an empty Call-ID counts as none.
    lines = invite_raw.split(b"\r\n")
    filtered = [l for l in lines if not l.lower().startswith(header.lower().encode() + b":")]
    if value is not None:
        filtered.insert(1, f"{header}: {value}".encode())
    with pytest.raises(MissingMandatoryHeader) as err:
        parse_message(b"\r\n".join(filtered))
    assert err.value.header == header


def test_malformed_start_line():
    with pytest.raises(MalformedStartLine):
        parse_message(b"INVITE sip:x@y\r\nVia: SIP/2.0/TCP h\r\n\r\n")
    with pytest.raises(MalformedStartLine):
        parse_message(b"SIP/2.0 banana OK\r\nVia: SIP/2.0/TCP h\r\n\r\n")
    with pytest.raises(MalformedStartLine):
        parse_message(b"no blank line at all")
    with pytest.raises(MalformedStartLine, match="bad request line"):
        parse_message(b"BYE  SIP/2.0\r\nVia: SIP/2.0/TCP h\r\n\r\n")  # empty Request-URI
    for code in (b"99", b"700"):
        with pytest.raises(MalformedStartLine, match="status code out of range"):
            parse_message(b"SIP/2.0 " + code + b" OK\r\nVia: SIP/2.0/TCP h\r\n\r\n")


@pytest.mark.parametrize(
    "field, error",
    [
        (rb"(SIP/2\.0 )200", MalformedStartLine),
        (rb"(CSeq: )1", MalformedHeader),
        (rb"(Content-Length: )\d+", MalformedHeader),
    ],
    ids=["status_code", "cseq", "content_length"],
)
def test_digit_fields_too_long_for_int_are_parse_errors(answer_raw, field, error):
    # int() refuses more than 4300 digits by default, with a ValueError.
    raw = re.sub(field, rb"\g<1>" + b"9" * 5000, answer_raw, count=1)
    assert raw != answer_raw
    with pytest.raises(error):
        parse_message(raw)


@pytest.mark.parametrize("header", ["From", "To", "Call-ID", "CSeq"])
def test_duplicate_header_rejected(header, answer_raw):
    (line,) = [l for l in answer_raw.split(b"\r\n") if l.startswith(header.encode() + b":")]
    raw = answer_raw.replace(line, line + b"\r\n" + line, 1)
    with pytest.raises(MalformedHeader, match=f"duplicate {header} header"):
        parse_message(raw)


def test_unsupported_method():
    raw = samples.make_register().replace(b"REGISTER", b"OPTIONS")
    with pytest.raises(UnsupportedMethod):
        parse_message(raw)


def test_body_length_mismatch(invite_raw):
    with pytest.raises(BodyLengthMismatch):
        parse_message(invite_raw + b"extra")
    with pytest.raises(BodyLengthMismatch):
        parse_message(invite_raw[:-3])


def test_multiple_via_rejected():
    raw = samples.make_register().replace(
        b"Via: SIP/2.0/TCP 192.168.1.11\r\n",
        b"Via: SIP/2.0/TCP 192.168.1.11\r\nVia: SIP/2.0/TCP 10.0.0.1\r\n",
    )
    with pytest.raises(MalformedHeader):
        parse_message(raw)


def test_cseq_method_must_match_request_method():
    raw = samples.make_register().replace(b"CSeq: 1 REGISTER", b"CSeq: 1 INVITE")
    with pytest.raises(MalformedHeader):
        parse_message(raw)


def test_headers_case_insensitive_and_lf_tolerated():
    raw = (
        b"REGISTER sip:local1.com SIP/2.0\n"
        b"VIA: SIP/2.0/TCP 192.168.1.11\n"
        b"from: A <sip:a@local1.com>\n"
        b"TO: A <sip:a@local1.com>\n"
        b"call-id: x@local1.com\n"
        b"cseq: 7 REGISTER\n"
        b"content-length: 0\n"
        b"\n"
    )
    msg = parse_message(raw)
    assert msg.cseq_num == 7
    assert msg.call_id == "x@local1.com"
    assert serialize_message(msg).count(b"\r\n") >= 7  # canonical CRLF output


def test_compact_forms_parse_as_their_long_forms():
    register = parse_message(samples.compact_register())
    assert register == parse_message(
        samples.make_register().replace(
            b"Via: SIP/2.0/TCP 192.168.1.11", b"Via: SIP/2.0/TCP 192.168.1.11;branch=z9hG4bKnashds7"
        ).replace(b"From: ClientA <sip:ClientA@local1.com>", b"From: ClientA <sip:ClientA@local1.com>;tag=a73kszlfl")
    )
    invite = parse_message(samples.compact_invite())
    assert (invite.call_id, invite.contact, invite.content_type) == (
        "3848276298220188511@local1.com", "<sip:ClientA@192.168.1.11>", "application/sdp"
    )
    assert invite.body == samples.sample_invite_body()
    assert invite.extra_headers == ()
    # Written back in long form, and read back the same.
    wire = serialize_message(invite)
    assert b"\r\nCall-ID: 3848276298220188511@local1.com\r\n" in wire
    assert parse_message(wire) == invite


@pytest.mark.parametrize("long, compact", [("Content-Length", b"l"), ("Call-ID", b"i"), ("Via", b"v")])
def test_a_header_and_its_compact_form_are_one_header(long, compact):
    register = samples.make_register()
    (line,) = [l for l in register.split(b"\r\n") if l.startswith(long.encode() + b":")]
    raw = register.replace(line, line + b"\r\n" + compact + line[len(long) :], 1)
    with pytest.raises(MalformedHeader, match="duplicate|multiple Via"):
        parse_message(raw)


def test_unknown_headers_round_trip():
    raw = samples.make_register().replace(
        b"CSeq: 1 REGISTER\r\n",
        b"CSeq: 1 REGISTER\r\nX-Custom: hello world\r\nUser-Agent: demo/1.0\r\n",
    )
    msg = parse_message(raw)
    assert ("X-Custom", "hello world") in msg.extra_headers
    again = parse_message(serialize_message(msg))
    assert again.extra_headers == msg.extra_headers


def test_serialize_rejects_invariant_violations():
    via = ViaHeader("TCP", "192.168.1.11")
    both = SipMessage(
        via=via, from_="a", to_="b", call_id="c", cseq_num=1, cseq_method=Method.INVITE,
        method=Method.INVITE, request_uri="sip:x@y", status_code=200, reason="OK",
    )
    with pytest.raises(InvariantViolation):
        serialize_message(both)
    empty_call_id = SipMessage(
        via=via, from_="a", to_="b", call_id="", cseq_num=1, cseq_method=Method.INVITE,
        method=Method.INVITE, request_uri="sip:x@y",
    )
    with pytest.raises(InvariantViolation):
        serialize_message(empty_call_id)
    cseq_mismatch = SipMessage(
        via=via, from_="a", to_="b", call_id="c", cseq_num=1, cseq_method=Method.BYE,
        method=Method.INVITE, request_uri="sip:x@y",
    )
    with pytest.raises(InvariantViolation):
        serialize_message(cseq_mismatch)


@pytest.mark.parametrize(
    "change",
    [
        {"request_uri": ""},
        {"method": None, "request_uri": None, "status_code": 700, "reason": "Too High"},
        {"cseq_num": -1},
        {"body": "v=0"},
        {"extra_headers": (("Subject", "\u03a9mega"),)},
    ],
    ids=[
        "request_without_uri", "status_code_out_of_range", "negative_cseq", "body_not_bytes",
        "header_not_latin_1",
    ],
)
def test_serialize_rejects_each_invariant_violation(change):
    request = SipMessage(
        via=ViaHeader("TCP", "192.168.1.11"), from_="a", to_="b", call_id="c", cseq_num=1,
        cseq_method=Method.INVITE, method=Method.INVITE, request_uri="sip:x@y",
    )
    serialize_message(request)
    with pytest.raises(InvariantViolation):
        serialize_message(replace(request, **change))


def test_generated_messages_round_trip():
    rng = random.Random(20240101)
    for _ in range(300):
        msg = samples.random_sip_message(rng)
        assert parse_message(serialize_message(msg)) == msg


def test_parser_total_on_fuzz_smoke(invite_raw, answer_raw):
    rng = random.Random(7)
    corpus = [invite_raw, answer_raw, samples.make_register()]
    for i in range(2000):
        if i % 2 == 0:
            data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 300)))
        else:
            data = samples.mutate(rng, rng.choice(corpus))
        try:
            parse_message(data)
        except SipParseError:
            pass  # typed failure is the contract


def test_parser_refuses_text_that_is_not_bytes(invite_raw):
    with pytest.raises(TypeError, match="must be bytes"):
        parse_message(invite_raw.decode())


def test_via_parameters_keep_their_written_order_and_case(invite_raw):
    via = "SIP/2.0/TCP 192.168.1.11;RPort;Branch=z9hG4bKx;lr;x-Tag=A;received=10.0.0.4"
    raw = invite_raw.replace(b"Via: SIP/2.0/TCP 192.168.1.11", f"Via: {via}".encode())
    msg = parse_message(raw)
    assert msg.via.params == (
        ("RPort", None), ("Branch", "z9hG4bKx"), ("lr", None), ("x-Tag", "A"), ("received", "10.0.0.4"),
    )
    assert f"\r\nVia: {via}\r\n".encode() in serialize_message(msg)


def test_contact_is_written_as_it_was_read(invite_raw):
    contact = '"Bob" <sip:ClientB@10.0.0.4;transport=tcp>;+sip.instance="<urn:uuid:1>";expires=600'
    for value in (contact, "sip:Client@192.168.1.11>"):  # a stray '>' too: the codec does not read it
        raw = invite_raw.replace(b"ClientA <sip:Client@192.168.1.11>", value.encode())
        msg = parse_message(raw)
        assert msg.contact == value
        assert f"\r\nContact: {value}\r\n".encode() in serialize_message(msg)


_SYNTAX_BYTES = b'<>";:, \r\n'


@st.composite
def mutated_samples(draw) -> bytes:
    """A sample message with one to three header bytes replaced, inserted or
    deleted.  Edits favour the bytes SIP's syntax turns on, at their own
    positions and as new bytes; a body edit would only break Content-Length."""
    data = draw(st.sampled_from([
        samples.sample_invite(), samples.sample_answer(), samples.make_register(),
        samples.compact_register(), samples.compact_invite(),
    ]))
    for _ in range(draw(st.integers(1, 3))):
        end = data.find(b"\r\n\r\n")
        if end == -1:
            end = len(data)
        anywhere = st.integers(0, end)
        syntax = [i for i in range(end) if data[i] in _SYNTAX_BYTES]
        pos = draw(st.sampled_from(syntax) | anywhere if syntax else anywhere)
        byte = bytes([draw(st.sampled_from(_SYNTAX_BYTES) | st.integers(0, 255))])
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        if kind == "replace":
            data = data[:pos] + byte + data[pos + 1 :]
        elif kind == "insert":
            data = data[:pos] + byte + data[pos:]
        else:
            data = data[:pos] + data[pos + 1 :]
    return data


@settings(max_examples=300)
@given(mutated_samples())
def test_serialize_of_parse_is_idempotent_on_mutated_samples(raw):
    try:
        msg = parse_message(raw)
    except SipParseError:
        return
    once = serialize_message(msg)
    assert serialize_message(parse_message(once)) == once


@st.composite
def start_lines_over_samples(draw) -> bytes:
    """A start line of drawn words and runs of spaces over a sample's header
    block: the sample's own method or a status line, an empty URI included."""
    data, method = draw(
        st.sampled_from(
            [
                (samples.sample_invite(), "INVITE"),
                (samples.sample_answer(), "INVITE"),
                (samples.make_register(), "REGISTER"),
            ]
        )
    )
    words = [
        draw(st.sampled_from([method, "SIP/2.0"])),
        draw(st.sampled_from(["sip:ClientA@local1.com", "", "200"])),
        draw(st.sampled_from(["SIP/2.0", "OK", ""])),
    ]
    spaces = st.sampled_from([" ", "", "  "])
    start = draw(spaces) + "".join(word + draw(spaces) for word in words)
    return start.encode() + data[data.index(b"\r\n") :]


@settings(max_examples=300)
@given(start_lines_over_samples())
def test_every_message_the_parser_accepts_serializes(raw):
    try:
        msg = parse_message(raw)
    except SipParseError:
        return
    msg.check_invariants()
    serialize_message(msg)


def _outcome(function, argument, errors):
    """What ``function(argument)`` returns, or the class and text of the error it raises."""
    try:
        return function(argument)
    except errors as exc:
        return type(exc), str(exc)


# Each header parse_message reads has one rule for every form.  The first two
# messages hold the forms serialize_message writes; the third holds other forms
# of the same headers and the fourth their compact names, so the sweep below
# covers them all against the reference.
_ONE_EDIT_MESSAGES = [
    "SIP/2.0 200 OK\r\nVia: SIP/2.0/TCP 127.0.0.1;branch=z9hG4bK1;received=127.0.0.1;rport=5060\r\n"
    "From: <sip:a@h>;tag=1\r\nTo: <sip:b@h>\r\nCall-ID: c1\r\nCSeq: 1 INVITE\r\n"
    "Contact: <sip:b@h>\r\nContent-Type: a/b\r\nContent-Length: 2\r\n\r\nhi",
    "BYE sip:b@h SIP/2.0\r\nVia: SIP/2.0/UDP h.example:5060;branch=z9hG4bK2\r\n"
    "From: <sip:a@h>;tag=1\r\nTo: <sip:b@h>\r\nCall-ID: c1\r\nCSeq: 2 BYE\r\n"
    "Contact: <sip:a@h>\r\nContent-Length: 0\r\n\r\n",
    "INVITE sip:b@h SIP/2.0\r\n via : SIP/2.0/TCP 10.0.0.1:5060 ; received=1.2.3.4:5 ; branch=z9hG4bK3 ; rport\r\n"
    "from  : <sip:a@h>;tag=1\r\nto:<sip:b@h>\r\ncall-id : c3\r\ncseq :3\tINVITE\r\n"
    "contact : \"A <a>; x\" <sip:a@10.0.0.1>;expires=60\r\ncontent-type : a/b\r\ncontent-length : 2\r\n\r\nhi",
    "ACK sip:b@h SIP/2.0\r\nv: SIP/2.0/TCP 10.0.0.1\r\nf: <sip:a@h>;tag=1\r\nt: <sip:b@h>\r\n"
    "i: c4\r\nCSeq: 4 ACK\r\nm: <sip:a@h>\r\nc: a/b\r\nl: 2\r\n\r\nhi",
]
# Whitespace ASCII and not, separators, brackets, and a digit that int() reads but parse_digits refuses.
_EDIT_TEXT = [" ", "\t", "\xa0", "\x85", ";", "=", ":", "<", ">", "\xb2", "0"]


def _one_edit_away(line: str):
    """Every line one insertion, replacement, deletion or case change away."""
    for i in range(len(line) + 1):
        for text in _EDIT_TEXT:
            yield line[:i] + text + line[i:]
    for i in range(len(line)):
        yield line[:i] + line[i + 1 :]
        yield line[:i] + line[i].swapcase() + line[i + 1 :]
        for text in _EDIT_TEXT:
            yield line[:i] + text + line[i + 1 :]


def test_parser_matches_the_reference_codec_one_edit_away():
    for message in _ONE_EDIT_MESSAGES:
        head, body = message.split("\r\n\r\n")
        lines = head.split("\r\n")
        for n in range(1, len(lines)):
            for line in _one_edit_away(lines[n]):
                raw = "\r\n".join([*lines[:n], line, *lines[n + 1 :]]) + "\r\n\r\n" + body
                _assert_parses_like_the_reference(raw.encode("latin-1"))


@settings(max_examples=300)
@given(mutated_samples() | st.binary(max_size=300))
def test_parser_matches_the_reference_codec(raw):
    _assert_parses_like_the_reference(raw)


def _assert_parses_like_the_reference(raw: bytes) -> None:
    got = _outcome(parse_message, raw, SipParseError)
    want = _outcome(reference.parse_message, raw, SipParseError)
    assert got == want
    if isinstance(want, SipMessage):
        assert _outcome(serialize_message, got, InvariantViolation) == _outcome(
            reference.serialize_message, want, InvariantViolation
        )


def _refuse(raw: bytes, head=None) -> None:
    try:
        parse_message(raw, head)
    except SipParseError:
        return
    raise AssertionError(f"parsed {raw!r}")


def test_refused_messages_leave_no_garbage(invite_raw):
    """A refused message leaves no reference cycle, so no garbage collection,
    whether it is parsed from its bytes or from the head the framer read."""
    refused = [
        invite_raw.replace(b" SIP/2.0\r\n", b" SIP/3.0\r\n", 1),  # a bad start line
        invite_raw.replace(b"\r\nCSeq:", b"\r\nno colon\r\nCSeq:", 1),  # a bad header line
        invite_raw.replace(b"CSeq: 1 INVITE", b"CSeq: one INVITE"),  # a bad CSeq
    ]
    gc.collect()
    gc.disable()
    try:
        for i in range(1000):
            raw = refused[i % len(refused)]
            _refuse(raw)
            ((framed, head),) = MessageFramer().feed(raw)
            _refuse(framed, head)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- TCP framing ---------------------------------------------------------------


def feed_raw(framer: MessageFramer, data: bytes) -> list[bytes]:
    """The raw messages ``framer.feed(data)`` returns, without their header sections."""
    return [raw for raw, _ in framer.feed(data)]


def test_framer_byte_by_byte(invite_raw):
    framer = MessageFramer()
    out = []
    for i in range(len(invite_raw)):
        out += feed_raw(framer, invite_raw[i : i + 1])
    assert out == [invite_raw]


def test_framer_multiple_messages_one_chunk(invite_raw):
    reg = samples.make_register()
    framer = MessageFramer()
    out = feed_raw(framer, reg + invite_raw + reg)
    assert out == [reg, invite_raw, reg]


def test_framer_body_with_blank_lines():
    body = b"line1\r\n\r\nline2\r\n\r\n"
    raw = (
        b"REGISTER sip:d SIP/2.0\r\nVia: SIP/2.0/TCP h\r\nFrom: a\r\nTo: b\r\n"
        b"Call-ID: c\r\nCSeq: 1 REGISTER\r\n"
        + b"Content-Length: %d\r\n\r\n" % len(body)
        + body
    )
    framer = MessageFramer()
    assert feed_raw(framer, raw) == [raw]
    assert parse_message(raw).body == body


def test_framer_lf_only_messages():
    raw = (
        b"REGISTER sip:d SIP/2.0\nVia: SIP/2.0/TCP h\nFrom: a\nTo: b\n"
        b"Call-ID: c\nCSeq: 1 REGISTER\nContent-Length: 2\n\nhi"
    )
    framer = MessageFramer()
    assert feed_raw(framer, raw) == [raw]
    # Framer and parser split at the same blank line, whatever the body holds.
    body = b"v=0\r\n\r\nrest"
    mixed = raw.replace(b"Content-Length: 2\n\nhi", b"Content-Length: %d\n\n" % len(body) + body)
    assert feed_raw(framer, mixed + raw[:10]) == [mixed]
    assert parse_message(mixed).body == body


def test_framer_header_overflow():
    framer = MessageFramer()
    assert feed_raw(framer, b"X" * MAX_HEADER_BYTES) == []
    assert framer.fault is None
    assert feed_raw(framer, b"X") == []
    assert framer.fault == "header section exceeds maximum size"


def test_framer_returns_framed_messages_before_header_overflow(invite_raw):
    framer = MessageFramer()
    # The messages ahead of the fault come first, from the feed that reaches it.
    assert feed_raw(framer, invite_raw + b"X" * 70000) == [invite_raw]
    assert framer.fault == "header section exceeds maximum size"
    assert feed_raw(framer, invite_raw) == []  # nothing after a fault is framed


def test_framer_ignores_crlf_where_a_message_would_start(invite_raw):
    reg = samples.make_register()
    framer = MessageFramer()
    # Before the first message, between messages, and alone (a double-CRLF keepalive).
    assert feed_raw(framer, b"\r\n" + reg + b"\r\n\r\n" + invite_raw) == [reg, invite_raw]
    assert feed_raw(framer, b"\r\n\r\n") == []
    assert feed_raw(framer, b"\n\r") == []
    assert feed_raw(framer, b"\r") == []
    assert feed_raw(framer, b"\n" + reg[:20]) == []
    assert feed_raw(framer, reg[20:]) == [reg]
    # CR and LF inside a message body are the body's.
    body = b"\r\n\r\n"
    raw = reg.replace(b"Content-Length: 0", b"Content-Length: 4") + body
    assert feed_raw(framer, raw + b"\r\n") == [raw]
    assert parse_message(raw).body == body


@st.composite
def cut_streams(draw) -> tuple[list[bytes], bytes, list[int]]:
    """One to three samples, each after zero to two CRLFs, the stream they
    make end to end, and the sorted points at which to cut that stream."""
    messages = [
        draw(st.sampled_from([samples.sample_invite(), samples.sample_answer(), samples.make_register()]))
        for _ in range(draw(st.integers(1, 3)))
    ]
    stream = b"".join(b"\r\n" * draw(st.integers(0, 2)) + m for m in messages)
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=8)))
    return messages, stream, cuts


@given(cut_streams())
def test_framer_frames_the_same_messages_however_the_stream_is_cut(case):
    messages, stream, cuts = case
    assert feed_raw(MessageFramer(), stream) == messages
    framer = MessageFramer()
    pieces = [stream[i:j] for i, j in zip([0, *cuts], [*cuts, len(stream)])]
    assert [m for piece in pieces for m in feed_raw(framer, piece)] == messages


# Stream pieces that sit at the framer's edges: blank lines, Content-Length
# spelt loosely, in its compact form, twice, not as digits or past its cap,
# and a header section as long as its cap.
_FRAMER_PIECES = [
    b"\r\n",
    b"\n\n",
    b"\r\n\r\n",
    b"\r\ncontent-LENGTH :\r\n 0003 \r\n\r\nabc",
    b"\nX-Content-Length: 5\nContent-Length: 1\n\nz",
    b"\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
    b"\r\nContent-Length: " + b"9" * 12 + b"\r\n\r\n",
    b"\r\nContent-Length: abc\r\n\r\n",
    b"\r\nContent-Length: +3\r\n\r\nabc",
    b"\r\nContent-Length: 3\r\nContent-Length: 83\r\n\r\nabc",
    b"\r\n\xa0Content-Length: 3\r\n\r\nabc",
    b"\r\nl: 3\r\n\r\nabc",
    b"X" * MAX_HEADER_BYTES,
]


@st.composite
def cut_streams_of_any_bytes(draw) -> tuple[bytes, list[int]]:
    """Samples, edited samples, edge pieces and arbitrary bytes end to end, and
    the sorted points at which to cut that stream."""
    pieces = st.sampled_from([samples.sample_invite(), samples.make_register(), *_FRAMER_PIECES])
    stream = b"".join(draw(st.lists(pieces | mutated_samples() | st.binary(max_size=60), max_size=5)))
    return stream, sorted(draw(st.lists(st.integers(0, len(stream)), max_size=8)))


@settings(max_examples=300)
@given(cut_streams_of_any_bytes())
def test_framer_matches_the_reference_codec_however_the_stream_is_cut(case):
    """Each feed frames the same messages as the reference framer, and sets
    the same fault, with the same reason, in the same feed."""
    stream, cuts = case
    framer, reference_framer = MessageFramer(), reference.MessageFramer()
    for i, j in zip([0, *cuts], [*cuts, len(stream)]):
        got = feed_raw(framer, stream[i:j]), framer.fault
        assert got == (reference_framer.feed(stream[i:j]), reference_framer.fault)


def _is_a_content_length_error(error) -> bool:
    text = error[1]
    return error[0] is BodyLengthMismatch or bool(
        re.match(r"bad Content-Length:|Content-Length too long:|duplicate (content-length|l) header", text, re.I)
    )


# Lines that stand in for a sample's Content-Length line.
_CONTENT_LENGTH_LINES = [
    b"Content-Length: abc",
    b"Content-Length: +83",
    b"Content-Length: 3\r\nContent-Length: 83",
    b"\xa0Content-Length: 83",
    b"l: 83",
    b"L :\r\n\t3",
    b"Content-Length:\r\n 8\r\n 3",
    b"X-Content-Length: 3\r\ncontent-length: 0x3",
]


@st.composite
def streams_with_a_content_length_edit(draw) -> bytes:
    """A sample whose Content-Length line is replaced by one of the lines
    above or by arbitrary text, then another sample."""
    first, then = (
        draw(st.sampled_from([samples.sample_invite(), samples.sample_answer(), samples.make_register()]))
        for _ in range(2)
    )
    line = draw(st.sampled_from(_CONTENT_LENGTH_LINES) | st.binary(max_size=30))
    return re.sub(rb"Content-Length: \d+", lambda _: line, first, count=1) + then


@settings(max_examples=300)
@given(streams_with_a_content_length_edit() | cut_streams_of_any_bytes().map(lambda case: case[0]))
def test_the_parser_never_refuses_the_content_length_the_framer_framed_by(stream):
    """Framer and parser read Content-Length by one rule, so a stream never
    falls out of step with its messages: what the framer cuts out has the body
    its Content-Length declares, or the stream cannot be framed.  Parsed from
    the header section the framer read, each message is the one, or raises
    the error (class and text), that parsing its bytes alone gives."""
    for raw, head in MessageFramer().feed(stream):
        outcome = _outcome(parse_message, raw, SipParseError)
        assert isinstance(outcome, SipMessage) or not _is_a_content_length_error(outcome), raw
        assert _outcome(lambda r: parse_message(r, head), raw, SipParseError) == outcome, raw


def test_framer_closes_a_stream_whose_content_length_it_cannot_read(invite_raw):
    reg = samples.make_register()
    for head, fault in (
        (b"Content-Length: abc", "bad Content-Length: 'abc'"),
        (b"Content-Length: +3", "bad Content-Length: '+3'"),
        (b"Content-Length: 3\r\nContent-Length: 3", "duplicate Content-Length header"),
    ):
        bad = reg.replace(b"Content-Length: 0", head).replace(b"\r\n\r\n", b"\r\n\r\nabc")
        framer = MessageFramer()
        assert feed_raw(framer, bad + reg) == []
        assert framer.fault == fault
        # Messages framed ahead of it come first, from the feed that reaches it.
        framer = MessageFramer()
        assert feed_raw(framer, invite_raw + bad + reg) == [invite_raw]
        assert framer.fault == fault
        assert feed_raw(framer, reg) == []
    # Read by the parser's rule: the compact form, and a name it strips.
    for head in (b"l: 3", b"\xa0Content-Length: 3", b"Content-Length:\r\n 3"):
        read = reg.replace(b"Content-Length: 0", head) + b"abc"
        assert feed_raw(MessageFramer(), read + reg) == [read, reg]
        assert parse_message(read).body == b"abc"
    assert feed_raw(MessageFramer(), samples.compact_invite() + reg) == [samples.compact_invite(), reg]


def test_framer_work_is_linear_in_the_bytes_fed_one_at_a_time():
    # 32 KiB of headers, then a 32 KiB body.  A framer that searched its whole
    # buffer again on every read took seconds for this; a linear one takes a
    # fraction of one.
    body = b"b" * 32768
    head = b"REGISTER sip:h SIP/2.0\r\nX-Pad: " + b"p" * 32700 + b"\r\nContent-Length: %d" % len(body)
    message = head + b"\r\n\r\n" + body
    framer = MessageFramer()
    framed = []
    started = time.process_time()
    for i in range(len(message)):
        framed += feed_raw(framer, message[i : i + 1])
    elapsed = time.process_time() - started
    assert framed == [message]
    assert elapsed < 1.5, f"{len(message)} one-byte feeds took {elapsed:.2f} s"


def test_framer_bounds_the_declared_body(invite_raw):
    head = invite_raw.split(b"\r\n\r\n", 1)[0]
    at_cap = head.replace(b"Content-Length:", b"X-Old-Length:") + b"\r\nContent-Length: %d\r\n\r\n"
    framer = MessageFramer()
    message = at_cap % MAX_BODY_BYTES + b"v" * MAX_BODY_BYTES
    assert feed_raw(framer, message) == [message]
    # Messages framed ahead of an oversized declaration come first, from the feed that reaches it.
    assert feed_raw(framer, invite_raw + at_cap % (MAX_BODY_BYTES + 1)) == [invite_raw]
    assert framer.fault == "declared body exceeds maximum size"
    for declared, fault in (
        (b"999999999999", "declared body exceeds maximum size"),
        (b"1" * 5000, "Content-Length too long: 5000 digits"),
    ):
        framer = MessageFramer()
        assert feed_raw(framer, at_cap.replace(b"%d", declared)) == []
        assert framer.fault == fault
    # Leading zeros do not count against the cap.
    for zeros in (40, 5000):
        padded = at_cap.replace(b"%d", b"0" * zeros + b"2") + b"hi"
        assert feed_raw(MessageFramer(), padded) == [padded]
        assert parse_message(padded).body == b"hi"


def test_build_response_echoes_identity(invite_raw):
    msg = parse_message(invite_raw)
    resp = build_response(msg, 404, "Not Found")
    assert resp.status_code == 404
    assert resp.call_id == msg.call_id
    assert (resp.cseq_num, resp.cseq_method) == (msg.cseq_num, msg.cseq_method)
    assert resp.via == msg.via
    reparsed = parse_message(serialize_message(resp))
    assert reparsed.status_code == 404
