import copy
import random

import pytest

import samples
from sipnat.net import TransportAddress
from sipnat.sip_message import (
    BodyLengthMismatch,
    FramingError,
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
    stamp_received,
)


def test_parse_invite_fixture(invite_raw):
    msg = parse_message(invite_raw)
    assert msg.method is Method.INVITE
    assert msg.request_uri == "sip:ClientB@local2.com"
    assert msg.call_id == "12345625400@local1.com"
    assert (msg.cseq_num, msg.cseq_method) == (1, Method.INVITE)
    assert msg.contact == "sip:Client@192.168.1.11"
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
    assert msg.via.branch == "z9hG4bK77ef4c2312983.1"
    assert msg.via.received == TransportAddress("68.92.25.44", 4325)
    assert msg.contact == "sip:ClientB@10.0.0.4"


def test_parse_minimal_register_zero_body():
    msg = parse_message(samples.make_register())
    assert msg.method is Method.REGISTER
    assert msg.body == b""
    assert msg.contact == "sip:ClientA@192.168.1.11"


def test_round_trip_fixtures(invite_raw, answer_raw):
    for raw in (invite_raw, answer_raw):
        msg = parse_message(raw)
        assert parse_message(serialize_message(msg)) == msg


def test_canonical_form_is_stable(invite_raw, answer_raw):
    for raw in (invite_raw, answer_raw):
        canonical = serialize_message(parse_message(raw))
        assert serialize_message(parse_message(canonical)) == canonical


def test_content_length_always_recomputed(invite_raw):
    from dataclasses import replace

    msg = parse_message(invite_raw)
    shorter = replace(msg, body=b"x" * 10)
    assert b"Content-Length: 10\r\n" in serialize_message(shorter)


def test_content_length_matches_131_byte_body():
    msg = parse_message(samples.make_register())
    from dataclasses import replace

    out = serialize_message(replace(msg, body=b"y" * 131, content_type="application/sdp"))
    assert b"Content-Length: 131\r\n" in out


def test_stamp_received_sets_source(invite_raw):
    source = TransportAddress("68.92.25.44", 4325)
    msg = parse_message(invite_raw)
    assert msg.via.received is None
    stamped = stamp_received(msg, source)
    assert stamped.via.received == source
    assert msg.via.received is None  # original untouched


def test_stamp_received_source_equal_to_sent_by():
    raw = samples.make_register(host="10.0.0.7")
    msg = parse_message(raw)
    stamped = stamp_received(msg, TransportAddress("10.0.0.7", 5060))
    assert stamped.via.received == TransportAddress("10.0.0.7", 5060)


def test_stamp_received_idempotent(invite_raw):
    source = TransportAddress("68.92.25.44", 4325)
    once = stamp_received(parse_message(invite_raw), source)
    twice = stamp_received(once, source)
    assert once == twice
    assert serialize_message(once) == serialize_message(twice)


def test_stamp_received_leaves_its_argument_unchanged(answer_raw):
    msg = parse_message(answer_raw)
    via_before = copy.copy(msg.via)
    stamped = stamp_received(msg, TransportAddress("77.224.10.9", 6001))
    assert msg.via == via_before
    assert msg.via.received == TransportAddress("68.92.25.44", 4325)
    assert stamped.via.received == TransportAddress("77.224.10.9", 6001)
    assert stamped.via.branch == msg.via.branch
    assert (stamped.call_id, stamped.body, stamped.status_code) == (msg.call_id, msg.body, 200)


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
    assert msg.via == ViaHeader("TCP", "10.0.0.4", branch="z9hG4bK1")
    assert msg.from_ == "<sip:a@h.com>;tag=1 ;x=y"
    assert msg.to_ == "<sip:b@h.com>"
    assert msg.call_id == "id\rwith-cr@h.com"
    assert (msg.cseq_num, msg.cseq_method) == (1, Method.INVITE)
    assert msg.extra_headers == (("X-Early", "first"), ("Subject", "hello world"))
    assert msg.body == b"\r\n"


@pytest.mark.parametrize("header", ["Via", "From", "To", "Call-ID", "CSeq"])
def test_missing_mandatory_header(header, invite_raw):
    lines = invite_raw.split(b"\r\n")
    filtered = [l for l in lines if not l.lower().startswith(header.lower().encode() + b":")]
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


# -- TCP framing ---------------------------------------------------------------


def test_framer_byte_by_byte(invite_raw):
    framer = MessageFramer()
    out = []
    for i in range(len(invite_raw)):
        out += framer.feed(invite_raw[i : i + 1])
    assert out == [invite_raw]


def test_framer_multiple_messages_one_chunk(invite_raw):
    reg = samples.make_register()
    framer = MessageFramer()
    out = framer.feed(reg + invite_raw + reg)
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
    assert framer.feed(raw) == [raw]
    assert parse_message(raw).body == body


def test_framer_lf_only_messages():
    raw = (
        b"REGISTER sip:d SIP/2.0\nVia: SIP/2.0/TCP h\nFrom: a\nTo: b\n"
        b"Call-ID: c\nCSeq: 1 REGISTER\nContent-Length: 2\n\nhi"
    )
    framer = MessageFramer()
    assert framer.feed(raw) == [raw]
    # Framer and parser split at the same blank line, whatever the body holds.
    body = b"v=0\r\n\r\nrest"
    mixed = raw.replace(b"Content-Length: 2\n\nhi", b"Content-Length: %d\n\n" % len(body) + body)
    assert framer.feed(mixed + raw[:10]) == [mixed]
    assert parse_message(mixed).body == body


def test_framer_header_overflow():
    framer = MessageFramer(max_header_bytes=128)
    with pytest.raises(FramingError):
        framer.feed(b"X" * 200)


def test_build_response_echoes_identity(invite_raw):
    msg = parse_message(invite_raw)
    resp = build_response(msg, 404, "Not Found")
    assert resp.status_code == 404
    assert resp.call_id == msg.call_id
    assert (resp.cseq_num, resp.cseq_method) == (msg.cseq_num, msg.cseq_method)
    assert resp.via == msg.via
    reparsed = parse_message(serialize_message(resp))
    assert reparsed.status_code == 404
