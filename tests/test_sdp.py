import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import samples
from sipnat.net import TransportAddress
from sipnat.sdp import (
    BadAddress,
    BadPort,
    SdpError,
    MissingLine,
    MultipleMediaUnsupported,
    SdpParseError,
    parse_sdp,
    rewrite_media,
    serialize_sdp,
)


def test_parse_invite_body():
    session = parse_sdp(samples.sample_invite_body())
    assert (session.connection_ip, session.media_port) == ("192.168.1.11", 49570)
    assert session.lines == [*(line + "\r" for line in samples.INVITE_BODY_LINES), ""]
    assert (session.connection_lines, session.media_lines) == ([3], [5])


def test_parse_answer_body():
    session = parse_sdp(samples.sample_answer_body())
    assert session.connection_ip == "10.0.0.4"
    assert session.media_port == 6580


@pytest.mark.parametrize("line_type", ["v", "o", "s", "c", "m"])
def test_missing_mandatory_line(line_type):
    lines = [l for l in samples.INVITE_BODY_LINES if not l.startswith(f"{line_type}=")]
    with pytest.raises(MissingLine) as err:
        parse_sdp(samples.crlf_body(lines))
    assert err.value.line_type == line_type


@pytest.mark.parametrize("line_type", ["o", "s", "c", "t"])
def test_duplicate_session_line_rejected(line_type):
    (line,) = [l for l in samples.INVITE_BODY_LINES if l.startswith(f"{line_type}=")]
    lines = [*samples.INVITE_BODY_LINES[:-2], line, *samples.INVITE_BODY_LINES[-2:]]
    with pytest.raises(SdpParseError, match=f"duplicate {line_type}= line"):
        parse_sdp(samples.crlf_body(lines))


def test_timing_line_is_optional():
    lines = [l for l in samples.INVITE_BODY_LINES if not l.startswith("t=")]
    session = parse_sdp(samples.crlf_body(lines))
    assert serialize_sdp(session) == samples.crlf_body(lines)
    assert b"t=" not in serialize_sdp(session)


def test_round_trip_fixture_bodies():
    for body in (samples.sample_invite_body(), samples.sample_answer_body()):
        session = parse_sdp(body)
        assert serialize_sdp(session) == body
        assert parse_sdp(serialize_sdp(session)) == session


def test_serialized_media_line_shape():
    session = parse_sdp(samples.sample_answer_body())
    assert b"m=audio 6580 RTP/AVP 0\r\n" in serialize_sdp(session)


def test_attribute_order_preserved():
    rng = random.Random(99)
    for _ in range(50):
        attrs = [f"attr{i}:{samples.random_token(rng)}" for i in range(rng.randint(0, 8))]
        rng.shuffle(attrs)
        lines = samples.INVITE_BODY_LINES[:6] + [f"a={a}" for a in attrs]
        session = parse_sdp(samples.crlf_body(lines))
        written = serialize_sdp(rewrite_media(session, TransportAddress("200.1.1.1", 40000)))
        assert [l[2:] for l in written.decode().split("\r\n") if l.startswith("a=")] == attrs


def test_unknown_lines_preserved():
    lines = samples.INVITE_BODY_LINES[:5] + ["b=AS:64", "i=a phone call"] + samples.INVITE_BODY_LINES[5:]
    session = parse_sdp(samples.crlf_body(lines))
    assert serialize_sdp(session) == samples.crlf_body(lines)
    assert parse_sdp(serialize_sdp(session)) == session


def test_rewrite_changes_exactly_two_lines():
    original = parse_sdp(samples.sample_invite_body())
    rewritten = rewrite_media(original, TransportAddress("200.1.1.1", 40000))
    before = serialize_sdp(original).decode().splitlines()
    after = serialize_sdp(rewritten).decode().splitlines()
    assert len(before) == len(after)
    changed = [(b, a) for b, a in zip(before, after) if b != a]
    assert changed == [
        ("c=IN IP4 192.168.1.11", "c=IN IP4 200.1.1.1"),
        ("m=audio 49570 RTP/AVP 0", "m=audio 40000 RTP/AVP 0"),
    ]


def test_rewrite_fixed_point():
    session = parse_sdp(samples.sample_invite_body())
    same = rewrite_media(session, TransportAddress("192.168.1.11", 49570))
    assert serialize_sdp(same) == serialize_sdp(session)


def test_rewrite_idempotent():
    session = parse_sdp(samples.sample_invite_body())
    relay = TransportAddress("200.1.1.1", 40000)
    once = rewrite_media(session, relay)
    twice = rewrite_media(once, relay)
    assert serialize_sdp(once) == serialize_sdp(twice)


def test_rewrite_does_not_mutate_input():
    session = parse_sdp(samples.sample_invite_body())
    rewrite_media(session, TransportAddress("200.1.1.1", 40000))
    assert session.connection_ip == "192.168.1.11"
    assert session.media_port == 49570
    assert serialize_sdp(session) == samples.sample_invite_body()


def test_rewrite_rejects_multiple_media():
    lines = samples.INVITE_BODY_LINES + ["m=video 50000 RTP/AVP 96"]
    session = parse_sdp(samples.crlf_body(lines))
    with pytest.raises(MultipleMediaUnsupported):
        rewrite_media(session, TransportAddress("200.1.1.1", 40000))


@pytest.mark.parametrize("session_level", [False, True], ids=["media_level_only", "both_levels"])
def test_a_media_level_connection_is_accepted_and_rewritten(session_level):
    lines = [l for l in samples.INVITE_BODY_LINES if session_level or not l.startswith("c=")]
    lines.append("c=IN IP4 1.2.3.4")  # after m=: the media's own connection line
    session = parse_sdp(samples.crlf_body(lines))
    assert (session.connection_ip, session.media_port) == ("1.2.3.4", 49570)
    rewritten = serialize_sdp(rewrite_media(session, TransportAddress("200.1.1.1", 40000)))
    expected = [
        "c=IN IP4 200.1.1.1" if l.startswith("c=") else l.replace("49570", "40000") for l in lines
    ]
    assert rewritten == samples.crlf_body(expected)


def test_a_second_connection_line_in_the_media_section_is_rejected():
    lines = [*samples.INVITE_BODY_LINES, "c=IN IP4 1.2.3.4", "c=IN IP4 1.2.3.4"]
    with pytest.raises(SdpParseError, match="duplicate c= line"):
        parse_sdp(samples.crlf_body(lines))


def test_a_bare_lf_body_passes_as_written():
    body = samples.sample_invite_body().replace(b"\r\n", b"\n")
    rewritten = serialize_sdp(rewrite_media(parse_sdp(body), TransportAddress("200.1.1.1", 40000)))
    assert rewritten == body.replace(b"192.168.1.11", b"200.1.1.1").replace(b"49570", b"40000")


def test_the_written_spacing_around_a_rewritten_value_is_kept():
    body = samples.sample_invite_body().replace(b"c=IN IP4 ", b"c=IN\tIP4  ").replace(
        b"m=audio 49570 ", b"m=audio  49570\t"
    )
    rewritten = serialize_sdp(rewrite_media(parse_sdp(body), TransportAddress("200.1.1.1", 40000)))
    assert b"c=IN\tIP4  200.1.1.1\r\n" in rewritten
    assert b"m=audio  40000\tRTP/AVP 0\r\n" in rewritten


def test_bad_port_and_address():
    with pytest.raises(BadPort):
        parse_sdp(samples.crlf_body(samples.INVITE_BODY_LINES).replace(b"49570", b"99999"))
    with pytest.raises(BadPort):
        parse_sdp(samples.crlf_body(samples.INVITE_BODY_LINES).replace(b"49570", b"0"))
    with pytest.raises(BadAddress):
        parse_sdp(samples.crlf_body(samples.INVITE_BODY_LINES).replace(b"192.168.1.11", b"local1.com"))


LONG_DIGITS = "9" * 5000  # more digits than int() converts


@pytest.mark.parametrize(
    "line, error",
    [
        ("v=" + LONG_DIGITS, SdpParseError),
        (f"m=audio {LONG_DIGITS} RTP/AVP 0", BadPort),
        (f"m=audio 49570 RTP/AVP 0 {LONG_DIGITS}", SdpParseError),
    ],
    ids=["version", "media_port", "payload_format"],
)
def test_digit_fields_too_long_for_int_are_parse_errors(line, error):
    lines = [line if l[:2] == line[:2] else l for l in samples.INVITE_BODY_LINES]
    with pytest.raises(error):
        parse_sdp(samples.crlf_body(lines))


def test_digit_fields_may_have_leading_zeros():
    lines = ["v=000", *samples.INVITE_BODY_LINES[1:5], "m=audio 0049570 RTP/AVP 00", "a=x"]
    session = parse_sdp(samples.crlf_body(lines))
    assert session.media_port == 49570
    rewritten = rewrite_media(session, TransportAddress("200.1.1.1", 40000))
    assert b"\r\nm=audio 40000 RTP/AVP 00\r\n" in serialize_sdp(rewritten)


def test_generated_sessions_round_trip():
    rng = random.Random(4242)
    for _ in range(300):
        body = samples.random_sdp_body(rng)
        session = parse_sdp(body)
        assert serialize_sdp(session) == body
        own = TransportAddress(session.connection_ip, session.media_port)
        assert serialize_sdp(rewrite_media(session, own)) == body


def test_parser_total_on_fuzz_smoke():
    rng = random.Random(11)
    base = samples.sample_invite_body()
    for i in range(2000):
        data = (
            bytes(rng.randrange(256) for _ in range(rng.randint(0, 200)))
            if i % 2
            else samples.mutate(rng, base)
        )
        try:
            parse_sdp(data)
        except SdpParseError:
            pass


_SDP_SYNTAX_BYTES = b"=\r\n .:0123456789"


@st.composite
def mutated_bodies(draw) -> bytes:
    """A sample session description with one to three bytes replaced,
    inserted or deleted, favouring the bytes its syntax turns on."""
    data = draw(st.sampled_from([samples.sample_invite_body(), samples.sample_answer_body()]))
    for _ in range(draw(st.integers(1, 3))):
        syntax = [i for i in range(len(data)) if data[i] in _SDP_SYNTAX_BYTES]
        pos = draw(st.sampled_from(syntax) | st.integers(0, len(data)))
        byte = bytes([draw(st.sampled_from(_SDP_SYNTAX_BYTES) | st.integers(0, 255))])
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        if kind == "replace":
            data = data[:pos] + byte + data[pos + 1 :]
        elif kind == "insert":
            data = data[:pos] + byte + data[pos:]
        else:
            data = data[:pos] + data[pos + 1 :]
    return data


@settings(max_examples=300)
@given(mutated_bodies() | st.binary(max_size=300))
def test_parser_raises_only_its_own_errors(data):
    try:
        parse_sdp(data)
    except SdpError:
        pass


relays = st.builds(TransportAddress, st.ip_addresses(v=4).map(str), st.integers(1, 65535))


@settings(max_examples=300)
@given(mutated_bodies(), relays)
def test_rewrite_changes_only_the_connection_address_and_the_media_port(data, relay):
    try:
        session = parse_sdp(data)
    except SdpError:
        return
    after = serialize_sdp(rewrite_media(session, relay)).decode("latin-1").split("\n")
    expected = []
    for line in data.decode("latin-1").split("\n"):
        if line.startswith("c="):
            line = _with_field(line, -2, relay.ip)
        elif line.startswith("m="):
            line = _with_field(line, 3, str(relay.port))
        expected.append(line)
    assert after == expected


def _with_field(line: str, index: int, value: str) -> str:
    """``line`` with one field of its value replaced: the value is split around
    each run of non-space characters, so 3 is the second field and -2 the last."""
    parts = re.split(r"(\S+)", line[2:])
    parts[index] = value
    return line[:2] + "".join(parts)
