"""Shared wire-format samples and random generators for the test suite."""

from __future__ import annotations

import random

from sipnat.net import TransportAddress
from sipnat.sip_message import Method, SipMessage, ViaHeader

INVITE_BODY_LINES = [
    "v=0",
    "o=ClientA 2890844526 28902245844526 IN IP4 local1.com",
    "s=Session SDP",
    "c=IN IP4 192.168.1.11",
    "t=0 0",
    "m=audio 49570 RTP/AVP 0",
    "a=rtpmap:0 PCMU/8000",
]

ANSWER_BODY_LINES = [
    "v=0",
    "o=ClientB 284586526 28922265 IN IP4 local2.com",
    "s=Session SDP",
    "c=IN IP4 10.0.0.4",
    "t=0 0",
    "m=audio 6580 RTP/AVP 0",
    "a=rtpmap:0 PCMU/8000",
]


def crlf_body(lines: list[str]) -> bytes:
    return ("\r\n".join(lines) + "\r\n").encode()


def sample_invite_body() -> bytes:
    return crlf_body(INVITE_BODY_LINES)


def sample_answer_body() -> bytes:
    return crlf_body(ANSWER_BODY_LINES)


def sample_invite() -> bytes:
    """Caller's INVITE with its private address in the session description."""
    body = sample_invite_body()
    head = [
        "INVITE sip:ClientB@local2.com SIP/2.0",
        "Via: SIP/2.0/TCP 192.168.1.11",
        "From: ClientA <sip:ClientA@local1.com>",
        "To: ClientB <sip:ClientB@local2.com>",
        "Call-ID: 12345625400@local1.com",
        "CSeq: 1 INVITE",
        "Contact: ClientA <sip:Client@192.168.1.11>",
        "Content-Type: application/sdp",
        f"Content-Length: {len(body)}",
        "",
    ]
    return "\r\n".join(head).encode() + b"\r\n" + body


def sample_answer() -> bytes:
    """Callee's 200 OK; the Via carries the source the server observed
    (RFC 3261 section 18.2.1, RFC 3581 section 4)."""
    body = sample_answer_body()
    head = [
        "SIP/2.0 200 OK",
        "Via: SIP/2.0/TCP 192.168.1.11;branch=z9hG4bK77ef4c2312983.1"
        ";received=68.92.25.44;rport=4325",
        "From: ClientA <sip:ClientA@local1.com>",
        "To: ClientB <sip:ClientB@local2.com>",
        "Call-ID: 12345625400@local1.com",
        "CSeq: 1 INVITE",
        "Contact: <sip:ClientB@10.0.0.4>",
        "Content-Type: application/sdp",
        f"Content-Length: {len(body)}",
        "",
    ]
    return "\r\n".join(head).encode() + b"\r\n" + body


def make_register(
    user: str = "ClientA",
    domain: str = "local1.com",
    host: str = "192.168.1.11",
    contact: bool = True,
    transport: str = "TCP",
) -> bytes:
    lines = [
        f"REGISTER sip:{domain} SIP/2.0",
        f"Via: SIP/2.0/{transport} {host}",
        f"From: {user} <sip:{user}@{domain}>",
        f"To: {user} <sip:{user}@{domain}>",
        f"Call-ID: reg-{user}@{domain}",
        "CSeq: 1 REGISTER",
    ]
    if contact:
        lines.append(f"Contact: <sip:{user}@{host}>")
    lines += ["Content-Length: 0", "", ""]
    return "\r\n".join(lines).encode()


def make_invite(
    caller: str = "ClientB",
    caller_domain: str = "local2.com",
    caller_host: str = "10.0.0.4",
    callee: str = "ClientA",
    callee_domain: str = "local1.com",
    call_id: str = "call-1@local2.com",
    body: bytes | None = None,
) -> bytes:
    if body is None:
        body = crlf_body(
            [
                "v=0",
                f"o={caller} 1 2 IN IP4 {caller_domain}",
                "s=Session SDP",
                f"c=IN IP4 {caller_host}",
                "t=0 0",
                "m=audio 6580 RTP/AVP 0",
                "a=rtpmap:0 PCMU/8000",
            ]
        )
    lines = [
        f"INVITE sip:{callee}@{callee_domain} SIP/2.0",
        f"Via: SIP/2.0/TCP {caller_host}",
        f"From: {caller} <sip:{caller}@{caller_domain}>",
        f"To: {callee} <sip:{callee}@{callee_domain}>",
        f"Call-ID: {call_id}",
        "CSeq: 1 INVITE",
        f"Contact: <sip:{caller}@{caller_host}>",
        "Content-Type: application/sdp",
        f"Content-Length: {len(body)}",
        "",
    ]
    return "\r\n".join(lines).encode() + b"\r\n" + body


def compact_register() -> bytes:
    """ClientA's REGISTER with every header that has one in its compact form
    (RFC 3261 section 7.3.3), spaced and cased as RFC 4475's tortuous
    messages space and case them."""
    lines = [
        "REGISTER sip:local1.com SIP/2.0",
        "v: SIP/2.0/TCP 192.168.1.11;branch=z9hG4bKnashds7",
        "f:ClientA <sip:ClientA@local1.com>;tag=a73kszlfl",
        "T : ClientA <sip:ClientA@local1.com>",
        "i: reg-ClientA@local1.com",
        "CSeq: 1 REGISTER",
        "m: <sip:ClientA@192.168.1.11>",
        "L:0",
        "",
        "",
    ]
    return "\r\n".join(lines).encode()


def compact_invite() -> bytes:
    """ClientA's INVITE to ClientB in compact forms, its Content-Length (l)
    folded onto a second line as RFC 4475 section 3.1.1.1 folds headers."""
    body = sample_invite_body()
    head = [
        "INVITE sip:ClientB@local2.com SIP/2.0",
        "v: SIP/2.0/TCP 192.168.1.11;branch=z9hG4bK74bf9",
        "f: ClientA <sip:ClientA@local1.com>;tag=9fxced76sl",
        "t: ClientB <sip:ClientB@local2.com>",
        "i: 3848276298220188511@local1.com",
        "CSeq: 1 INVITE",
        "m: <sip:ClientA@192.168.1.11>",
        "c: application/sdp",
        "l:",
        f"\t{len(body)}",
        "",
    ]
    return "\r\n".join(head).encode() + b"\r\n" + body


def stamped_source(via: ViaHeader) -> TransportAddress:
    """The source a proxy stamped on ``via`` as ``received`` and ``rport``;
    each must appear exactly once."""
    (ip,) = [value for name, value in via.params if name.lower() == "received"]
    (port,) = [value for name, value in via.params if name.lower() == "rport"]
    return TransportAddress(ip, int(port))


# -- random instance generators (seeded by the caller) ------------------------


def random_address(rng: random.Random) -> TransportAddress:
    ip = ".".join(str(rng.randint(1, 254)) for _ in range(4))
    return TransportAddress(ip, rng.randint(1, 65535))


def random_token(rng: random.Random, length: int = 8) -> str:
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    return "".join(rng.choice(alphabet) for _ in range(length))


def random_sip_message(rng: random.Random) -> SipMessage:
    """A valid message with randomized fields, for round-trip properties."""
    params = [
        ("branch", f"z9hG4bK{random_token(rng)}"),
        ("received", random_address(rng).ip),
        ("rport", str(rng.randint(1024, 60000))),
        ("rport", None),
        ("Lr", None),
    ]
    rng.shuffle(params)
    via = ViaHeader(
        transport=rng.choice(["TCP", "UDP"]),
        sent_by=(
            str(random_address(rng)) if rng.random() < 0.5 else f"host{rng.randint(0, 99)}.example"
        ),
        params=tuple(params[: rng.randint(0, 3)]),
    )
    user = random_token(rng, 6)
    domain = f"{random_token(rng, 5)}.com"
    body = bytes(rng.randrange(256) for _ in range(rng.randint(0, 200)))
    extra_headers = []
    if rng.random() < 0.5:
        extra_headers.append((f"X-{random_token(rng, 4).title()}", random_token(rng, 12)))
    common = dict(
        via=via,
        from_=f"{user} <sip:{user}@{domain}>",
        to_=f"<sip:{random_token(rng, 6)}@{domain}>",
        call_id=f"{random_token(rng, 10)}@{domain}",
        contact=rng.choice([f"sip:{user}@{domain}", f'"{user}" <sip:{user}@{domain}>;expires=60', None]),
        content_type="application/sdp" if body and rng.random() < 0.7 else None,
        body=body,
        extra_headers=tuple(extra_headers),
    )
    method = rng.choice(list(Method))
    if rng.random() < 0.5:
        return SipMessage(
            cseq_num=rng.randint(0, 99999),
            cseq_method=method,
            method=method,
            request_uri=f"sip:{user}@{domain}",
            **common,
        )
    return SipMessage(
        cseq_num=rng.randint(0, 99999),
        cseq_method=method,
        status_code=rng.choice([100, 180, 200, 400, 404, 481, 503, 603]),
        reason=rng.choice(["OK", "Ringing", "Not Found", "Busy Here", "Trying"]),
        **common,
    )


def random_sdp_body(rng: random.Random) -> bytes:
    """A one-media session description with optional lines at both levels in
    RFC 8866 order, its one connection address at session level, media level
    or both, and CRLF or bare-LF line ends."""
    ip = random_address(rng).ip
    level = rng.choice(["session", "media", "both"])

    def optional(line: str, p: float = 0.3) -> list[str]:
        return [line] if rng.random() < p else []

    def attributes() -> list[str]:
        return [f"a={random_token(rng, 6)}:{random_token(rng, 8)}" for _ in range(rng.randint(0, 3))]

    formats = " ".join(str(rng.randint(0, 127)) for _ in range(rng.randint(1, 4)))
    lines = [
        "v=0",
        f"o={random_token(rng, 6)} {rng.randint(0, 10**9)} {rng.randint(0, 10**9)}"
        f" IN IP4 {random_token(rng, 5)}.com",
        f"s={random_token(rng, 10)}",
        *optional(f"i={random_token(rng, 12)}"),
        *([f"c=IN IP4 {ip}"] if level != "media" else []),
        *optional(f"b=AS:{rng.randint(8, 256)}"),
        *optional("t=0 0", 0.8),
        *attributes(),
        f"m={rng.choice(['audio', 'video'])} {rng.randint(1, 65535)} RTP/AVP {formats}",
        *optional(f"i={random_token(rng, 12)}"),
        *([f"c=IN IP4 {ip}"] if level != "session" else []),
        *optional(f"b=AS:{rng.randint(8, 256)}"),
        *attributes(),
    ]
    ending = rng.choice(["\r\n", "\n"])
    return (ending.join(lines) + ending).encode()


def random_rtp_fields(rng: random.Random) -> dict:
    return dict(
        payload_type=rng.randint(0, 127),
        sequence=rng.randint(0, 0xFFFF),
        timestamp=rng.randint(0, 0xFFFFFFFF),
        ssrc=rng.randint(0, 0xFFFFFFFF),
        payload=bytes(rng.randrange(256) for _ in range(rng.randint(0, 64))),
    )


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One random corruption: flip, truncate, insert or duplicate."""
    if not data:
        return bytes([rng.randrange(256)])
    choice = rng.randrange(4)
    pos = rng.randrange(len(data))
    if choice == 0:
        return data[:pos] + bytes([rng.randrange(256)]) + data[pos + 1 :]
    if choice == 1:
        return data[:pos]
    if choice == 2:
        return data[:pos] + bytes([rng.randrange(256)]) + data[pos:]
    return data + data[:pos]
