"""SIP message codec for the REGISTER / INVITE / ACK / BYE subset.

Parses and serializes textual SIP requests and responses with a single Via
hop, the mandatory header set (Via, From, To, Call-ID, CSeq) and an opaque
body framed by Content-Length.  Unknown headers are preserved verbatim so
that ``parse_message(serialize_message(m))`` is field-identical to ``m``.

Input accepts CRLF or bare LF line endings and case-insensitive header
names; output is always CRLF with canonical header capitalization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .net import InvariantViolation, TransportAddress, is_ascii_digits

MAX_HEADER_BYTES = 65536


class Method(str, Enum):
    REGISTER = "REGISTER"
    INVITE = "INVITE"
    ACK = "ACK"
    BYE = "BYE"


class SipError(Exception):
    """Base class for SIP codec failures."""


class SipParseError(SipError):
    """Base class for errors raised while parsing wire text."""


class MalformedStartLine(SipParseError):
    pass


class MissingMandatoryHeader(SipParseError):
    def __init__(self, header: str):
        super().__init__(f"missing mandatory header: {header}")
        self.header = header


class BodyLengthMismatch(SipParseError):
    pass


class UnsupportedMethod(SipParseError):
    pass


class MalformedHeader(SipParseError):
    pass


class FramingError(SipError):
    """The TCP stream cannot be split into messages."""


@dataclass
class ViaHeader:
    """Single Via hop: transport, sent-by host, and optional parameters.

    ``received`` carries the source address observed by the server, which is
    what response routing must use when the sent-by host is private.
    """

    transport: str  # "TCP" or "UDP"
    sent_by: str  # host or host:port, as written on the wire
    branch: str | None = None
    received: TransportAddress | None = None
    extra_params: tuple[tuple[str, str | None], ...] = ()

    def render(self) -> str:
        parts = [f"SIP/2.0/{self.transport} {self.sent_by}"]
        if self.branch is not None:
            parts.append(f";branch={self.branch}")
        if self.received is not None:
            parts.append(f";received={self.received}")
        for name, value in self.extra_params:
            parts.append(f";{name}" if value is None else f";{name}={value}")
        return "".join(parts)


@dataclass
class SipMessage:
    """One parsed SIP request or response.

    Exactly one of ``method`` (requests) or ``status_code`` (responses) is
    set.  ``extra_headers`` keeps unrecognized headers in arrival order so
    serialization round-trips.
    """

    via: ViaHeader
    from_: str
    to_: str
    call_id: str
    cseq_num: int
    cseq_method: Method
    method: Method | None = None
    request_uri: str | None = None
    status_code: int | None = None
    reason: str | None = None
    contact: str | None = None
    content_type: str | None = None
    body: bytes = b""
    extra_headers: tuple[tuple[str, str], ...] = ()

    @property
    def is_request(self) -> bool:
        return self.method is not None

    def check_invariants(self) -> None:
        """Raise InvariantViolation unless the message is self-consistent."""
        if (self.method is None) == (self.status_code is None):
            raise InvariantViolation("message must be a request xor a response")
        if self.is_request:
            if not self.request_uri:
                raise InvariantViolation("request without request URI")
            if self.cseq_method is not self.method:
                raise InvariantViolation(
                    f"CSeq method {self.cseq_method} does not match {self.method}"
                )
        else:
            if self.status_code is not None and not 100 <= self.status_code <= 699:
                raise InvariantViolation(f"status code out of range: {self.status_code}")
        if not self.call_id:
            raise InvariantViolation("empty Call-ID")
        if self.cseq_num < 0:
            raise InvariantViolation("negative CSeq number")
        if not isinstance(self.body, bytes):
            raise InvariantViolation("body must be bytes")


_VIA_RE = re.compile(r"^SIP/2\.0/(TCP|UDP)\s+([^;\s]+)\s*(;.*)?$")
_CSEQ_RE = re.compile(r"^(\d+)\s+(\S+)$", re.ASCII)
_CONTENT_LENGTH_RE = re.compile(rb"^content-length\s*:\s*(\d+)\s*$", re.I | re.M)
_METHODS = {m.value: m for m in Method}  # by wire name: cheaper than Method(name)
# Headers other than Via that a message may carry at most once, by lower-case name.
_KNOWN_HEADERS = frozenset(
    ("from", "to", "call-id", "cseq", "contact", "content-type", "content-length")
)
_MANDATORY_KNOWN = (("From", "from"), ("To", "to"), ("Call-ID", "call-id"), ("CSeq", "cseq"))


def _parse_via(value: str) -> ViaHeader:
    """Parse a stripped Via header value."""
    m = _VIA_RE.match(value)
    if not m:
        raise MalformedHeader(f"bad Via header: {value!r}")
    transport, sent_by, param_text = m.groups("")
    branch: str | None = None
    received: TransportAddress | None = None
    extras: list[tuple[str, str | None]] = []
    for chunk in param_text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, eq, value_part = chunk.partition("=")
        name = name.strip()
        value_part = value_part.strip() if eq else None
        lname = name.lower()
        if lname == "branch":
            branch = value_part or ""
        elif lname == "received":
            try:
                received = TransportAddress.parse(value_part or "")
            except ValueError as exc:
                raise MalformedHeader(f"bad received parameter: {value_part!r}") from exc
        else:
            extras.append((name, value_part))
    return ViaHeader(transport, sent_by, branch, received, tuple(extras))


# RFC 3261 name-addr: a quoted-string or token display name, then '<uri>'.
# The quoted form may hold '<', '>' and ';'; parameters after '>' may hold a
# quoted '<' (RFC 5626 +sip.instance), so only the first '<uri>' counts.
_NAME_ADDR_RE = re.compile(r'\s*(?:"(?:[^"\\]|\\.)*"\s*|[^"<;]*)<([^>]*)>')


def uri_of(value: str) -> str:
    """The URI of a name-addr ('Name <uri>;params') or of a bare URI.

    A bare URI loses its parameters.
    """
    m = _NAME_ADDR_RE.match(value)
    if m:
        return m.group(1).strip()
    return value.split(";")[0].strip()


def _header_end(raw: bytes, start: int = 0) -> tuple[int, int] | None:
    """(end of the headers, start of the body) at the first blank line at or
    after ``start``, if any."""
    crlf = raw.find(b"\r\n\r\n", start)
    if crlf == -1:
        lf = raw.find(b"\n\n", start)
        return None if lf == -1 else (lf, lf + 2)
    # Only an LF blank line that ends before the CRLF one can come first.
    lf = raw.find(b"\n\n", start, crlf)
    if lf == -1:
        return crlf, crlf + 4
    return lf, lf + 2


def parse_message(raw: bytes) -> SipMessage:
    """Parse one complete SIP message (headers, blank line, body).

    Raises a SipParseError subclass on any malformed input; never any other
    exception, for arbitrary byte strings.
    """
    if not isinstance(raw, (bytes, bytearray)):
        raise TypeError("raw message must be bytes")
    raw = bytes(raw)
    split = _header_end(raw)
    if split is None:
        raise MalformedStartLine("message has no blank line terminating the headers")
    header_end, body_start = split
    body = raw[body_start:]
    text = raw[:header_end].decode("latin-1").replace("\r\n", "\n")
    lines = text.split("\n")
    start = lines[0].strip()
    if not start:
        raise MalformedStartLine("empty start line")

    # Unfold continuation lines (leading whitespace joins the previous header;
    # right after the start line it does not, and the line stands alone).
    if "\n " in text or "\n\t" in text:
        unfolded: list[str] = lines[:2]
        for line in lines[2:]:
            if line[:1] in (" ", "\t"):
                unfolded[-1] += " " + line.strip()
            else:
                unfolded.append(line)
        lines = unfolded

    method: Method | None = None
    request_uri: str | None = None
    status_code: int | None = None
    reason: str | None = None
    if start.startswith("SIP/2.0"):
        parts = start.split(" ", 2)
        if len(parts) < 2 or parts[0] != "SIP/2.0" or not is_ascii_digits(parts[1]):
            raise MalformedStartLine(f"bad status line: {start!r}")
        status_code = int(parts[1])
        if not 100 <= status_code <= 699:
            raise MalformedStartLine(f"status code out of range: {status_code}")
        reason = parts[2] if len(parts) > 2 else ""
    else:
        parts = start.split(" ")
        if len(parts) != 3 or parts[2] != "SIP/2.0":
            raise MalformedStartLine(f"bad request line: {start!r}")
        method = _METHODS.get(parts[0])
        if method is None:
            raise UnsupportedMethod(f"unsupported method: {parts[0]!r}")
        request_uri = parts[1]

    via: ViaHeader | None = None
    known: dict[str, str] = {}
    extras: list[tuple[str, str]] = []
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            if line.strip():
                raise MalformedHeader(f"bad header line: {line!r}")
            continue  # whitespace only
        name = name.strip()
        if not name:
            raise MalformedHeader(f"bad header line: {line!r}")
        lname = name.lower()
        if lname in _KNOWN_HEADERS:
            if lname in known:
                raise MalformedHeader(f"duplicate {name} header")
            known[lname] = value.strip()
        elif lname == "via":
            if via is not None:
                raise MalformedHeader("multiple Via headers are not supported")
            via = _parse_via(value.strip())
        else:
            extras.append((name, value.strip()))

    if via is None:
        raise MissingMandatoryHeader("Via")
    for header, key in _MANDATORY_KNOWN:
        if key not in known:
            raise MissingMandatoryHeader(header)
    call_id = known["call-id"]
    if not call_id:
        raise MissingMandatoryHeader("Call-ID")

    cseq = known["cseq"]
    m = _CSEQ_RE.match(cseq)
    if not m:
        raise MalformedHeader(f"bad CSeq header: {cseq!r}")
    cseq_method = _METHODS.get(m.group(2))
    if cseq_method is None:
        raise UnsupportedMethod(f"unsupported CSeq method: {m.group(2)!r}")
    if method is not None and cseq_method is not method:
        raise MalformedHeader(
            f"CSeq method {cseq_method.value} does not match request method {method.value}"
        )

    length = known.get("content-length")
    if length is not None:
        if not is_ascii_digits(length):
            raise MalformedHeader(f"bad Content-Length: {length!r}")
        declared = int(length)
        if declared != len(body):
            raise BodyLengthMismatch(
                f"Content-Length {declared} but body has {len(body)} bytes"
            )

    contact = known.get("contact")
    # Positional, in field order: about half the cost of keywords.
    return SipMessage(
        via, known["from"], known["to"], call_id, int(m.group(1)), cseq_method,
        method, request_uri, status_code, reason,
        None if contact is None else uri_of(contact),
        known.get("content-type"), body, tuple(extras),
    )


def serialize_message(msg: SipMessage) -> bytes:
    """Emit CRLF wire text; Content-Length is always recomputed from the body."""
    msg.check_invariants()
    if msg.is_request:
        start = f"{msg.method.value} {msg.request_uri} SIP/2.0"
    else:
        start = f"SIP/2.0 {msg.status_code} {msg.reason or ''}".rstrip()
    lines = [
        start,
        f"Via: {msg.via.render()}",
        f"From: {msg.from_}",
        f"To: {msg.to_}",
        f"Call-ID: {msg.call_id}",
        f"CSeq: {msg.cseq_num} {msg.cseq_method.value}",
    ]
    if msg.contact is not None:
        lines.append(f"Contact: <{msg.contact}>")
    for name, value in msg.extra_headers:
        lines.append(f"{name}: {value}")
    if msg.content_type is not None:
        lines.append(f"Content-Type: {msg.content_type}")
    lines.append(f"Content-Length: {len(msg.body)}")
    try:
        head = "\r\n".join(lines).encode("latin-1")
    except UnicodeEncodeError as exc:
        raise InvariantViolation(f"header contains non latin-1 text: {exc}") from exc
    return head + b"\r\n\r\n" + msg.body


def stamp_received(msg: SipMessage, source: TransportAddress) -> SipMessage:
    """Return a copy of a received request with via.received set to its source.

    Idempotent: stamping twice with the same source yields an equal message.
    """
    via = msg.via
    if via.received == source:
        return msg
    stamped = object.__new__(SipMessage)  # a shallow copy, at a quarter of copy.copy's cost
    stamped.__dict__.update(msg.__dict__)
    stamped.via = ViaHeader(via.transport, via.sent_by, via.branch, source, via.extra_params)
    return stamped


def build_response(
    request: SipMessage,
    status_code: int,
    reason: str,
    body: bytes = b"",
    content_type: str | None = None,
    contact: str | None = None,
) -> SipMessage:
    """Build a response echoing the request's Via, From, To, Call-ID and CSeq."""
    return SipMessage(
        via=request.via,
        from_=request.from_,
        to_=request.to_,
        call_id=request.call_id,
        cseq_num=request.cseq_num,
        cseq_method=request.cseq_method,
        status_code=status_code,
        reason=reason,
        contact=contact,
        content_type=content_type if body else None,
        body=body,
    )


class MessageFramer:
    """Splits an ordered TCP byte stream into complete SIP messages.

    Framing rule: read headers up to the blank line, then exactly
    Content-Length body bytes (0 if the header is absent).
    """

    def __init__(self, max_header_bytes: int = MAX_HEADER_BYTES):
        self._buffer = b""
        self._max_header_bytes = max_header_bytes

    def feed(self, data: bytes) -> list[bytes]:
        """Append stream bytes; return every complete raw message now available."""
        buffer = self._buffer + data
        messages: list[bytes] = []
        start = 0
        while True:
            split = _header_end(buffer, start)
            if split is None:
                break
            header_end, body_start = split
            m = _CONTENT_LENGTH_RE.search(buffer[start:header_end])
            total = body_start + (int(m.group(1)) if m else 0)
            if len(buffer) < total:
                break
            messages.append(buffer[start:total])
            start = total
        self._buffer = buffer[start:]
        if split is None and len(self._buffer) > self._max_header_bytes:
            raise FramingError("header section exceeds maximum size")
        return messages
