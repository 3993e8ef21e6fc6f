"""The SIP codec in its plainest form: a test-only reference.

``parse_message``, its helpers, ``serialize_message`` and ``MessageFramer``
are copied unchanged from the version that re-scanned the framer's whole
buffer on each read and joined the wire text from a list of lines; it reads
each header by the one rule the library reads it by.  Four things differ:
``ViaHeader.render`` became the function ``render_via``; a request line
with an empty Request-URI is refused, as in the library; header names may
take their RFC 3261 compact forms; and the framer reads Content-Length by
the parser's own header-line rule, so a second Content-Length, or one that
is not digits, cannot be framed (the old framer took the first line its
own regex matched, and framed any other as a message with no body), and
a stream that cannot be framed sets ``fault`` in the read that reaches
it, after the messages ahead of it, in place of raising.  The
properties in ``test_sip_message.py`` require the library's codec to return
what this one returns, raise the same error (class and text) where it
raises, and write the same bytes.
"""

from __future__ import annotations

import re

from sipnat.net import InvariantViolation, TransportAddress, parse_digits
from sipnat.sip_message import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    BodyLengthMismatch,
    MalformedHeader,
    MalformedStartLine,
    Method,
    MissingMandatoryHeader,
    SipMessage,
    UnsupportedMethod,
    ViaHeader,
)

_VIA_RE = re.compile(r"^SIP/2\.0/(TCP|UDP)\s+([^;\s]+)\s*(;.*)?$")
_CSEQ_RE = re.compile(r"^(\d+)\s+(\S+)$", re.ASCII)
_METHODS = {m.value: m for m in Method}  # by wire name: cheaper than Method(name)
# Headers other than Via that a message may carry at most once, by lower-case name.
_KNOWN_HEADERS = frozenset(
    ("from", "to", "call-id", "cseq", "contact", "content-type", "content-length")
)
_MANDATORY_KNOWN = (("From", "from"), ("To", "to"), ("Call-ID", "call-id"), ("CSeq", "cseq"))
# RFC 3261 section 7.3.3 compact forms, by lower-case name.
_COMPACT = {
    "i": "call-id", "f": "from", "t": "to", "m": "contact",
    "l": "content-length", "c": "content-type", "v": "via",
}


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


def render_via(via: ViaHeader) -> str:
    parts = [f"SIP/2.0/{via.transport} {via.sent_by}"]
    if via.branch is not None:
        parts.append(f";branch={via.branch}")
    if via.received is not None:
        parts.append(f";received={via.received}")
    for name, value in via.extra_params:
        parts.append(f";{name}" if value is None else f";{name}={value}")
    return "".join(parts)


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
        if len(parts) < 2 or parts[0] != "SIP/2.0":
            raise MalformedStartLine(f"bad status line: {start!r}")
        status_code = parse_digits(parts[1], MalformedStartLine, "status code")
        if not 100 <= status_code <= 699:
            raise MalformedStartLine(f"status code out of range: {status_code}")
        reason = parts[2] if len(parts) > 2 else ""
    else:
        parts = start.split(" ")
        if len(parts) != 3 or not parts[1] or parts[2] != "SIP/2.0":
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
        lname = _COMPACT.get(lname, lname)
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
    cseq_num = parse_digits(m.group(1), MalformedHeader, "CSeq number")
    cseq_method = _METHODS.get(m.group(2))
    if cseq_method is None:
        raise UnsupportedMethod(f"unsupported CSeq method: {m.group(2)!r}")
    if method is not None and cseq_method is not method:
        raise MalformedHeader(
            f"CSeq method {cseq_method.value} does not match request method {method.value}"
        )

    length = known.get("content-length")
    if length is not None:
        declared = parse_digits(length, MalformedHeader, "Content-Length")
        if declared != len(body):
            raise BodyLengthMismatch(
                f"Content-Length {declared} but body has {len(body)} bytes"
            )

    contact = known.get("contact")
    if contact is not None:
        contact = uri_of(contact)
        # No URI holds '<' or '>' (RFC 3986 section 2); a stray one in a bare
        # URI would come back as a different Contact once serialised.
        if "<" in contact or ">" in contact:
            raise MalformedHeader(f"bad Contact header: {known['contact']!r}")
    # Positional, in field order: about half the cost of keywords.
    return SipMessage(
        via, known["from"], known["to"], call_id, cseq_num, cseq_method,
        method, request_uri, status_code, reason, contact,
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
        f"Via: {render_via(msg.via)}",
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


def _declared_length(head: bytes) -> int:
    """The body length the header section ``head`` declares, 0 if it has no
    Content-Length: each header line is found as parse_message finds it."""
    lines = head.decode("latin-1").replace("\r\n", "\n").split("\n")
    unfolded = lines[:2]
    for line in lines[2:]:
        if line[:1] in (" ", "\t"):
            unfolded[-1] += " " + line.strip()
        else:
            unfolded.append(line)
    values = []
    for line in unfolded[1:]:
        name, sep, value = line.partition(":")
        lname = name.strip().lower()
        if sep and _COMPACT.get(lname, lname) == "content-length":
            if values:
                raise MalformedHeader(f"duplicate {name.strip()} header")
            values.append(value.strip())
    return parse_digits(values[0], MalformedHeader, "Content-Length") if values else 0


class MessageFramer:
    """Splits an ordered TCP byte stream into complete SIP messages.

    Framing rule: skip CR and LF where a message would start (RFC 3261
    section 7.5), read headers up to the blank line, then exactly
    Content-Length body bytes (0 if the header is absent).  A second
    Content-Length, or one that is not digits, cannot be framed.
    """

    def __init__(self) -> None:
        self._buffer = b""
        self.fault: str | None = None  # why the stream cannot be framed, once it cannot

    def feed(self, data: bytes) -> list[bytes]:
        """Append stream bytes; return every complete raw message now available.

        When the unframed tail is a header section longer than
        ``MAX_HEADER_BYTES``, declares a body longer than ``MAX_BODY_BYTES``
        or has a Content-Length that cannot be read, sets ``fault`` and
        returns the messages ahead of it; frames nothing once ``fault`` is set.
        """
        if self.fault is not None:
            return []
        buffer = self._buffer + data
        messages: list[bytes] = []
        start = 0
        while True:
            while buffer[start : start + 1] in (b"\r", b"\n"):
                start += 1
            split = _header_end(buffer, start)
            if split is None:
                if len(buffer) - start > MAX_HEADER_BYTES:
                    self.fault = "header section exceeds maximum size"
                break
            header_end, body_start = split
            try:
                length = _declared_length(buffer[start:header_end])
            except MalformedHeader as exc:
                self.fault = str(exc)
                break
            if length > MAX_BODY_BYTES:
                self.fault = "declared body exceeds maximum size"
                break
            total = body_start + length
            if len(buffer) < total:
                break
            messages.append(buffer[start:total])
            start = total
        self._buffer = buffer[start:]
        return messages
