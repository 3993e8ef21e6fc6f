"""SIP message codec for the REGISTER / INVITE / ACK / BYE subset.

Parses and serializes textual SIP requests and responses with a single Via
hop, the mandatory header set (Via, From, To, Call-ID, CSeq) and an opaque
body framed by Content-Length.  Unknown headers are preserved verbatim so
that ``parse_message(serialize_message(m))`` is field-identical to ``m``.

Input accepts CRLF or bare LF line endings, case-insensitive header names
and their compact forms (RFC 3261 section 7.3.3); output is always CRLF with
canonical header names.  Each header is read by one rule (RFC 3261 section
7.3), whether it arrives in the form this module writes or in any other form
the rule accepts.

``MessageFramer`` frames a TCP stream by the Content-Length that
``parse_message``'s own pass over each header section reads, once, and
hands the pass on with its message.  A stream it cannot frame gets the
framer's verdict, ``fault``, from the read that reaches the fault, with the
messages framed ahead of it.  Its cost is linear in the bytes received,
however the stream is cut: a peer that sends one byte at a time costs no
more per byte than one that sends whole messages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .net import InvariantViolation, TransportAddress, parse_digits

MAX_HEADER_BYTES = 65536
MAX_BODY_BYTES = 65536


class Method(str, Enum):
    REGISTER = "REGISTER"
    INVITE = "INVITE"
    ACK = "ACK"
    BYE = "BYE"


class SipParseError(Exception):
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


@dataclass(slots=True)
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
        text = f"SIP/2.0/{self.transport} {self.sent_by}"
        if self.branch is not None:
            text += f";branch={self.branch}"
        if self.received is not None:
            text += f";received={self.received}"
        for name, value in self.extra_params:
            text += f";{name}" if value is None else f";{name}={value}"
        return text


@dataclass(slots=True)
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
_FOLD_RE = re.compile(r"\n([ \t].*)")  # a folded line (RFC 3261 section 7.3.1)
_METHODS = {m.value: m for m in Method}  # by wire name: cheaper than Method(name)
# The one header table: each header parse_message reads, by every lower-case
# name it may arrive under (RFC 3261 section 7.3.3 compact forms included).
# Via aside, a message may carry each at most once.
_HEADER_NAMES = {
    "via": "via", "v": "via",
    "from": "from", "f": "from",
    "to": "to", "t": "to",
    "call-id": "call-id", "i": "call-id",
    "cseq": "cseq",
    "contact": "contact", "m": "contact",
    "content-type": "content-type", "c": "content-type",
    "content-length": "content-length", "l": "content-length",
}
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
        name, eq, value_part = chunk.partition("=")
        name = name.strip()
        if eq:
            value_part = value_part.strip()
        elif name:
            value_part = None
        else:
            continue  # a blank chunk
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


@dataclass(slots=True)
class HeaderSection:
    """What one pass read of a message's header section (``_read_head``)."""

    body_start: int  # where the message's body starts
    error: tuple[type[SipParseError], str] | None  # parse_message's first, unless the body's or Contact's
    declared: int | None  # the body length Content-Length declares, None without one
    length_error: str | None  # why that length cannot be read: the end is unknown
    fields: tuple  # SipMessage's, from via to reason; read only without error
    contact: str | None  # as written, not yet the URI
    content_type: str | None
    extras: tuple[tuple[str, str], ...]


def _read_head(text: str, body_start: int) -> HeaderSection:
    """Read header section ``text`` (latin-1, start line first) in one pass,
    which goes on past any line ``parse_message`` refuses, so the framer gets
    Content-Length whatever else the section holds."""
    first, _, headers = text.replace("\r\n", "\n").partition("\n")
    error = None  # parse_message's first, as (class, argument): an instance's traceback holds this frame
    via: ViaHeader | None = None
    known: dict[str, str] = {}  # the other headers of _HEADER_NAMES, by key
    extras: list[tuple[str, str]] = []
    length_error: str | None = None
    if "\n " in headers or "\n\t" in headers:
        headers = _FOLD_RE.sub(lambda m: " " + m[1].strip(), headers)
    # The line right after the start line stands alone, whatever it begins with.
    for line in headers.split("\n"):
        name, sep, value = line.partition(":")
        name = name.strip()
        if not (sep and name):
            if sep or name:
                error = error or (MalformedHeader, f"bad header line: {line!r}")
            continue  # whitespace only
        key = _HEADER_NAMES.get(name.lower())
        if key is None:
            extras.append((name, value.strip()))
        elif key == "via":
            try:
                if via is not None:
                    raise MalformedHeader("multiple Via headers are not supported")
                via = _parse_via(value.strip())
            except MalformedHeader as exc:
                error = error or (MalformedHeader, str(exc))
        elif key in known:
            duplicate = f"duplicate {name} header"
            error = error or (MalformedHeader, duplicate)
            if key == "content-length":
                length_error = length_error or duplicate
        else:
            known[key] = value.strip()  # Content-Length too, so a second is refused in line order

    declared: int | None = None
    if "content-length" in known and length_error is None:
        try:
            declared = parse_digits(known["content-length"], MalformedHeader, "Content-Length")
        except MalformedHeader as exc:
            length_error = str(exc)
    method = request_uri = status_code = reason = None
    fields = ()
    start = first.strip()
    try:  # the start line's errors come before the header lines', and those that need every line after
        if not start:
            raise MalformedStartLine("empty start line")
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

        if error is None:
            if via is None:
                raise MissingMandatoryHeader("Via")
            for header, key in _MANDATORY_KNOWN:
                if key not in known:
                    raise MissingMandatoryHeader(header)
            if not known["call-id"]:
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
            fields = (
                via, known["from"], known["to"], known["call-id"], cseq_num, cseq_method,
                method, request_uri, status_code, reason,
            )
    except MissingMandatoryHeader as exc:
        error = (MissingMandatoryHeader, exc.header)
    except SipParseError as exc:
        error = (type(exc), str(exc))
    if error is None and length_error is not None:
        error = (MalformedHeader, length_error)  # checked last
    contact, content_type = known.get("contact"), known.get("content-type")
    return HeaderSection(body_start, error, declared, length_error, fields, contact, content_type, tuple(extras))


def parse_message(raw: bytes, head: HeaderSection | None = None) -> SipMessage:
    """Parse one complete SIP message (headers, blank line, body).

    ``head`` is its header section as ``MessageFramer.feed`` read it, if it
    was framed.  Raises a SipParseError subclass on any malformed input;
    never any other exception, for arbitrary byte strings.
    """
    if head is None:
        if not isinstance(raw, (bytes, bytearray)):
            raise TypeError("raw message must be bytes")
        raw = bytes(raw)
        split = _header_end(raw)
        if split is None:
            raise MalformedStartLine("message has no blank line terminating the headers")
        head = _read_head(raw[: split[0]].decode("latin-1"), split[1])
    if head.error is not None:
        error, argument = head.error
        raise error(argument)  # a fresh one, whose traceback holds no pass
    body = raw[head.body_start :]
    if head.declared is not None and head.declared != len(body):
        raise BodyLengthMismatch(f"Content-Length {head.declared} but body has {len(body)} bytes")

    contact = head.contact
    if contact is not None:
        contact = uri_of(contact)
        # No URI holds '<' or '>' (RFC 3986 section 2); a stray one in a bare
        # URI would come back as a different Contact once serialised.
        if "<" in contact or ">" in contact:
            raise MalformedHeader(f"bad Contact header: {head.contact!r}")
    # Positional, in field order: about half the cost of keywords.
    return SipMessage(*head.fields, contact, head.content_type, body, head.extras)


def serialize_message(msg: SipMessage) -> bytes:
    """Emit CRLF wire text; Content-Length is always recomputed from the body."""
    msg.check_invariants()
    if msg.method is not None:
        start = f"{msg.method.value} {msg.request_uri} SIP/2.0"
    else:
        start = f"SIP/2.0 {msg.status_code} {msg.reason or ''}".rstrip()
    head = (
        f"{start}\r\nVia: {msg.via.render()}\r\nFrom: {msg.from_}\r\nTo: {msg.to_}\r\n"
        f"Call-ID: {msg.call_id}\r\nCSeq: {msg.cseq_num} {msg.cseq_method.value}\r\n"
    )
    if msg.contact is not None:
        head += f"Contact: <{msg.contact}>\r\n"
    for name, value in msg.extra_headers:
        head += f"{name}: {value}\r\n"
    if msg.content_type is not None:
        head += f"Content-Type: {msg.content_type}\r\n"
    head += f"Content-Length: {len(msg.body)}\r\n\r\n"
    try:
        return head.encode("latin-1") + msg.body
    except UnicodeEncodeError as exc:
        raise InvariantViolation(f"header contains non latin-1 text: {exc}") from exc


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

    Framing rule: skip CR and LF where a message would start (RFC 3261
    section 7.5), read headers up to the blank line, then exactly
    Content-Length body bytes (0 if the header is absent), the header
    section read by ``parse_message``'s own pass and handed on with its
    message.  A Content-Length that is not digits, or a second one, leaves
    where the message ends unknown, and a stream cannot find its next
    message after that (RFC 3261 section 18.3), so it cannot be framed:
    ``fault`` then says why, and the framer frames nothing more.

    The blank-line search resumes where the previous read's stopped, and
    each header section is read once, however the stream is cut, so framing
    work is linear in the bytes received.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._scan = 0  # the blank-line search resumes here
        self._head: HeaderSection | None = None  # of the message whose body is arriving
        self.fault: str | None = None  # why the stream cannot be framed, once it cannot

    def feed(self, data: bytes) -> list[tuple[bytes, HeaderSection]]:
        """Append stream bytes; return each complete raw message now available, with its head.

        When the unframed tail is a header section longer than
        ``MAX_HEADER_BYTES``, declares a body longer than ``MAX_BODY_BYTES``
        or has a Content-Length that cannot be read, the call that reaches
        it sets ``fault`` and returns the messages framed ahead of it.  The
        framer keeps nothing of a message it returned.
        """
        if self.fault is not None:
            return []
        buffer = self._buffer
        buffer += data
        messages: list[tuple[bytes, HeaderSection]] = []
        start = 0
        scan = self._scan
        head = self._head
        while True:
            if head is None:
                while start < len(buffer) and buffer[start] in (13, 10):  # CR, LF
                    start += 1
                split = _header_end(buffer, max(start, scan))
                if split is None:
                    if len(buffer) - start > MAX_HEADER_BYTES:
                        self.fault = "header section exceeds maximum size"
                    # A blank line may begin in the last three bytes searched.
                    scan = max(start, len(buffer) - 3)
                    break
                header_end, body_start = split
                head = _read_head(buffer[start:header_end].decode("latin-1"), body_start - start)
                if head.length_error is not None or (head.declared or 0) > MAX_BODY_BYTES:
                    self.fault = head.length_error or "declared body exceeds maximum size"
                    break
            total = start + head.body_start + (head.declared or 0)
            if len(buffer) < total:
                break
            messages.append((bytes(buffer[start:total]), head))
            start = total
            head = None
        del buffer[:start]
        self._scan = scan - start if scan > start else 0
        self._head = head
        return messages
