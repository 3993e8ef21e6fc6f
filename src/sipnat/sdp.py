"""Session descriptions as written, with the one rewrite the relay needs.

A description is kept as its lines, split at LF with a CRLF line keeping
its CR, so ``serialize_sdp(parse_sdp(body)) == body``.  The relay owns two
values in it: the address of every ``c=`` line, at session level and at
media level (RFC 8866 §5.7), and the port of the one ``m=`` line.
``rewrite_media`` replaces those two values and nothing else; every other
byte, line order and line ending included, passes as written.
"""

from __future__ import annotations

from dataclasses import dataclass

from .net import TransportAddress, is_ipv4, parse_digits


class SdpError(Exception):
    """Base class for session description failures."""


class SdpParseError(SdpError):
    pass


class MissingLine(SdpParseError):
    def __init__(self, line_type: str):
        super().__init__(f"missing mandatory {line_type}= line")
        self.line_type = line_type


class BadPort(SdpParseError):
    pass


class BadAddress(SdpParseError):
    pass


class MultipleMediaUnsupported(SdpError):
    pass


@dataclass(slots=True)
class SdpSession:
    """A description's lines as written, the indexes of its ``c=`` and ``m=``
    lines, and the two values the relay reads: ``connection_ip``, the address
    that applies to the first media (its own ``c=`` over the session's), and
    ``media_port``, the first ``m=`` line's port."""

    lines: list[str]
    connection_lines: list[int]
    media_lines: list[int]
    connection_ip: str
    media_port: int


def _media_port(value: str) -> int:
    parts = value.split()
    if len(parts) < 4:
        raise SdpParseError(f"bad media line: m={value!r}")
    if parts[0] not in ("audio", "video"):
        raise SdpParseError(f"unsupported media type: {parts[0]!r}")
    port = parse_digits(parts[1], BadPort, "media port")
    if not 1 <= port <= 65535:
        raise BadPort(f"media port out of range: {port}")
    for fmt in parts[3:]:
        parse_digits(fmt, SdpParseError, "payload format")
    return port


def parse_sdp(text: bytes | str) -> SdpSession:
    """Check a session description and note where its c= and m= lines are."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("latin-1")
    lines = text.split("\n")
    seen: set[str] = set()
    connection_ip: str | None = None
    media_port: int | None = None
    connection_lines: list[int] = []
    media_lines: list[int] = []
    connection_level = -1  # media sections before the last c= line

    for index, line in enumerate(lines):
        line = line.rstrip("\r")
        if line[1:2] != "=":
            if not line.strip():
                continue
            raise SdpParseError(f"not a key=value line: {line!r}")
        key, value = line[0], line[2:].strip()
        if key in "vost":
            if key in seen:
                raise SdpParseError(f"duplicate {key}= line")
            seen.add(key)
            if key == "v":
                parse_digits(value, SdpParseError, "version")
        elif key == "c":
            if connection_level == len(media_lines):
                raise SdpParseError("duplicate c= line")
            connection_level = len(media_lines)
            parts = value.split()
            if len(parts) != 3 or parts[0] != "IN" or parts[1] != "IP4":
                raise BadAddress(f"bad connection line: c={value!r}")
            if not is_ipv4(parts[2]):
                raise BadAddress(f"bad connection address: {parts[2]!r}")
            if len(media_lines) <= 1:
                connection_ip = parts[2]
            connection_lines.append(index)
        elif key == "m":
            port = _media_port(value)
            if not media_lines:
                media_port = port
            media_lines.append(index)

    for line_type in "vos":
        if line_type not in seen:
            raise MissingLine(line_type)
    if connection_ip is None:
        raise MissingLine("c")
    if media_port is None:
        raise MissingLine("m")
    return SdpSession(lines, connection_lines, media_lines, connection_ip, media_port)


def serialize_sdp(session: SdpSession) -> bytes:
    """The description's lines, joined as they were split."""
    return "\n".join(session.lines).encode("latin-1")


def rewrite_media(session: SdpSession, relay: TransportAddress) -> SdpSession:
    """A copy of ``session`` whose every c= address and whose m= port are the
    relay's.  Only single-media sessions are supported."""
    if len(session.media_lines) != 1:
        raise MultipleMediaUnsupported(
            f"expected exactly one media description, got {len(session.media_lines)}"
        )
    lines = list(session.lines)
    for index in session.connection_lines:
        line = lines[index]
        end = len(line.rstrip())  # the address is the line's last field
        lines[index] = line[: end - len(line.split()[-1])] + relay.ip + line[end:]
    index = session.media_lines[0]
    line = lines[index]
    media_type, port = line[2:].split()[:2]
    start = line.index(port, line.index(media_type) + len(media_type))
    lines[index] = line[:start] + str(relay.port) + line[start + len(port) :]
    return SdpSession(lines, session.connection_lines, session.media_lines, relay.ip, relay.port)
