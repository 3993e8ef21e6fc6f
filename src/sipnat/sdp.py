"""Session description codec with the single rewrite the relay needs.

Covers bodies with one session-level connection line and one audio/video
media line; the relay swaps the connection address and media port for its
own and keeps every other line untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .net import InvariantViolation, TransportAddress, is_ipv4, parse_digits


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


@dataclass
class MediaDesc:
    """One m= line: media type, transport port, profile, payload formats."""

    media_type: str  # "audio" or "video"
    port: int
    proto: str
    formats: list[int]


@dataclass
class SdpSession:
    """Parsed session description.

    ``attributes`` holds a= values in order; ``extra_lines`` keeps any other
    unrecognized lines verbatim so serialization preserves them.
    """

    version: int
    origin: str
    session_name: str
    connection_ip: str
    timing: str | None
    media: list[MediaDesc]
    attributes: list[str]
    extra_lines: list[str]


def _parse_media_line(value: str) -> MediaDesc:
    parts = value.split()
    if len(parts) < 4:
        raise SdpParseError(f"bad media line: m={value!r}")
    media_type, port_text, proto = parts[0], parts[1], parts[2]
    if media_type not in ("audio", "video"):
        raise SdpParseError(f"unsupported media type: {media_type!r}")
    port = parse_digits(port_text, BadPort, "media port")
    if not 1 <= port <= 65535:
        raise BadPort(f"media port out of range: {port}")
    formats = [parse_digits(fmt, SdpParseError, "payload format") for fmt in parts[3:]]
    return MediaDesc(media_type, port, proto, formats)


def parse_sdp(text: bytes | str) -> SdpSession:
    """Parse a session description; unknown line types are preserved in order."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("latin-1")
    version: int | None = None
    origin: str | None = None
    session_name: str | None = None
    connection_ip: str | None = None
    timing: str | None = None
    media: list[MediaDesc] = []
    attributes: list[str] = []
    extra_lines: list[str] = []

    for line in text.split("\n"):
        line = line.rstrip("\r")
        if line[1:2] != "=":
            if not line.strip():
                continue
            raise SdpParseError(f"not a key=value line: {line!r}")
        key, value = line[0], line[2:].strip()
        if key == "v":
            if version is not None:
                raise SdpParseError("duplicate v= line")
            version = parse_digits(value, SdpParseError, "version")
        elif key == "o":
            if origin is not None:
                raise SdpParseError("duplicate o= line")
            origin = value
        elif key == "s":
            if session_name is not None:
                raise SdpParseError("duplicate s= line")
            session_name = value
        elif key == "c":
            if media:
                raise SdpParseError("media-level c= lines are not supported")
            if connection_ip is not None:
                raise SdpParseError("duplicate c= line")
            parts = value.split()
            if len(parts) != 3 or parts[0] != "IN" or parts[1] != "IP4":
                raise BadAddress(f"bad connection line: c={value!r}")
            if not is_ipv4(parts[2]):
                raise BadAddress(f"bad connection address: {parts[2]!r}")
            connection_ip = parts[2]
        elif key == "t":
            if timing is not None:
                raise SdpParseError("duplicate t= line")
            timing = value
        elif key == "m":
            media.append(_parse_media_line(value))
        elif key == "a":
            attributes.append(value)
        else:
            extra_lines.append(line)

    for line_type, present in (
        ("v", version is not None),
        ("o", origin is not None),
        ("s", session_name is not None),
        ("c", connection_ip is not None),
        ("m", bool(media)),
    ):
        if not present:
            raise MissingLine(line_type)
    # Positional, in field order: about half the cost of keywords.
    return SdpSession(
        version, origin, session_name, connection_ip, timing, media, attributes, extra_lines
    )


def serialize_sdp(session: SdpSession) -> bytes:
    """Emit canonical CRLF line order: v, o, s, c, t, extras, m, a."""
    if not session.media:
        raise InvariantViolation("session has no media description")
    for desc in session.media:
        if not 1 <= desc.port <= 65535:
            raise InvariantViolation(f"media port out of range: {desc.port}")
    if not is_ipv4(session.connection_ip):
        raise InvariantViolation(f"bad connection address: {session.connection_ip!r}")
    lines = [
        f"v={session.version}",
        f"o={session.origin}",
        f"s={session.session_name}",
        f"c=IN IP4 {session.connection_ip}",
    ]
    if session.timing is not None:
        lines.append(f"t={session.timing}")
    lines.extend(session.extra_lines)
    for desc in session.media:
        formats = " ".join(map(str, desc.formats))
        lines.append(f"m={desc.media_type} {desc.port} {desc.proto} {formats}".rstrip())
    lines += [f"a={attr}" for attr in session.attributes]
    return ("\r\n".join(lines) + "\r\n").encode("latin-1")


def rewrite_media(session: SdpSession, relay: TransportAddress) -> SdpSession:
    """Point the session at a relay address.

    Returns a copy whose connection address and media port are the relay's.
    Only single-media sessions are supported.
    """
    if len(session.media) != 1:
        raise MultipleMediaUnsupported(
            f"expected exactly one media description, got {len(session.media)}"
        )
    desc = session.media[0]
    return SdpSession(
        version=session.version,
        origin=session.origin,
        session_name=session.session_name,
        connection_ip=relay.ip,
        timing=session.timing,
        media=[MediaDesc(desc.media_type, relay.port, desc.proto, list(desc.formats))],
        attributes=list(session.attributes),
        extra_lines=list(session.extra_lines),
    )
