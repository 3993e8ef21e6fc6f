"""Minimal RTP fixed-header codec (version 2, network byte order).

The relay never parses RTP: it forwards datagrams as opaque bytes.  Only
the simulated clients use this codec, to build the packets they send and to
read the ones they receive.  Padding, CSRC lists and header extensions are
skipped on parse but never generated.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

RTP_VERSION = 2
HEADER_LEN = 12
_HEADER = struct.Struct("!BBHII")  # V/P/X/CC, M/PT, sequence, timestamp, SSRC
_EXTENSION_WORDS = struct.Struct("!H")


class RtpError(Exception):
    pass


class RtpParseError(RtpError):
    pass


class TooShort(RtpParseError):
    pass


class BadVersion(RtpParseError):
    pass


class FieldOutOfRange(RtpError):
    pass


class RtpPacket(NamedTuple):
    payload_type: int
    sequence: int
    timestamp: int
    ssrc: int
    payload: bytes = b""
    version: int = RTP_VERSION


def parse_rtp(raw: bytes) -> RtpPacket:
    """Decode the fixed header; remainder (minus padding/extension) is payload."""
    size = len(raw)
    if size < HEADER_LEN:
        raise TooShort(f"datagram of {size} bytes, need at least {HEADER_LEN}")
    b0, b1, sequence, timestamp, ssrc = _HEADER.unpack_from(raw)
    version = b0 >> 6
    if version != RTP_VERSION:
        raise BadVersion(f"version {version}, expected {RTP_VERSION}")
    offset = HEADER_LEN + 4 * (b0 & 0x0F)  # CSRC list
    if size < offset:
        raise TooShort("datagram shorter than its CSRC list")
    if b0 & 0x10:  # header extension
        if size < offset + 4:
            raise TooShort("datagram shorter than its extension header")
        (ext_words,) = _EXTENSION_WORDS.unpack_from(raw, offset + 2)
        offset += 4 + 4 * ext_words
        if size < offset:
            raise TooShort("datagram shorter than its header extension")
    end = size
    if b0 & 0x20:  # padding
        pad = raw[-1]
        if pad == 0 or pad > end - offset:
            raise TooShort(f"invalid padding count {pad}")
        end -= pad
    return RtpPacket(b1 & 0x7F, sequence, timestamp, ssrc, raw[offset:end])


def build_rtp(
    payload_type: int,
    sequence: int,
    timestamp: int,
    ssrc: int,
    payload: bytes = b"",
) -> bytes:
    """Encode a packet with no padding, extension or CSRC entries."""
    if not 0 <= payload_type <= 127:
        raise FieldOutOfRange(f"payload type out of range: {payload_type}")
    if not 0 <= sequence <= 0xFFFF:
        raise FieldOutOfRange(f"sequence out of range: {sequence}")
    if not 0 <= timestamp <= 0xFFFFFFFF:
        raise FieldOutOfRange(f"timestamp out of range: {timestamp}")
    if not 0 <= ssrc <= 0xFFFFFFFF:
        raise FieldOutOfRange(f"ssrc out of range: {ssrc}")
    return _HEADER.pack(RTP_VERSION << 6, payload_type, sequence, timestamp, ssrc) + payload
