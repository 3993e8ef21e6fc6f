"""Network endpoint primitives shared by every layer of the package."""

from __future__ import annotations

import socket
from dataclasses import dataclass


class InvariantViolation(Exception):
    """A value handed to a serializer breaks its own invariants."""


def parse_digits(text: str, error: type[Exception], what: str) -> int:
    """The value of ``text``, a non-empty run of ASCII decimal digits.

    Raises ``error``, the caller's own parse error, for any other text and
    for more significant digits than ``int()`` converts; leading zeros are
    free, as in ``MessageFramer``.
    """
    # str.isdigit() alone accepts Unicode digits that int() rejects.
    if not (text.isascii() and text.isdigit()):
        raise error(f"bad {what}: {text!r}")
    significant = text.lstrip("0") or "0"
    try:
        return int(significant)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise error(f"{what} too long: {len(significant)} digits") from None


def is_ipv4(text: object) -> bool:
    """True for a dotted-quad IPv4 address string.

    Exactly four decimal octets of 0-255 with no leading zeros, signs,
    whitespace or non-ASCII digits, and only a ``str``: the strings
    ``ipaddress.IPv4Address`` accepts, at a fraction of its cost.
    """
    if not isinstance(text, str):
        return False
    try:
        socket.inet_pton(socket.AF_INET, text)
    except (OSError, ValueError):  # ValueError: NUL or an unencodable surrogate
        return False
    return True


@dataclass(frozen=True, order=True)
class TransportAddress:
    """An (IPv4 address, port) endpoint."""

    ip: str
    port: int

    def __post_init__(self) -> None:
        if not is_ipv4(self.ip):
            raise ValueError(f"invalid IPv4 address: {self.ip!r}")
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")

    @classmethod
    def parse(cls, text: str) -> "TransportAddress":
        """Parse ``"ip:port"`` into an address, raising ValueError otherwise."""
        host, sep, port_text = text.partition(":")
        if not sep:
            raise ValueError(f"expected ip:port, got {text!r}")
        return cls(host, parse_digits(port_text, ValueError, "port"))

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"
