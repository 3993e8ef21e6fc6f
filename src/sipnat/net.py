"""Network endpoint primitives shared by every layer of the package.

An endpoint is an ``(ip, port)`` tuple, as sockets report and take it;
``TransportAddress`` is that tuple checked and named, and equals the plain pair.
"""

from __future__ import annotations

import socket
from typing import NamedTuple


class InvariantViolation(Exception):
    """A value handed to a serializer breaks its own invariants."""


def parse_digits(text: str, error: type[Exception], what: str) -> int:
    """The value of ``text``, a non-empty run of ASCII decimal digits.

    Raises ``error``, the caller's own parse error, for any other text and
    for more significant digits than ``int()`` converts; leading zeros are
    free.  The package reads every digit field through this one function.
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


class TransportAddress(NamedTuple("TransportAddress", [("ip", str), ("port", int)])):
    """An (IPv4 address, port) endpoint: a tuple checked as it is built."""

    __slots__ = ()

    def __new__(cls, ip: str, port: int) -> "TransportAddress":
        self = tuple.__new__(cls, (ip, port))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable) -> "TransportAddress":  # _replace builds through it
        return cls(*iterable)

    # The benchmark's tracer counts constructions by wrapping this name in the
    # class ``__dict__``; ``__new__`` looks it up at each call, so none escape.
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
