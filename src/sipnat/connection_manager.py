"""Registrar table binding each address-of-record to its signaling connection.

Clients register over persistent TCP; every later message for an
address-of-record is routed back over the exact connection its most recent
REGISTER arrived on, so no response routing ever depends on (possibly
private, possibly expired) UDP addresses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sip_message import Method, SipMessage, uri_of

ConnectionId = int

REGISTRATION_TTL = 3600.0  # seconds a REGISTER binds its address-of-record


class RegistrarError(Exception):
    pass


class MalformedRegister(RegistrarError):
    pass


class NotRegistered(RegistrarError):
    pass


@dataclass
class Registration:
    aor: str
    connection: ConnectionId
    expires_at: float


def aor_of(name_addr: str) -> str:
    """Canonical address-of-record from a name-addr or bare URI.

    Keeps scheme and user as written, lowercases the host, drops the port,
    display name and any parameters.
    """
    value = uri_of(name_addr).split(";")[0].strip()
    scheme, sep, rest = value.partition(":")
    if not sep:
        scheme, rest = "sip", value
    user, at, host = rest.rpartition("@")
    host = host.split(":")[0].lower()
    return f"{scheme.lower()}:{user}@{host}" if at else f"{scheme.lower()}:{host}"


class ConnectionManager:
    """Registration table keyed by address-of-record; latest REGISTER wins.

    Operations must be invoked from a single logical event loop (or
    externally serialized): each call reads and writes the table atomically
    with respect to the others.
    """

    def __init__(self) -> None:
        self._registrations: dict[str, Registration] = {}

    def register(self, conn: ConnectionId, msg: SipMessage, now: float) -> Registration:
        """Create or replace the registration for the message's To URI."""
        if msg.method is not Method.REGISTER:
            raise MalformedRegister(f"expected REGISTER, got {msg.method}")
        if not msg.contact:
            raise MalformedRegister("REGISTER without Contact header")
        aor = aor_of(msg.to_)
        registration = Registration(
            aor=aor,
            connection=conn,
            expires_at=now + REGISTRATION_TTL,
        )
        self._registrations[aor] = registration
        return registration

    def route_to(self, aor: str) -> ConnectionId:
        """Connection to serialize messages for this address-of-record onto."""
        registration = self._registrations.get(aor)
        if registration is None:
            raise NotRegistered(aor)
        return registration.connection

    def on_connection_closed(self, conn: ConnectionId) -> list[str]:
        """Invalidate every registration bound to a closed connection."""
        removed = [
            aor for aor, reg in self._registrations.items() if reg.connection == conn
        ]
        for aor in removed:
            del self._registrations[aor]
        return removed

    def expire(self, now: float) -> list[str]:
        """Drop registrations past their expiry; return their AORs."""
        removed = [
            aor for aor, reg in self._registrations.items() if now >= reg.expires_at
        ]
        for aor in removed:
            del self._registrations[aor]
        return removed

    def live_aors(self) -> list[str]:
        return list(self._registrations)
