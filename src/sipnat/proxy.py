"""Proxy/registrar tying signaling connections and the media relay together.

REGISTER binds the client to the TCP connection it arrived on; the media
controller rewrites the session description of an INVITE and of its answer
to relay ports before forwarding; ACK establishes; BYE tears the relay
session down.  Request failures come back as SIP error responses, never
silence.  Only the call's two connections act on it: a BYE from any other
connection gets 481, and an ACK or response from one is dropped with a
``non_party_message`` event.

A call that one party hangs up once established leaves ``SipProxy.calls``
as soon as the other party's final response to that BYE is relayed.  The
transport reports a dead connection, closed or failing a delivery, through
``connection_closed``, which ends every call the connection is a party of;
a caller ringing a callee on it gets 404.  Only a ringing call ends on the
final response to its INVITE.  Nothing is addressed to a closed
connection: an ACK, response or 404 for one is dropped with a
``peer_gone`` event.  Calls that end any way but an answered BYE stay
``TERMINATED`` for ``INVITE_GUARD`` seconds, so late messages for them are
still relayed, and ``tick`` then drops them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .connection_manager import (
    ConnectionId,
    ConnectionManager,
    MalformedRegister,
    NotRegistered,
    aor_of,
)
from .media_controller import (
    LEG_A,
    LEG_B,
    MediaController,
    MediaSession,
    PoolExhausted,
    RelaySend,
)
from .net import TransportAddress
from .sdp import SdpError
from .sip_message import (
    Method,
    SipMessage,
    SipParseError,
    ViaHeader,
    build_response,
    parse_message,
    serialize_message,
)

Outbound = tuple[ConnectionId, bytes]

INVITE_GUARD = 32.0  # seconds: RFC 3261's Timer B, 64 * T1


class Phase(Enum):
    INVITING = "inviting"
    ESTABLISHED = "established"
    TERMINATED = "terminated"


@dataclass
class CallState:
    call_id: str
    caller_conn: ConnectionId
    callee_conn: ConnectionId
    invited_at: float
    invite: SipMessage  # as forwarded: a 404 for a callee that goes away answers it
    phase: Phase = Phase.INVITING
    media: MediaSession | None = None
    ended_at: float | None = None
    # Sender and CSeq of the final BYE response that retires the call at once.
    retire_on: tuple[ConnectionId, int] | None = None

    def is_party(self, conn: ConnectionId) -> bool:
        return conn == self.caller_conn or conn == self.callee_conn

    def peer_conn(self, conn: ConnectionId) -> ConnectionId:
        """The other party's connection; ``conn`` must be a party's."""
        return self.callee_conn if conn == self.caller_conn else self.caller_conn


@dataclass
class ProxyConfig:
    public_ip: str
    sip_tcp_port: int = 5060
    media_port_range: tuple[int, int] = (40000, 40199)
    media_relay: bool = True  # off: forward bodies untouched (no relay, no rewrite)

    def __post_init__(self) -> None:
        lo, hi = self.media_port_range
        if lo <= self.sip_tcp_port <= hi:
            raise ValueError("media port range must not contain the SIP port")


class SipProxy:
    """Deterministic proxy core; transport adapters feed it bytes and a clock.

    Messages for one call are handled strictly in arrival order; drive the
    proxy from a single event loop.
    """

    def __init__(self, config: ProxyConfig):
        self.config = config
        self.registrar = ConnectionManager()
        self.media = MediaController(config.public_ip, config.media_port_range)
        self.calls: dict[str, CallState] = {}
        self._conn_remote: dict[ConnectionId, TransportAddress] = {}
        self._on_event: Callable[[str, str], None] = lambda event, detail: None

    def set_event_hook(self, hook: Callable[[str, str], None]) -> None:
        """Send proxy events (registrations, errors, releases) to a log."""
        self._on_event = hook

    # -- connection lifecycle ------------------------------------------------

    def connection_opened(self, conn: ConnectionId, remote: TransportAddress) -> None:
        self._conn_remote[conn] = remote

    def connection_closed(self, conn: ConnectionId, now: float) -> list[Outbound]:
        """``conn`` is gone: drop its registrations and end the calls it carried.

        A caller still ringing a callee on ``conn`` gets 404.
        """
        self._conn_remote.pop(conn, None)
        for aor in self.registrar.on_connection_closed(conn):
            self._on_event("registration_dropped", aor)
        outbound = []
        for call in self.calls.values():
            if call.phase is Phase.INVITING and call.callee_conn == conn:
                failure = build_response(call.invite, 404, "Not Found")
                outbound += self._forward(call.caller_conn, failure)
            if call.is_party(conn):
                self._terminate(call, now)
        return outbound

    # The benchmark's tracer wraps this name through the class ``__dict__``;
    # the alias goes when the benchmark stops naming it.
    delivery_failed = connection_closed

    # -- signaling -----------------------------------------------------------

    def handle_message(self, conn: ConnectionId, raw: bytes, now: float) -> list[Outbound]:
        """Process one framed SIP message; returns messages to transmit."""
        try:
            msg = parse_message(raw)
        except SipParseError as exc:
            self._on_event("malformed_message", str(exc))
            return [(conn, serialize_message(_bad_request_for_garbage(str(exc))))]

        if msg.is_request:
            source = self._conn_remote.get(conn)
            if source is not None:
                msg.via.received = source  # msg and its Via were parsed just above: ours to change
            if msg.method is Method.REGISTER:
                return self._on_register(conn, msg, now)
            if msg.method is Method.INVITE:
                return self._on_invite(conn, msg, now)
            if msg.method is Method.ACK:
                return self._on_ack(conn, msg)
            return self._on_bye(conn, msg, now)
        return self._on_response(conn, msg, now)

    def _reply(self, conn: ConnectionId, request: SipMessage, code: int, reason: str) -> list[Outbound]:
        self._on_event("error_response", f"{code} {reason} for {request.call_id}")
        return [(conn, serialize_message(build_response(request, code, reason)))]

    def _on_register(self, conn: ConnectionId, msg: SipMessage, now: float) -> list[Outbound]:
        try:
            registration = self.registrar.register(conn, msg, now)
        except MalformedRegister as exc:
            return self._reply(conn, msg, 400, f"Bad Request ({exc})")
        self._on_event("registered", f"{registration.aor} on connection {conn}")
        ok = build_response(msg, 200, "OK", contact=msg.contact)
        return [(conn, serialize_message(ok))]

    def _on_invite(self, conn: ConnectionId, msg: SipMessage, now: float) -> list[Outbound]:
        call_id = msg.call_id
        if call_id in self.calls and self.calls[call_id].phase is not Phase.TERMINATED:
            return self._reply(conn, msg, 400, "Bad Request (duplicate Call-ID)")
        callee = aor_of(msg.request_uri)
        try:
            callee_conn = self.registrar.route_to(callee)
        except NotRegistered:
            return self._reply(conn, msg, 404, "Not Found")

        session: MediaSession | None = None
        if self.config.media_relay:
            try:
                session = self.media.allocate_session(call_id)
                # msg was parsed in handle_message: ours to change
                msg.body = self.media.relay_description(session, LEG_B, msg.body)
            except PoolExhausted:
                return self._reply(conn, msg, 503, "Service Unavailable (media ports exhausted)")
            except SdpError as exc:
                self.media.release_session(call_id)
                return self._reply(conn, msg, 400, f"Bad Request ({exc})")

        self.calls[call_id] = CallState(
            call_id=call_id,
            caller_conn=conn,
            callee_conn=callee_conn,
            invited_at=now,
            invite=msg,
            media=session,
        )
        self._on_event("invite_forwarded", f"{aor_of(msg.from_)} -> {callee} ({call_id})")
        return [(callee_conn, serialize_message(msg))]

    def _on_ack(self, conn: ConnectionId, msg: SipMessage) -> list[Outbound]:
        call = self.calls.get(msg.call_id)
        if call is None:
            self._on_event("stray_ack", msg.call_id)
            return []
        if not call.is_party(conn):
            self._on_event("non_party_message", f"ACK from connection {conn} for {msg.call_id}")
            return []
        if call.phase is Phase.INVITING:
            call.phase = Phase.ESTABLISHED
            self._on_event("call_established", msg.call_id)
        return self._forward(call.peer_conn(conn), msg)

    def _on_bye(self, conn: ConnectionId, msg: SipMessage, now: float) -> list[Outbound]:
        call = self.calls.get(msg.call_id)
        # A peer whose connection closed cannot answer, and its call ended as it closed.
        if call is None or not call.is_party(conn) or call.peer_conn(conn) not in self._conn_remote:
            return self._reply(conn, msg, 481, "Call/Transaction Does Not Exist")
        if call.phase is Phase.ESTABLISHED:
            call.retire_on = (call.peer_conn(conn), msg.cseq_num)
        else:
            call.retire_on = None  # hung up while inviting, or BYEs crossed
        self._terminate(call, now)
        return [(call.peer_conn(conn), serialize_message(msg))]

    def _on_response(self, conn: ConnectionId, msg: SipMessage, now: float) -> list[Outbound]:
        call = self.calls.get(msg.call_id)
        if call is None:
            self._on_event("stray_response", f"{msg.status_code} for {msg.call_id}")
            return []
        if not call.is_party(conn):
            self._on_event(
                "non_party_message", f"{msg.status_code} from connection {conn} for {msg.call_id}"
            )
            return []
        dest = call.peer_conn(conn)
        if msg.cseq_method is Method.INVITE:
            if msg.status_code == 200:
                # An ended call's ports may be another call's by now: relay its answer untouched.
                if call.media is not None and call.phase is not Phase.TERMINATED:
                    try:
                        msg.body = self.media.relay_description(call.media, LEG_A, msg.body)
                    except SdpError as exc:
                        outbound = []
                        if call.phase is Phase.INVITING:  # else the caller has its 200 already
                            self._terminate(call, now)
                            failure = build_response(msg, 500, "Server Internal Error")
                            outbound = [(dest, serialize_message(failure))]
                        self._on_event("bad_answer", f"{msg.call_id}: {exc}")
                        return outbound
                outbound = self._forward(dest, msg)
                if outbound:
                    self._on_event("answer_forwarded", msg.call_id)
                return outbound
            if msg.status_code >= 300 and call.phase is Phase.INVITING:
                self._terminate(call, now)
        elif msg.cseq_method is Method.BYE and msg.status_code >= 200:
            if call.retire_on == (conn, msg.cseq_num):
                del self.calls[msg.call_id]
        return self._forward(dest, msg)

    def _forward(self, dest: ConnectionId, msg: SipMessage) -> list[Outbound]:
        """``msg`` for ``dest``, or nothing and a ``peer_gone`` event once ``dest`` has closed."""
        if dest not in self._conn_remote:
            self._on_event("peer_gone", f"{msg.status_code or msg.method.value} for {msg.call_id}")
            return []
        return [(dest, serialize_message(msg))]

    # -- media ---------------------------------------------------------------

    def handle_media(
        self, relay_port: int, src: tuple[str, int], datagram: bytes
    ) -> list[RelaySend]:
        """Relay one UDP datagram from ``src`` (ip, port); returns the datagrams to emit."""
        decision = self.media.on_media_packet(relay_port, src, datagram)
        if decision.action == "drop":
            self._on_event("media_dropped", f"port {relay_port}: {decision.reason}")
        return decision.sends

    # -- time ----------------------------------------------------------------

    def tick(self, now: float) -> None:
        """Expire registrations, time out unanswered calls and forget ended ones.

        Each expiry and timeout goes to the event hook, after the releases
        it caused.
        """
        expired = self.registrar.expire(now)
        timed_out = []
        for call in list(self.calls.values()):
            if call.phase is Phase.TERMINATED:
                if now - call.ended_at >= INVITE_GUARD:
                    del self.calls[call.call_id]
            elif call.phase is Phase.INVITING and now - call.invited_at >= INVITE_GUARD:
                self._terminate(call, now)
                timed_out.append(call.call_id)
        for aor in expired:
            self._on_event("registration_expired", aor)
        for call_id in timed_out:
            self._on_event("invite_timeout", call_id)

    def _terminate(self, call: CallState, now: float) -> None:
        if call.phase is Phase.TERMINATED:
            return
        call.phase = Phase.TERMINATED
        call.ended_at = now
        if call.media is not None:
            freed = self.media.release_session(call.call_id)
            self._on_event("media_released", f"{call.call_id}: {freed} ports freed")


def _bad_request_for_garbage(detail: str) -> SipMessage:
    """400 with placeholder headers, for input too broken to echo."""
    return SipMessage(
        via=ViaHeader(transport="TCP", sent_by="0.0.0.0"),
        from_="<sip:unknown@invalid>",
        to_="<sip:unknown@invalid>",
        call_id="malformed@proxy",
        cseq_num=0,
        cseq_method=Method.REGISTER,
        status_code=400,
        reason=f"Bad Request ({detail[:80]})",
    )
