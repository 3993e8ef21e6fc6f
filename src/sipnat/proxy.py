"""Proxy/registrar tying signaling connections and the media relay together.

REGISTER binds the client to the TCP connection it arrived on; the media
controller rewrites the session description of an INVITE and of its answer
to relay ports before forwarding; BYE tears the relay session down.  Each
request's Via is stamped with the address its connection comes from: any
``received`` or ``rport`` parameter goes, and ``received=<ip>;rport=<port>``
follows the rest (RFC 3261 §18.2.1, RFC 3581 §4).  Each leg of a call's
relay latches only from its party's signalling IP.
Request failures come back as SIP error responses, never silence.  Only
the call's two connections act on it, and only its callee answers the
INVITE: a BYE from any other connection gets 481, any other ACK or
response is dropped with a ``non_party_message`` event.

``CallState.phase`` is the one record of how far a call has got, and
``CallState.deadline`` its one timer, which ``tick`` checks.  INVITING: the
INVITE sets the deadline ``INVITE_GUARD`` seconds ahead and each 101-199
``TIMER_C`` ahead, a response of 300 or more ends the call, and an ACK is
dropped (RFC 3261 §17.1.1.3).  ``_fail`` ends the call and answers the
INVITE as forwarded, so with no callee To tag: 404 if the callee's
connection closes, 500 if the answer's description does not parse, 408 at
the deadline.  Relaying the callee's 200 makes the call ESTABLISHED, and an
ESTABLISHED call drops any response to its INVITE but a 200 (RFC 3261 §16.7
step 5).  The first ACK clears the deadline; a call that no ACK follows
ends at it, silently.

A call that one party hangs up once established leaves ``SipProxy.calls``
as soon as the other party's final response to that BYE is relayed.  The
transport reports a dead connection, closed or failing a delivery, through
``connection_closed``, which ends every call the connection is a party of.
Every message leaves through ``_forward``, so nothing is addressed to a
closed connection: an ACK, response or 404 for one is dropped with a
``peer_gone`` event.  Calls that end any way but an answered BYE stay
``TERMINATED`` for ``INVITE_GUARD`` seconds, their deadline, so late
messages for them are still relayed, and ``tick`` then drops them.
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
from .media_controller import MediaController, MediaSession, PoolExhausted, RelaySend
from .net import TransportAddress, is_ipv4
from .sdp import SdpError
from .sip_message import (
    HeaderSection,
    Method,
    SipMessage,
    SipParseError,
    ViaHeader,
    build_response,
    parse_message,
    serialize_message,
    uri_of,
)

Outbound = tuple[ConnectionId, bytes]

INVITE_GUARD = 32.0  # seconds: RFC 3261's Timer B, 64 * T1
# Seconds a ringing call waits for its answer after each provisional
# response: RFC 3261 §16.6 step 11 asks for more than 3 minutes, and the
# least whole second over that holds a ringing callee's relay ports least.
TIMER_C = 181.0


class Phase(Enum):
    INVITING = "inviting"
    ESTABLISHED = "established"
    TERMINATED = "terminated"


@dataclass(slots=True)
class CallState:
    call_id: str
    caller_conn: ConnectionId
    callee_conn: ConnectionId
    invite: SipMessage | None  # as forwarded, for the proxy's own final response; INVITING only
    # INVITING: fails at it; ESTABLISHED: ends at it, until the first ACK sets
    # it None; TERMINATED: forgotten at it.
    deadline: float | None
    phase: Phase = Phase.INVITING
    media: MediaSession | None = None
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
        if not is_ipv4(self.public_ip):  # relay addresses in every rewritten description
            raise ValueError(f"invalid IPv4 address: {self.public_ip!r}")
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

        A caller whose INVITE to a callee on ``conn`` no 200 answered gets 404.
        """
        self._conn_remote.pop(conn, None)
        for aor in self.registrar.on_connection_closed(conn):
            self._on_event("registration_dropped", aor)
        outbound = []
        for call in self.calls.values():
            if call.phase is Phase.INVITING and call.callee_conn == conn:
                outbound += self._fail(call, 404, "Not Found", now)
            elif call.is_party(conn):
                self._terminate(call, now)
        return outbound

    # The benchmark's tracer wraps this name through the class ``__dict__``;
    # the alias goes when the benchmark stops naming it.
    delivery_failed = connection_closed

    # -- signaling -----------------------------------------------------------

    def handle_message(
        self, conn: ConnectionId, raw: bytes, now: float, head: HeaderSection | None = None
    ) -> list[Outbound]:
        """Process one framed SIP message; returns messages to transmit."""
        try:
            msg = parse_message(raw, head)
        except SipParseError as exc:
            self._on_event("malformed_message", str(exc))
            if raw.partition(b"\n")[0].strip().startswith(b"SIP/2.0"):
                return []  # a response: RFC 3261 answers only requests (§8.2.6, §16.7)
            return self._forward(conn, _bad_request_for_garbage(str(exc)))

        if msg.is_request:
            source = self._conn_remote.get(conn)
            if source is not None:  # msg and its Via were parsed just above: ours to change
                msg.via.params = (
                    *[p for p in msg.via.params if p[0].lower() not in ("received", "rport")],
                    ("received", source.ip), ("rport", str(source.port)),
                )
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
        return self._forward(conn, build_response(request, code, reason))

    def _on_register(self, conn: ConnectionId, msg: SipMessage, now: float) -> list[Outbound]:
        try:
            registration = self.registrar.register(conn, msg, now)
        except MalformedRegister as exc:
            return self._reply(conn, msg, 400, f"Bad Request ({exc})")
        self._on_event("registered", f"{registration.aor} on connection {conn}")
        return self._forward(conn, build_response(msg, 200, "OK", contact=f"<{uri_of(msg.contact)}>"))

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
                session = self.media.allocate_session(
                    call_id, self._conn_remote[conn].ip, self._conn_remote[callee_conn].ip
                )
                # msg was parsed in handle_message: ours to change
                msg.body = self.media.relay_description(session.b, msg.body)
            except PoolExhausted:
                return self._reply(conn, msg, 503, "Service Unavailable (media ports exhausted)")
            except SdpError as exc:
                self.media.release_session(call_id)
                return self._reply(conn, msg, 400, f"Bad Request ({exc})")

        self.calls[call_id] = CallState(
            call_id=call_id,
            caller_conn=conn,
            callee_conn=callee_conn,
            invite=msg,
            deadline=now + INVITE_GUARD,
            media=session,
        )
        self._on_event("invite_forwarded", f"{aor_of(msg.from_)} -> {callee} ({call_id})")
        return self._forward(callee_conn, msg)

    def _on_ack(self, conn: ConnectionId, msg: SipMessage) -> list[Outbound]:
        call = self.calls.get(msg.call_id)
        if call is not None and not call.is_party(conn):
            self._on_event("non_party_message", f"ACK from connection {conn} for {msg.call_id}")
            return []
        if call is None or call.phase is Phase.INVITING:  # no final response to acknowledge
            self._on_event("stray_ack", msg.call_id)
            return []
        if call.phase is Phase.ESTABLISHED and call.deadline is not None:
            call.deadline = None
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
        return self._forward(call.peer_conn(conn), msg)

    def _on_response(self, conn: ConnectionId, msg: SipMessage, now: float) -> list[Outbound]:
        call = self.calls.get(msg.call_id)
        if call is None:
            self._on_event("stray_response", f"{msg.status_code} for {msg.call_id}")
            return []
        answers_invite = msg.cseq_method is Method.INVITE
        if not call.is_party(conn) or (answers_invite and conn != call.callee_conn):
            self._on_event(
                "non_party_message", f"{msg.status_code} from connection {conn} for {msg.call_id}"
            )
            return []
        dest = call.peer_conn(conn)
        if answers_invite:
            if msg.status_code == 200:
                # An ended call's ports may be another call's by now: relay its answer untouched.
                if call.media is not None and call.phase is not Phase.TERMINATED:
                    try:
                        msg.body = self.media.relay_description(call.media.a, msg.body)
                    except SdpError as exc:
                        outbound = []
                        if call.phase is Phase.INVITING:  # else the caller has its 200 already
                            outbound = self._fail(call, 500, "Server Internal Error", now)
                        self._on_event("bad_answer", f"{msg.call_id}: {exc}")
                        return outbound
                outbound = self._forward(dest, msg)
                if outbound:
                    if call.phase is Phase.INVITING:
                        call.phase = Phase.ESTABLISHED
                        call.invite = None
                    self._on_event("answer_forwarded", msg.call_id)
                return outbound
            if call.phase is Phase.ESTABLISHED:  # only a 2xx follows a 2xx (RFC 3261 §16.7 step 5)
                self._on_event("stray_response", f"{msg.status_code} for {msg.call_id}")
                return []
            if call.phase is Phase.INVITING:
                if msg.status_code >= 300:
                    self._terminate(call, now)
                elif 100 < msg.status_code < 200:  # RFC 3261 §16.7 step 2: reset Timer C
                    call.deadline = now + TIMER_C
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

    def tick(self, now: float) -> list[Outbound]:
        """Expire registrations and act on every call whose deadline is due:
        an unanswered one fails with 408, an unacknowledged one ends, an
        ended one is forgotten.

        Each expiry and timeout goes to the event hook, after the releases
        it caused.
        """
        expired = self.registrar.expire(now)
        outbound = []
        timed_out = []
        for call in list(self.calls.values()):
            if call.deadline is None or now < call.deadline:
                continue
            if call.phase is Phase.TERMINATED:
                del self.calls[call.call_id]
            else:
                outbound += self._fail(call, 408, "Request Timeout", now)
                timed_out.append(call.call_id)
        for aor in expired:
            self._on_event("registration_expired", aor)
        for call_id in timed_out:
            self._on_event("invite_timeout", call_id)
        return outbound

    def _fail(self, call: CallState, code: int, reason: str, now: float) -> list[Outbound]:
        """End a call no ACK has completed, answering its INVITE with the proxy's
        own final response while it is INVITING: after a relayed 200 the caller
        gets nothing (RFC 3261 §16.7 step 5)."""
        outbound = []
        if call.phase is Phase.INVITING:
            outbound = self._forward(call.caller_conn, build_response(call.invite, code, reason))
        self._terminate(call, now)
        return outbound

    def _terminate(self, call: CallState, now: float) -> None:
        if call.phase is Phase.TERMINATED:
            return
        call.phase = Phase.TERMINATED
        call.invite = None
        call.deadline = now + INVITE_GUARD
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
