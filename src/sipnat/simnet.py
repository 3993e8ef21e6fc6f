"""Single-threaded deterministic network: virtual clock, NATs, proxy, clients.

Everything runs off one event queue (ties broken by insertion order), and
every event enters it through ``SimNetwork.schedule_at``.  One loop,
``SimNetwork.run``, runs the queue and, at each whole virtual second, the
proxy's timers and every NAT's expiry, as ``ProxyService`` ticks once a
second whatever the traffic; a script's steps act between its calls, so the
queue holds only messages and datagrams in flight however long the step.
Each ``SimClient`` sits behind its own NAT, with its own signaling path to
the proxy under the connection id ``add_client`` gave it.  That path runs
through ``ProxyProtocol``, the layer the socket service runs on, so the
simulator's signaling is framed, queued and kept behind the one exception
boundary as the service's is: a client's message goes in as its serialized
bytes, what the proxy queues for a client comes out as one delivery, which
the client frames into messages as the proxy frames its input, a delivery
the NAT blocks closes the connection, and the clock ticks the layer.  TCP
signaling is an ordered reliable stream whose NAT binding lasts while the
connection does; UDP signaling (one whole message per datagram) and all
media are per-datagram, so every hop consults the NAT filter and can be
silently dropped.  No real time or real sockets are involved.

The per-packet path builds no address.  An address is an ``(ip, port)``
tuple, which a ``TransportAddress`` is too: the NAT's mapped source goes to
the relay as it is, and a relayed datagram goes on from ``(proxy IP, relay
port)`` to the latched address the relay hands back.  A datagram for a
NAT's public IP goes to the client behind it, whose NAT passes it to its
RTP or RTCP handler by internal address.  Log entries keep the raw clock;
``harness.Report`` rounds it only when its events are read.  A client logs
its signaling and any media it cannot send, but no media packet it sends or
receives: each packet only adds to the ``DirectionStats`` of its direction,
as it moves, so a talk's memory does not grow with its length.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from math import inf
from typing import Callable

from .media_controller import RelaySend
from .nat import TCP, UDP, NatBox
from .net import TransportAddress
from .protocol import ProxyProtocol
from .proxy import SipProxy
from .rtp import RtpParseError, build_rtp, parse_rtp
from .sdp import MediaDesc, SdpSession, parse_sdp, serialize_sdp
from .sip_message import (
    MessageFramer,
    Method,
    SipMessage,
    SipParseError,
    ViaHeader,
    build_response,
    parse_message,
    serialize_message,
    uri_of,
)

LATENCY = 0.001  # one-way hop delay, virtual seconds
SIP_PORT = 5060  # every client's private signaling port


@dataclass(slots=True)
class LogEntry:
    time: float  # the virtual clock, unrounded; reports round it
    actor: str
    event: str
    detail: str


def _ignore_event(event: str, detail: str) -> None:
    pass


def describe(msg: SipMessage) -> str:
    if msg.is_request:
        return f"{msg.method.value} {msg.request_uri} ({msg.call_id})"
    return f"{msg.status_code} {msg.reason} ({msg.call_id})"


class SimNetwork:
    """Event queue plus the public-internet routing fabric, which knows each
    client by its signaling connection id and by its NAT's public IP."""

    def __init__(self, proxy: SipProxy, sip_transport: str = TCP):
        self.proxy = proxy
        self.protocol = ProxyProtocol(proxy)
        self.proxy_ip = proxy.config.public_ip
        self.sip_addr = TransportAddress(self.proxy_ip, proxy.config.sip_tcp_port)
        self.sip_transport = sip_transport
        self.now = 0.0
        self.events: list[LogEntry] = []
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = count()
        self._sweep_at = 1.0  # the next whole second at which the clock sweeps
        self._clients: dict[int, SimClient] = {}  # by signaling connection id
        self._behind: dict[str, SimClient] = {}  # by its NAT's public IP
        proxy.set_event_hook(lambda event, detail: self.log("proxy", event, detail))

    # -- clock and queue -------------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, fn)

    def schedule_at(self, when: float, fn: Callable[[], None]) -> None:
        if when < self.now:
            raise ValueError(f"cannot schedule at {when}, before the clock's {self.now}")
        heapq.heappush(self._queue, (when, next(self._seq), fn))

    def run(self, until: float = inf) -> None:
        """Run every event due strictly before ``until``, then set the clock to it.

        At each whole virtual second the clock reaches, it sweeps before any
        event due then: the proxy's timers run, what they queue is sent, and
        every NAT expires its idle bindings.  An event or a sweep due at
        ``until`` itself runs after whatever the caller does at ``until``, as
        if that had been queued first.  Without ``until`` the queue is
        drained: the clock stays at the last event, and sweeps run only while
        events remain.
        """
        if not until >= self.now:  # a NaN would compare false for ever
            raise ValueError(f"cannot run to {until}, before the clock's {self.now}")
        queue = self._queue
        pop = heapq.heappop
        sweep_at = self._sweep_at
        while True:
            limit = sweep_at if sweep_at < until else until
            while queue and queue[0][0] < limit:
                self.now, _, fn = pop(queue)
                fn()
            if limit == until or not queue and until == inf:
                break
            self.now = sweep_at
            self.protocol.tick(sweep_at)
            self.flush_proxy()
            for client in self._clients.values():
                client.nat.expire(sweep_at)
            sweep_at = self._sweep_at = sweep_at + 1.0
        if until != inf:
            self.now = until

    def log(self, actor: str, event: str, detail: str = "") -> None:
        self.events.append(LogEntry(self.now, actor, event, detail))

    def close(self) -> None:
        """Break the cycles between the network, its clients and the proxy's
        event hook, so that reference counting frees a finished world.  The
        log stays readable; nothing may be sent or run after this."""
        self._clients.clear()
        self._behind.clear()
        self.proxy.set_event_hook(_ignore_event)

    # -- topology ----------------------------------------------------------

    def add_client(self, client: SimClient) -> int:
        """Put a client alone behind its NAT's public IP; number its connection from 1."""
        public_ip = client.nat.config.public_ip
        if public_ip in self._behind:
            raise ValueError(f"NAT {public_ip} already has a client behind it")
        self._behind[public_ip] = client
        conn = len(self._clients) + 1
        self._clients[conn] = client
        return conn

    # -- proxy-side transmission -------------------------------------------

    def flush_proxy(self) -> None:
        """Send each client what the proxy queued for it, as one delivery."""
        protocol = self.protocol
        for conn in protocol.take_ready():
            raw = bytes(protocol.outboxes[conn])
            protocol.sent(conn, len(raw), self.now)
            self._clients[conn].proxy_send(raw)

    # -- datagram routing ----------------------------------------------------

    def send_from_client(
        self, nat: NatBox, src_internal: TransportAddress, dst: TransportAddress, data: bytes
    ) -> None:
        """UDP datagram leaving a private network: translate, then route."""
        external = nat.outbound(src_internal, dst, self.now, transport=UDP)
        self.schedule(LATENCY, lambda: self._route_public(external, dst, data))

    def _route_public(self, src: tuple[str, int], dst: TransportAddress, data: bytes) -> None:
        if dst.ip == self.proxy_ip:
            for send in self.protocol.datagram(dst.port, src, data):
                self._send_from_proxy(send)
            return
        client = self._behind.get(dst.ip)
        if client is None:
            self.log("net", "unroutable", "%s:%s -> %s:%s" % (*src, *dst))
            return
        internal = client.nat.inbound(src, dst, self.now, transport=UDP)
        if internal is None:
            self.log(client.nat_label, "media_blocked", "%s:%s -> %s:%s" % (*src, *dst))
        elif internal == client.rtp_addr:
            client._on_rtp_datagram(src, data)
        elif internal == client.rtcp_addr:
            client._on_rtcp_datagram(src, data)
        else:
            self.log(client.nat_label, "no_socket", str(internal))

    def _send_from_proxy(self, send: RelaySend) -> None:
        src = (self.proxy_ip, send.from_port)
        self.schedule(LATENCY, lambda: self._route_public(src, send.to, send.payload))


@dataclass(slots=True)
class DirectionStats:
    """One direction's media counts: its sender adds to ``sent``, its
    receiver to ``delivered`` and ``payload_mismatches``."""

    sent: int = 0
    delivered: int = 0
    payload_mismatches: int = 0  # delivered, but not what the sender built


def voice_payload(user: bytes, seq: int) -> bytes:
    """The RTP payload the client named ``user`` sends with sequence number ``seq``."""
    return b"%b-voice-%04d" % (user, seq)


class SimClient:
    """Scripted user agent: registers, answers calls, talks where it is told.

    It is ``client_<label>``, alone behind the NAT ``nat_<label>``.  Its
    signaling path to the proxy is one connection (TCP) or one flow of
    datagrams (UDP) from its private SIP port, whose NAT binding every send
    creates or refreshes; ``external`` is that binding's public address and
    ``announced`` the one the proxy was last told of.  It uses one UDP socket
    for sending and receiving RTP (and one for RTCP), so a relay can learn
    its public address from its first outbound packet.
    """

    def __init__(
        self,
        net: SimNetwork,
        label: str,
        user: str,
        domain: str,
        nat: NatBox,
        private_ip: str,
        rtp_port: int,
    ):
        self.net = net
        self.name = f"client_{label}"
        self.nat_label = f"nat_{label}"
        self.user = user
        self.domain = domain
        self.nat = nat
        self.aor = f"sip:{user}@{domain}"
        self.name_addr = f"{user} <sip:{user}@{domain}>"
        self.sip_addr = TransportAddress(private_ip, SIP_PORT)
        self.rtp_addr = TransportAddress(private_ip, rtp_port)
        self.rtcp_addr = TransportAddress(private_ip, rtp_port + 1)
        self.transport = net.sip_transport  # "tcp" or "udp"
        self.external: TransportAddress | None = None
        self.announced: TransportAddress | None = None  # what the proxy knows
        self.conn_id = net.add_client(self)
        self.ssrc = sum(ord(c) for c in self.name) * 65537 % 0xFFFFFFFF
        # What it hears adds to its sender's counters, once ``hear`` names them.
        self.voice_name = user.encode()  # bytes, which format faster than str
        self.rtp_out = DirectionStats()
        self.rtcp_out = DirectionStats()
        self._rtp_in = DirectionStats()
        self._rtcp_in = DirectionStats()
        self._peer_voice_name = b""

        self.ever_established = False  # sticky: survives hangup
        self.call_id: str | None = None
        self.remote_media: TransportAddress | None = None
        self.remote_name_addr: str | None = None
        self.raw_received: list[bytes] = []  # one per framed message
        self._framer = MessageFramer()
        self.sip_messages = 0  # sent and received, as logged
        self._cseq = 0
        self._call_count = 0

    def hear(self, sender: "SimClient") -> None:
        """Count the media arriving here as ``sender``'s.  Only its counters and
        user name are kept: clients that referenced each other would make a cycle."""
        self._rtp_in = sender.rtp_out
        self._rtcp_in = sender.rtcp_out
        self._peer_voice_name = sender.voice_name

    # -- SIP building -------------------------------------------------------

    def build_sdp(self) -> SdpSession:
        """Offer/answer naming this client's private media address."""
        return SdpSession(
            version=0,
            origin=f"{self.user} 2890844526 2890844527 IN IP4 {self.domain}",
            session_name="Session SDP",
            connection_ip=self.rtp_addr.ip,
            timing="0 0",
            media=[MediaDesc("audio", self.rtp_addr.port, "RTP/AVP", [0])],
            attributes=["rtpmap:0 PCMU/8000"],
            extra_lines=[],
        )

    def _request(
        self,
        method: Method,
        request_uri: str,
        to_: str,
        call_id: str,
        cseq_num: int | None = None,
        branch: str | None = None,
        **fields,
    ) -> None:
        """Send a request from this client, under the next CSeq unless given one."""
        if cseq_num is None:
            self._cseq += 1
            cseq_num = self._cseq
        via = ViaHeader(transport=self.transport.upper(), sent_by=self.sip_addr.ip, branch=branch)
        msg = SipMessage(
            via=via,
            from_=self.name_addr,
            to_=to_,
            call_id=call_id,
            cseq_num=cseq_num,
            cseq_method=method,
            method=method,
            request_uri=request_uri,
            **fields,
        )
        self._send_sip(msg)

    def register(self) -> None:
        self._request(
            Method.REGISTER,
            f"sip:{self.domain}",
            self.name_addr,
            f"reg-{self.user}@{self.domain}",
            contact=f"sip:{self.user}@{self.sip_addr.ip}",
        )

    def invite(self, callee: "SimClient") -> str:
        self._call_count += 1
        call_id = f"call-{self._call_count}-{self.user.lower()}@{self.domain}"
        self.call_id = call_id
        self.remote_name_addr = callee.name_addr
        self._request(
            Method.INVITE,
            callee.aor,
            callee.name_addr,
            call_id,
            branch=f"z9hG4bK{self.user}{self._call_count}",
            contact=f"sip:{self.user}@{self.sip_addr.ip}",
            content_type="application/sdp",
            body=serialize_sdp(self.build_sdp()),
        )
        return call_id

    def hangup(self) -> None:
        if self.call_id is None:
            return
        remote = self.remote_name_addr  # set with call_id, by either side's INVITE
        self._request(Method.BYE, uri_of(remote), remote, self.call_id)

    # -- signaling transport ---------------------------------------------------

    def _send_sip(self, msg: SipMessage) -> None:
        # Sending creates or refreshes the NAT binding in either transport; the
        # proxy hears of the external address when it does not hold it.
        net = self.net
        external = self.nat.outbound(self.sip_addr, net.sip_addr, net.now, transport=self.transport)
        if external != self.announced:
            net.protocol.opened(self.conn_id, external)
            self.announced = external
        if self.external is None:
            net.log(self.name, "connected", f"{self.transport} via {external}")
        self.external = external
        raw = serialize_message(msg)
        self.sip_messages += 1
        net.log(self.name, "sip_sent", describe(msg))
        net.schedule(LATENCY, lambda: self._deliver_to_proxy(raw))

    def _deliver_to_proxy(self, raw: bytes) -> None:
        net = self.net
        if not net.protocol.received(self.conn_id, raw, net.now):
            self.announced = None  # the proxy closed the connection: the next send opens it
        net.flush_proxy()

    def proxy_send(self, raw: bytes) -> None:
        """The proxy sends ``raw`` to this client over its signaling path."""
        self.net.schedule(LATENCY, lambda: self._deliver_to_client(raw))

    def _deliver_to_client(self, raw: bytes) -> None:
        net = self.net
        internal = self.nat.inbound(net.sip_addr, self.external, net.now, transport=self.transport)
        if internal is None:
            net.log(self.nat_label, "sig_blocked", f"to {self.name} at {self.external}")
            self.announced = None  # the proxy closes the connection
            net.protocol.closed(self.conn_id, net.now)
            net.flush_proxy()
            return
        for message, head in self._framer.feed(raw):
            try:
                msg = parse_message(message, head)
            except SipParseError as exc:
                net.log(self.name, "sip_unparseable", str(exc))
                continue
            self.sip_messages += 1
            net.log(self.name, "sip_received", describe(msg))
            self.raw_received.append(message)
            self.on_sip(msg)

    # -- SIP handling --------------------------------------------------------

    def on_sip(self, msg: SipMessage) -> None:
        if msg.is_request:
            self._on_request(msg)
        else:
            self._on_response(msg)

    def _on_request(self, msg: SipMessage) -> None:
        if msg.method is Method.INVITE:
            self.call_id = msg.call_id
            self.remote_name_addr = msg.from_
            self._learn_media(msg.body)
            answer = build_response(
                msg,
                200,
                "OK",
                body=serialize_sdp(self.build_sdp()),
                content_type="application/sdp",
                contact=f"sip:{self.user}@{self.sip_addr.ip}",
            )
            self._send_sip(answer)
        elif msg.method is Method.ACK:
            self.ever_established = True
        elif msg.method is Method.BYE:
            self._send_sip(build_response(msg, 200, "OK"))

    def _on_response(self, msg: SipMessage) -> None:
        if msg.cseq_method is Method.INVITE:
            if msg.status_code == 200:
                self._learn_media(msg.body)
                self.ever_established = True
                self._request(Method.ACK, uri_of(msg.to_), msg.to_, msg.call_id, msg.cseq_num)
            elif msg.status_code >= 300:
                self.call_id = None

    def _learn_media(self, body: bytes) -> None:
        session = parse_sdp(body)
        self.remote_media = TransportAddress(session.connection_ip, session.media[0].port)

    # -- media ----------------------------------------------------------------

    def send_rtp(self, seq: int) -> None:
        if self.remote_media is None:
            self.net.log(self.name, "rtp_skipped", "no media destination")
            return
        data = build_rtp(0, seq, seq * 160, self.ssrc, voice_payload(self.voice_name, seq))
        self.rtp_out.sent += 1
        self.net.send_from_client(self.nat, self.rtp_addr, self.remote_media, data)

    def send_rtcp(self) -> None:
        if self.remote_media is None:
            return
        destination = TransportAddress(self.remote_media.ip, self.remote_media.port + 1)
        data = b"\x81\xc8\x00\x06" + self.ssrc.to_bytes(4, "big") + b"\x00" * 20
        self.rtcp_out.sent += 1
        self.net.send_from_client(self.nat, self.rtcp_addr, destination, data)

    def _on_rtp_datagram(self, src: tuple[str, int], data: bytes) -> None:
        try:
            packet = parse_rtp(data)
        except RtpParseError:
            return
        stats = self._rtp_in
        stats.delivered += 1
        if packet.payload != voice_payload(self._peer_voice_name, packet.sequence):
            stats.payload_mismatches += 1

    def _on_rtcp_datagram(self, src: tuple[str, int], data: bytes) -> None:
        self._rtcp_in.delivered += 1
